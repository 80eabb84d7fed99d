"""Benchmark driver: one workload, one seed, one process.

    python3 bench/run.py --workload cable-tower --seed 1 --seconds 30 --trace 0

Run from the repository root.  It imports fiberkit from ``src/`` and times
whole passes over the workload's inputs in a closed loop (one caller, one
thread) until ``--seconds`` have passed, checking each op's output outside
the timed region.  Times are scaled to a reference machine by the kernel
of ``speed.py``, sampled between ops.  The workload is set up ``SETUPS``
times, spread over the run (fresh import, inputs, files, warm-up), and the
median set-up time is reported.  With ``--trace 1`` it instead times one pass untraced,
traced and untraced again, and reports the per-layer metrics.  The last
line of stdout is the JSON result; a fuller record goes to
``bench/out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORK = Path("bench/out/work")
SETUPS = 7
MODULES = ("cli", "corpus", "errors", "fox", "inference", "links", "one_relator",
           "presentations", "snf", "splittings", "textfmt", "words")

sys.path.insert(0, str(BENCH))
import speed as machine  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Fiberkit:
    """Namespace of freshly imported fiberkit modules."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "fiberkit" or n.startswith("fiberkit.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"fiberkit.{name}"))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src" / "fiberkit").glob("*.py"))


class Setups:
    """Sets a workload up from scratch, keeping the time each set-up took,
    raw and scaled by the kernel samples taken around it, and the failures
    logged by every workload instance."""

    def __init__(self, workload_cls, seed: int):
        self.workload_cls = workload_cls
        self.seed = seed
        self.times: list[float] = []
        self.scaled_times: list[float] = []
        self.current = None
        self._log: list[str] = []

    def __call__(self):
        if self.current is not None:
            self._log += self.current.log
            self.current = None
            gc.collect()  # free the old module copies so peak RSS does not depend on timing
        work = WORK / self.workload_cls.name
        shutil.rmtree(work, ignore_errors=True)
        before = [machine.sample() for _ in range(3)]
        start = perf_counter()
        work.mkdir(parents=True)
        workload = self.workload_cls(Fiberkit(), work, self.seed)
        workload.warm_up()
        elapsed = perf_counter() - start
        after = [machine.sample() for _ in range(3)]
        self.times.append(elapsed)
        self.scaled_times.append(machine.scaled_seconds(elapsed, before + after))
        self.current = workload
        return workload

    @property
    def log(self) -> list[str]:
        return self._log + (self.current.log if self.current else [])


class Pass:
    """Latencies, failures and output digests of one whole pass."""

    def __init__(self):
        self.latencies = array("d")
        self.failed = 0
        self.digests: list[bytes] = []


def run_pass(workload, pass_no: int, keep_digests=False, tracer=None, before_op=None) -> Pass:
    """Time every op of one pass, checking each output after its timing;
    ``before_op(i)`` runs untimed before the pass's op ``i``."""
    result = Pass()
    for op_id, (key, call) in enumerate(workload.ops(pass_no)):
        if before_op is not None:
            before_op(op_id)
        raised = False
        if tracer is None:
            start = perf_counter()
            try:
                output = call()
            except Exception as exc:  # a traceback is a failed op, not a crash
                output, raised = exc, True
            elapsed = perf_counter() - start
        else:
            with tracer.op(op_id) as span:
                try:
                    output = call()
                except Exception as exc:
                    output, raised = exc, True
            elapsed = tracer.span_end[span.index] - span.start
        result.latencies.append(elapsed)
        if raised:
            workload.log.append(f"{key}: " + "".join(traceback.format_exception(output)))
        result.failed += workload.check(key, output)
        if keep_digests:
            result.digests.append(hashlib.blake2b(workload.encode(output), digest_size=8).digest())
    return result


def latency_summary(latencies, samples: int | None = None) -> dict:
    """Median and 90th percentile (nearest rank) in ms, with the number of
    op times behind them and how many of those lie beyond the 90th."""
    ordered = sorted(latencies)
    n = len(ordered)
    samples = n if samples is None else samples
    return {
        "latency_p50_ms": {"percentile": 50, "samples": samples,
                           "value": statistics.median(ordered) * 1e3},
        "latency_p90_ms": {"percentile": 90, "samples": samples,
                           "beyond": samples - math.ceil(0.9 * samples),
                           "value": ordered[math.ceil(0.9 * n) - 1] * 1e3},
    }


def pass_rate(p: Pass) -> float:
    return (len(p.latencies) - p.failed) / sum(p.latencies)


def order_statistics(values, keep: int = 4096) -> list[float]:
    """``values`` sorted, or ``keep`` of them evenly spaced in sorted order.

    Every pass has the same number of ops, so percentiles over the kept
    values of all passes are percentiles over every op of the run, and
    memory does not grow with the number of ops."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered if n <= keep else [ordered[(2 * i + 1) * n // (2 * keep)] for i in range(keep)]


def end_to_end(setups: Setups, seconds: float) -> tuple[dict, int, int, dict]:
    """Whole passes until ``seconds`` have gone by.

    Every op's time is scaled to the reference machine of ``speed.py`` by
    the kernel samples taken around it, so a pass is settled only once the
    next one has ended.  The latency percentiles are taken over every op
    of the run, and the throughput is the median over passes of each
    pass's ops per second of scaled op time.  Set-ups are spread over the
    run and their median is reported.
    """
    speed = machine.Speed()
    setups()
    kept, raw_kept = array("d"), array("d")
    rates: list[float] = []
    raw_rates: list[float] = []

    def settle(first, latencies):
        scaled = speed.scale(latencies, first)
        rates.append(len(scaled) / sum(scaled))
        raw_rates.append(len(latencies) / sum(latencies))
        kept.extend(order_statistics(scaled))
        raw_kept.extend(order_statistics(latencies))

    pending = None
    attempted = failed = passes = 0
    start = perf_counter()
    while pending is None or perf_counter() - start < seconds:
        base = attempted
        done = run_pass(setups.current, passes, before_op=lambda i: speed.maybe_sample(base + i))
        passes += 1
        if pending is not None:
            settle(*pending)
        pending = (base, done.latencies)
        attempted += len(done.latencies)
        failed += done.failed
        if (len(setups.times) < SETUPS
                and perf_counter() - start >= len(setups.times) * seconds / SETUPS):
            setups()
    for _ in range(machine.SPAN):
        speed.take(attempted)
    settle(*pending)
    while len(setups.times) < SETUPS:
        setups()
    summary = latency_summary(kept, attempted)
    metrics = {
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_p50_ms": {"value": summary["latency_p50_ms"]["value"], "unit": "ms"},
        "latency_p90_ms": {"value": summary["latency_p90_ms"]["value"], "unit": "ms"},
        "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setups.scaled_times), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "unit": "MiB"},
    }
    detail = {
        "passes": passes,
        "latency": summary,
        "error_rate": failed / attempted,
        "ops_per_s_by_pass": rates,
        "kernel_samples": len(speed.samples),
        "kernel_ms_median": statistics.median(speed.samples) * 1e3,
        "raw": {"ops_per_s": statistics.median(raw_rates),
                **latency_summary(raw_kept, attempted),
                "setup_s": statistics.median(setups.times)},
    }
    return metrics, attempted, failed, detail


def traced(setups: Setups) -> tuple[dict, int, int, dict]:
    """The same pass untraced, traced, and untraced again; the traced
    outputs must match the untraced ones."""
    workload = setups()
    before = run_pass(workload, 0, keep_digests=True)
    with tracing.Tracer() as tracer:
        traced_pass = run_pass(workload, 0, keep_digests=True, tracer=tracer)
    after = run_pass(workload, 0)
    differing = sum(a != b for a, b in zip(before.digests, traced_pass.digests))
    if differing or len(before.digests) != len(traced_pass.digests):
        workload.log.append(f"{differing} ops printed differently when traced")
    ops = len(traced_pass.latencies)
    values = tracer.per_op(ops)
    untraced_rate = (pass_rate(before) + pass_rate(after)) / 2
    traced_rate = pass_rate(traced_pass)
    op_seconds = tracer.op_seconds()
    values.update({
        "src.lines": src_lines(),
        "trace.op_ms": op_seconds * 1e3 / ops,
        "trace.attributed_share": tracer.layer_self_seconds() / op_seconds,
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_ops_per_s": untraced_rate - traced_rate,
    })
    spans = OUT / "results" / f"{workload.name}-seed{setups.seed}-spans.jsonl.gz"
    tracer.write(spans)
    units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = 3 * ops
    failed = before.failed + traced_pass.failed + after.failed + differing
    detail = {"spans": str(spans.relative_to(ROOT)), "traced_ops": ops,
              "differing_outputs": differing,
              "latency_untraced": latency_summary(before.latencies + after.latencies),
              "latency_traced": latency_summary(traced_pass.latencies)}
    return metrics, attempted, failed, detail


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fiberkit" / "__init__.py").is_file():
        print(f"error: no fiberkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    (OUT / "results").mkdir(parents=True, exist_ok=True)

    setups = Setups(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, attempted, failed, detail = traced(setups)
    else:
        metrics, attempted, failed, detail = end_to_end(setups, args.seconds)
    shutil.rmtree(WORK / args.workload, ignore_errors=True)

    for line in setups.log[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "setup_s_samples": setups.times,
        "setup_s_scaled_samples": setups.scaled_times,
        "attempted": attempted,
        "failed": failed,
        "failures": setups.log[:100],
        "metrics": metrics,
        **detail,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
