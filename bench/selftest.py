"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

Smoke-runs every workload with its oracles, checks that each oracle
rejects a wrong output, that the tracer restores every function it
patched, and that traced and untraced passes print the same outputs.
Takes about 15 seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

import oracles
import run
import speed as machine
import tracer as tracing
from workloads import WORKLOADS

os.chdir(run.ROOT)  # the work directories are relative to the repository root
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> tuple[dict, dict]:
    """Run the benchmark in-process for a minimal time; returns the printed
    result and the result file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.01",
                         "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    record = json.loads((run.OUT / "results" / f"{workload}-seed7-trace{trace}.json").read_text())
    return result, record


class Smoke(unittest.TestCase):
    def test_every_workload_passes_its_oracles(self):
        wanted = {m["name"] for m in SPEC["end_to_end"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, record = invoke(name, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], record["failures"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), wanted)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertEqual(record["latency"]["latency_p90_ms"]["samples"],
                                 result["attempted"])
                self.assertGreaterEqual(record["kernel_samples"], 1)


class Scaling(unittest.TestCase):
    def test_each_op_is_scaled_by_the_samples_around_it(self):
        from array import array
        speed = machine.Speed()
        speed.samples = array("d", [machine.NOMINAL_S, 2 * machine.NOMINAL_S])
        speed.positions = array("q", [0, 2])
        scaled = speed.scale(array("d", [1.0, 2.0, 3.0, 4.0]))
        for got, raw in zip(scaled, (1.0, 2.0, 3.0, 4.0)):
            self.assertAlmostEqual(got, raw / 1.5)  # the median of both samples, for every op

    def test_a_slower_machine_reads_the_same_after_scaling(self):
        self.assertAlmostEqual(machine.scaled_seconds(2.0, [2 * machine.NOMINAL_S] * 6), 1.0)


class Oracles(unittest.TestCase):
    def setUp(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        self.fk = run.Fiberkit()
        self.work = Path("bench/out/work/selftest")
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_closed_forms(self):
        self.assertEqual(oracles.format_poly(oracles.torus_alexander(2, 3)), "1 - t + t^2")
        self.assertEqual(oracles.torus_alexander(1, 2), [1])
        # (1,2) cable of the trefoil: Delta_trefoil(t^2)
        self.assertEqual(oracles.format_poly(oracles.cable_alexander((2, 3), [(1, 2)])),
                         "1 - t^2 + t^4")
        self.assertEqual(oracles.base_case_rank(-3, 5), 8)
        with self.assertRaises(ArithmeticError):
            oracles.poly_exact_div([1, 0, 1], [-1, 1])

    def test_each_oracle_rejects_a_wrong_output(self):
        cables = WORKLOADS["cable-tower"](self.fk, self.work, 0)
        good = next(call for key, call in cables.ops(0) if key == 1)()
        self.assertEqual(cables.check(1, good), 0)
        self.assertEqual(cables.check(1, (0, good[1].replace("degree = 10", "degree = 9"), "")), 1)

        ranks = WORKLOADS["relator-rank"](self.fk, self.work, 0)
        self.assertEqual(ranks.check(0, (0, "rank = 999\n", "")), 1)
        self.assertEqual(ranks.check(0, (2, "", "error: boom\n")), 1)

        corpus = WORKLOADS["corpus-cli"](self.fk, self.work, 0)
        trefoil = corpus.keys.index("alexander corpus/trefoil.grp")
        self.assertEqual(corpus.check(trefoil, (0, "1 - t + t^2\n", "")), 0)
        self.assertEqual(corpus.check(trefoil, (0, "1 + t^2\n", "")), 1)
        self.assertEqual(corpus.check(corpus.keys.index("infer files/clash.inf"), (0, "", "")), 1)

        sweep = WORKLOADS["inference-sweep"](self.fk, self.work, 0)
        failed = 0
        for key, call in sweep.ops(0):
            output = call()
            if key == 5:
                output = ValueError("tampered")
            failed += sweep.check(key, output)
            if key == 2 * 729:
                break
        self.assertEqual(failed, 729)


class Tracing(unittest.TestCase):
    def test_tracer_restores_every_patched_function(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        fk = run.Fiberkit()
        modules = [getattr(fk, name) for name in run.MODULES]
        before = [dict(vars(m)) for m in modules]
        pow_before = fk.words.Word.__dict__["__pow__"]
        with tracing.Tracer():
            self.assertIsNot(fk.one_relator.cyclic_reduce, before[run.MODULES.index("one_relator")]["cyclic_reduce"])
            self.assertIsNot(fk.words.Word.__dict__["__pow__"], pow_before)
            self.assertIs(fk.links.alexander_poly, fk.fox.alexander_poly)
        for module, saved in zip(modules, before):
            self.assertEqual(set(vars(module)), set(saved))
            for attr, value in saved.items():
                self.assertIs(vars(module)[attr], value, f"{module.__name__}.{attr}")
        self.assertIs(fk.words.Word.__dict__["__pow__"], pow_before)

    def test_traced_and_untraced_outputs_are_identical(self):
        wanted = {m["name"] for m in SPEC["per_layer"]}
        for name in ("cable-tower", "corpus-cli"):
            with self.subTest(workload=name):
                result, record = invoke(name, 1)
                self.assertTrue(result["correct"], record["failures"])
                self.assertEqual(record["differing_outputs"], 0)
                self.assertEqual(set(result["metrics"]), wanted)
                self.assertGreater(result["metrics"]["trace.attributed_share"]["value"], 0.9)


if __name__ == "__main__":
    unittest.main(verbosity=2)
