"""Spans and per-function counters recorded from outside fiberkit.

The tracer wraps the functions named in ``LAYERS`` in every ``fiberkit.*``
module namespace that binds them (``from .words import cyclic_reduce``
copies the name) and restores the originals on exit.  A wrapped call
records a span (name, start, end, parent span, op id); calls to the hot
leaf functions of ``words`` are instead aggregated on the enclosing span.
Self time is a call's duration minus the time covered by wrapped calls
beneath it, computed on the fly with a frame stack; total time is the
duration of the outermost call of a function, so recursion is not
counted twice.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# (module, function, aggregated on the enclosing span instead of a span)
LAYERS = (
    ("fox", "alexander_matrix", False),
    ("fox", "fox_derivative", False),
    ("fox", "alexander_poly", False),
    ("words", "reduce_word", True),
    ("words", "concat", True),
    ("words", "cyclic_reduce", True),
    ("words", "substitute", True),
    ("words", "Word.__pow__", True),
    ("one_relator", "fiber_rank", False),
    ("one_relator", "analyze", False),
    ("one_relator", "descend", False),
    ("one_relator", "validate_automorphism", False),
    ("one_relator", "invert_automorphism", False),
    ("inference", "fg_inference", False),
    ("cli", "main", False),
    ("textfmt", "parse_group_file", False),
    ("textfmt", "parse_splitting_file", False),
    ("textfmt", "format_group", False),
    ("links", "stallings_report", False),
    ("links", "cable_group", False),
    ("links", "splice", False),
    ("snf", "smith_normal_form", False),
    ("presentations", "abelianize", False),
    ("presentations", "canonical_zmap", False),
    ("presentations", "zmap_validate", False),
    ("splittings", "coset_graph", False),
    ("splittings", "kernel_indices", False),
    ("splittings", "free_kernel_rank", False),
    ("corpus", "unknot_data", False),
    ("corpus", "torus_knot_data", False),
    ("corpus", "trefoil_data", False),
    ("corpus", "showcase_presentation", False),
    ("corpus", "showcase_descended", False),
    ("corpus", "showcase_hint", False),
    ("corpus", "torus_knot_splitting", False),
)


def _relator_letters(args, result):
    return {"fox.relator_letters": sum(len(r) for r in args[0].relators)}


def _cyclic_letters(args, result):
    return {"words.cyclic_reduce.letters": len(args[0])}


def _rank_decided(args, result):
    return {"one_relator.decided": result is not None}


def _inference_consistent(args, result):
    return {"inference.consistent": True, "inference.clauses": len(result.disjunctions)}


def _report_decided(args, result):
    return {"links.decided": result.verdict != "inconclusive"}


# counters taken from a wrapped call's arguments and result
COUNTERS = {
    "fox.alexander_poly": _relator_letters,
    "words.cyclic_reduce": _cyclic_letters,
    "one_relator.fiber_rank": _rank_decided,
    "inference.fg_inference": _inference_consistent,
    "links.stallings_report": _report_decided,
}

# ratio metric -> (numerator counter, calls of the denominator function)
RATIOS = {
    "one_relator.decided_ratio": ("one_relator.decided", "one_relator.fiber_rank"),
    "inference.consistent_ratio": ("inference.consistent", "inference.fg_inference"),
    "links.decided_ratio": ("links.decided", "links.stallings_report"),
}
PER_OP_COUNTERS = ("fox.relator_letters", "words.cyclic_reduce.letters", "inference.clauses")

OP_SPAN = "op"


class Tracer:
    """Install with ``with Tracer(): ...``; wrap each op in ``op(i)``."""

    def __init__(self):
        self.names = [OP_SPAN] + [f"{module}.{func}" for module, func, _ in LAYERS]
        self.stats = {name: [0, 0.0, 0.0] for name in self.names}  # calls, self, total seconds
        self.counters = dict.fromkeys(
            PER_OP_COUNTERS + tuple(hits for hits, _ in RATIOS.values()), 0)
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.leaves: dict[int, dict[str, list]] = {}
        self._frames: list[list] = []  # per active call: [seconds spent in wrapped children]
        self._spans: list[int] = []  # open span indices
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "fiberkit" or n.startswith("fiberkit.")]
        for module_name, func, leaf in LAYERS:
            module = sys.modules[f"fiberkit.{module_name}"]
            name = f"{module_name}.{func}"
            if "." in func:
                owner_name, attr = func.split(".")
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(original, name, leaf))
                continue
            original = getattr(module, func)
            wrapper = self._wrap(original, name, leaf)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- recording --------------------------------------------------------

    def _open_span(self, name_id: int, start: float) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self.span_parent.append(self._spans[-1] if self._spans else -1)
        self.span_op.append(self._op)
        self._spans.append(index)
        return index

    def _wrap(self, original, name: str, leaf: bool):
        name_id = self.names.index(name)
        stat = self.stats[name]
        counter = COUNTERS.get(name)
        frames, spans, leaves = self._frames, self._spans, self.leaves
        depth = [0]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            depth[0] += 1
            start = perf_counter()
            index = -1 if leaf else self._open_span(name_id, start)
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                own = elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                depth[0] -= 1
                stat[0] += 1
                stat[1] += own
                if not depth[0]:
                    stat[2] += elapsed
                if leaf:
                    if spans:
                        agg = leaves.setdefault(spans[-1], {}).setdefault(name, [0, 0.0, 0.0])
                        agg[0] += 1
                        agg[1] += elapsed
                        agg[2] += own
                else:
                    spans.pop()
                    self.span_end[index] = end
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counters[key] += value
            return result

        return wrapper

    def op(self, op_id: int):
        return _OpSpan(self, op_id)

    # -- results ----------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, float]:
        """calls and self milliseconds per op for every layer function,
        plus the counters and ratios."""
        out = {}
        for name in self.names[1:]:
            calls, own, total = self.stats[name]
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.self_ms"] = own * 1e3 / ops
            out[f"{name}.total_ms"] = total * 1e3 / ops
        for name in PER_OP_COUNTERS:
            out[name] = self.counters[name] / ops
        for ratio, (hits, base) in RATIOS.items():
            calls = self.stats[base][0]
            out[ratio] = self.counters[hits] / calls if calls else 0.0
        return out

    def op_seconds(self) -> float:
        return sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_name))
            if self.span_name[i] == 0
        )

    def layer_self_seconds(self) -> float:
        return sum(own for name, (_, own, _) in self.stats.items() if name != OP_SPAN)

    def write(self, path):
        """One JSON object per span; leaf aggregates ride on their span as
        ``name: [calls, seconds, self seconds]``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                record = {
                    "span": i,
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i],
                    "end": self.span_end[i],
                    "parent": self.span_parent[i],
                    "op": self.span_op[i],
                }
                if i in self.leaves:
                    record["leaves"] = self.leaves[i]
                fh.write(json.dumps(record) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int):
        self.tracer = tracer
        self.op_id = op_id

    def __enter__(self):
        t = self.tracer
        t._op = self.op_id
        t._frames.append([0.0])
        self.start = perf_counter()
        self.index = t._open_span(0, self.start)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = perf_counter()
        frame = t._frames.pop()
        t._spans.pop()
        t.span_end[self.index] = end
        stat = t.stats[OP_SPAN]
        stat[0] += 1
        stat[1] += (end - self.start) - frame[0]
        stat[2] += end - self.start
        t._op = -1
        return False
