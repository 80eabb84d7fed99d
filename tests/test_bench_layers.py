"""The benchmark tracer wraps functions by name, and the workloads reach
fiberkit through ``fk.<module>.<name>``; each name must still resolve, or
``bench/run.py`` fails only when it is run.  Every command line a workload
hands to ``cli.main`` must be one that ``cli._plain_args`` matches, so that
no timed call builds an argparse parser, and no hint a workload passes may
send the rank recursion through ``substitute``.  No timed op reaches
``words.reduce_word`` or ``one_relator._commutator_rotations``, which
therefore keep no fast path of their own.  ``textfmt.parse_hints`` reads
each distinct hint text once per call, which pays because most hint texts
of a ``relator-rank`` op repeat within it."""

import importlib
import pkgutil
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import fiberkit
from fiberkit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _layers():
    """``LAYERS`` from the tracer source, run without writing bytecode."""
    namespace = {}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


def _workload_names():
    """Every ``fk.<module>.<name>`` written in the workloads source."""
    text = WORKLOADS.read_text(encoding="utf-8")
    return sorted(set(re.findall(r"\bfk\.(\w+)\.(\w+)", text)))


@pytest.mark.parametrize("module_name, func, leaf", _layers())
def test_layer_resolves(module_name, func, leaf):
    target = importlib.import_module(f"fiberkit.{module_name}")
    for attr in func.split("."):
        target = getattr(target, attr)
    assert callable(target)


@pytest.mark.parametrize("module_name, name", _workload_names())
def test_workload_name_resolves(module_name, name):
    module = importlib.import_module(f"fiberkit.{module_name}")
    assert hasattr(module, name)


def test_workload_builds_group_file_positionally():
    # cable-tower writes its base knot from these five fields, in this order
    textfmt = importlib.import_module("fiberkit.textfmt")
    trefoil = importlib.import_module("fiberkit.corpus").trefoil_data()
    base = textfmt.GroupFile(
        trefoil.name,
        trefoil.presentation,
        trefoil.phi,
        trefoil.meridian,
        trefoil.longitude,
    )
    assert base == trefoil
    assert textfmt.parse_group_text(textfmt.format_group(base)) == trefoil


def _workloads_module():
    """``bench/workloads.py``, imported without writing bytecode under
    ``bench/``."""
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


_WORKLOADS = _workloads_module()


def _warmed_up(name, work):
    """The workload ``name``, set up in ``work`` and warmed up."""
    fk = SimpleNamespace(**{
        module.name: importlib.import_module(f"fiberkit.{module.name}")
        for module in pkgutil.iter_modules(fiberkit.__path__)
    })
    workload = _WORKLOADS.WORKLOADS[name](fk, work, 1)
    workload.warm_up()
    return workload


def _first_pass(name, work):
    """Set up the workload ``name`` in ``work``, warm it up and run its
    first pass."""
    for _, call in _warmed_up(name, work).ops(0):
        call()


CLI_WORKLOADS = [
    name for name, workload in _WORKLOADS.WORKLOADS.items()
    if issubclass(workload, _WORKLOADS.CliWorkload)
]


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_every_timed_call_is_plain(name, tmp_path, monkeypatch):
    # the calls of a workload's set-up, warm-up and first pass
    calls = []
    real = cli.main

    def recording(argv):
        calls.append(list(argv))
        return real(argv)

    monkeypatch.setattr(cli, "main", recording)
    _first_pass(name, tmp_path)
    assert calls
    assert [argv for argv in calls
            if argv[0] not in cli._VERBS or cli._plain_args(argv) is None] == []


@pytest.mark.parametrize("name", ["relator-rank", "corpus-cli"])
def test_rank_recursion_never_substitutes(name, tmp_path, monkeypatch):
    # every hint these workloads pass is an elementary Nielsen move, which
    # fiber_rank applies to its exponent list; a hint that reaches
    # substitute is named in the failure
    one_relator = importlib.import_module("fiberkit.one_relator")
    substituted, moves = [], []
    real_substitute, real_nielsen = one_relator.substitute, one_relator._nielsen

    def substitute(word, images):
        substituted.append(images)
        return real_substitute(word, images)

    def nielsen(*args):
        moves.append(args[2:])
        return real_nielsen(*args)

    monkeypatch.setattr(one_relator, "substitute", substitute)
    monkeypatch.setattr(one_relator, "_nielsen", nielsen)
    _first_pass(name, tmp_path)
    assert moves
    assert substituted == []


@pytest.mark.parametrize("name", CLI_WORKLOADS)
def test_timed_ops_skip_the_retired_fast_paths(name, tmp_path, monkeypatch):
    # set-up may reduce words (cable-tower's cables do); a timed op that
    # reaches either function is named with it in the failure
    workload = _warmed_up(name, tmp_path)
    modules = [module for key, module in sys.modules.items()
               if key == "fiberkit" or key.startswith("fiberkit.")]
    reached, argv = [], [None]
    real_main = cli.main

    def main(args):
        argv[0] = " ".join(args)
        return real_main(args)

    monkeypatch.setattr(cli, "main", main)
    for module_name, func in (("words", "reduce_word"),
                              ("one_relator", "_commutator_rotations")):
        real = getattr(importlib.import_module(f"fiberkit.{module_name}"), func)

        def recording(*args, _real=real, _name=f"{module_name}.{func}"):
            reached.append((_name, argv[0]))
            return _real(*args)

        # every namespace that binds the function, as the tracer patches it
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, recording)
    for _, call in workload.ops(0):
        call()
    assert argv[0] is not None
    assert sorted(set(reached)) == []


def test_relator_rank_reads_each_hint_text_once(tmp_path, monkeypatch):
    # the hint texts of each timed op and the images read while parsing
    # them; an op that reads a text twice is named by its group
    textfmt = importlib.import_module("fiberkit.textfmt")
    workload = _warmed_up("relator-rank", tmp_path)
    ops, op, reading = [], [None], [None]
    real_parse, real_read = cli.parse_hints, textfmt._read_word

    def parse_hints(texts):
        texts, reading[0] = list(texts), []
        try:
            return real_parse(texts)
        finally:
            ops.append((op[0], texts, reading[0]))
            reading[0] = None

    def read_word(table, declared, text):
        if reading[0] is not None:
            reading[0].append(text)
        return real_read(table, declared, text)

    monkeypatch.setattr(cli, "parse_hints", parse_hints)
    monkeypatch.setattr(textfmt, "_read_word", read_word)
    for op[0], call in workload.ops(0):
        call()
    assert len(ops) == workload.size
    assert [f"group {key}" for key, texts, read in ops if len(read) != len(set(texts))] == []
    total = sum(len(texts) for _, texts, _ in ops)
    repeats = sum(len(texts) - len(set(texts)) for _, texts, _ in ops)
    print(f"relator-rank: {repeats} of {total} hint texts repeat within their op")
    assert 2 * repeats >= total
