"""The benchmark tracer wraps functions by name, and the workloads reach
fiberkit through ``fk.<module>.<name>``; each name must still resolve, or
``bench/run.py`` fails only when it is run.  Every command line a workload
hands to ``cli.main`` must be one that ``cli._plain_args`` matches, so that
no timed call builds an argparse parser, and no hint a workload passes may
send the rank recursion through ``substitute``."""

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


def _first_pass(name, work):
    """Set up the workload ``name`` in ``work``, warm it up and run its
    first pass."""
    fk = SimpleNamespace(**{
        module.name: importlib.import_module(f"fiberkit.{module.name}")
        for module in pkgutil.iter_modules(fiberkit.__path__)
    })
    workload = _WORKLOADS.WORKLOADS[name](fk, work, 1)
    workload.warm_up()
    for _, call in workload.ops(0):
        call()


@pytest.mark.parametrize("name", [
    name for name, workload in _WORKLOADS.WORKLOADS.items()
    if issubclass(workload, _WORKLOADS.CliWorkload)
])
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
