"""The benchmark tracer wraps functions by name, and the workloads reach
fiberkit through ``fk.<module>.<name>``; each name must still resolve, or
``bench/run.py`` fails only when it is run.  Every command line a workload
hands to ``cli.main`` must be one that ``cli._plain_args`` matches, so that
no timed call builds an argparse parser."""

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
    fk = SimpleNamespace(**{
        module.name: importlib.import_module(f"fiberkit.{module.name}")
        for module in pkgutil.iter_modules(fiberkit.__path__)
    })
    workload = _WORKLOADS.WORKLOADS[name](fk, tmp_path, 1)
    workload.warm_up()
    for _, call in workload.ops(0):
        call()
    assert calls
    assert [argv for argv in calls
            if argv[0] not in cli._VERBS or cli._plain_args(argv) is None] == []
