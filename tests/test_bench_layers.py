"""The benchmark tracer wraps functions by name, and the workloads reach
fiberkit through ``fk.<module>.<name>``; each name must still resolve, or
``bench/run.py`` fails only when it is run."""

import importlib
import re
from pathlib import Path

import pytest

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
