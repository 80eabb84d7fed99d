"""The benchmark tracer wraps functions by name; each name must still
resolve, or ``bench/run.py --trace 1`` fails only when it is run."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    """``LAYERS`` from the tracer source, run without writing bytecode."""
    namespace = {}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["LAYERS"]


@pytest.mark.parametrize("module_name, func, leaf", _layers())
def test_layer_resolves(module_name, func, leaf):
    target = importlib.import_module(f"fiberkit.{module_name}")
    for attr in func.split("."):
        target = getattr(target, attr)
    assert callable(target)
