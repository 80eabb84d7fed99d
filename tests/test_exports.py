"""Every name a ``fiberkit`` module lists in ``__all__`` must resolve, so a
deleted function or class cannot linger as an export that fails only on
``from fiberkit.<module> import *``."""

import importlib
import pkgutil

import pytest

import fiberkit

MODULES = sorted(
    f"fiberkit.{info.name}" for info in pkgutil.iter_modules(fiberkit.__path__)
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
