"""The package surface.

Every name a ``fiberkit`` module lists in ``__all__`` must resolve, so a
deleted function or class cannot linger as an export that fails only on
``from fiberkit.<module> import *``.  The plain records are ``NamedTuple``
classes whose fields and defaults are pinned here, since callers build them
positionally and by keyword.  ``Word``, ``Presentation`` and ``Splitting``
take their value protocol from the one base in ``words``.  Importing the
package pulls in neither ``dataclasses`` nor ``inspect``.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


PREMISE_FLAGS = (
    "n_fg", "n_in_c", "nc_finite_index", "n_and_a_fg", "n_and_b_fg", "n_and_c_fg",
    "c_over_n_finite", "n_and_c_trivial", "n_and_a_free", "n_and_b_free",
    "factors_have_no_fg_normal", "c_free_abelian", "n_nontrivial",
    "g_over_n_finite", "n_free",
)

# record -> (fields in order, defaults)
RECORDS = {
    "fox.LaurentPoly": (("terms",), {"terms": ()}),
    "fox.GroupRingElement": (("terms",), {"terms": ()}),
    "presentations.AbelianizationResult": (("torsion_coefficients", "free_rank"), {}),
    "presentations.ZMap": (("values",), {}),
    "presentations.GroupFile": (
        ("name", "presentation", "phi", "meridian", "longitude"),
        {"phi": None, "meridian": None, "longitude": None},
    ),
    "splittings.CosetGraph": (
        ("vertex_indices", "edge_indices", "ends", "euler_characteristic"), {},
    ),
    "splittings.Edge": (
        ("src", "dst", "words_src", "words_dst", "stable"), {"stable": None},
    ),
    "inference.FgPremises": (PREMISE_FLAGS, dict.fromkeys(PREMISE_FLAGS)),
    "inference.FgConclusions": (("flags", "disjunctions"), {}),
    "one_relator.RelatorAnalysis": (("p", "q", "m", "a", "b", "e"), {}),
    "links.StallingsReport": (
        ("image_gcd", "abelianization", "alexander", "alexander_monic",
         "alexander_degree", "fiber_rank", "verdict", "diagnostics"),
        {"diagnostics": ()},
    ),
}


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_record_fields_and_defaults(path):
    module_name, name = path.split(".")
    record = getattr(importlib.import_module(f"fiberkit.{module_name}"), name)
    fields, defaults = RECORDS[path]
    assert record._fields == fields
    assert record._field_defaults == defaults


@pytest.mark.parametrize("path", ["words.Word", "presentations.Presentation",
                                  "splittings.Splitting"])
def test_value_protocol_has_one_home(path):
    from fiberkit.words import Word, _Value

    module_name, name = path.split(".")
    cls = getattr(importlib.import_module(f"fiberkit.{module_name}"), name)
    methods = ("__eq__", "__hash__", "__setattr__", "__delattr__", "__reduce__")
    # a Word shows its letters, not its syllable tuple
    for method in methods + (() if cls is Word else ("__repr__",)):
        assert getattr(cls, method) is getattr(_Value, method), method
        assert method not in vars(cls), method


def test_import_pulls_in_neither_dataclasses_nor_inspect():
    code = (
        "import fiberkit.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fiberkit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"
