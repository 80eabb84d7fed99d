"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single ``ACCEPTANCE n: PASS`` line after its assertions
hold, so ``pytest -s tests/test_acceptance.py`` reads as a checklist.
Timing bounds are asserted where the criterion states one.
"""

import random
import time
from dataclasses import replace
from itertools import product
from math import gcd

import sympy
from sympy.matrices.normalforms import invariant_factors

from fiberkit.corpus import (
    showcase_descended,
    showcase_hint,
    showcase_presentation,
    torus_knot_data,
    torus_knot_splitting,
    trefoil_data,
    unknot_data,
)
from fiberkit.errors import ContradictionError
from fiberkit.fox import LaurentPoly, alexander_poly, fox_derivative, monic_degree_check
from fiberkit.inference import FLAG_NAMES, FgConclusions, FgPremises, fg_inference
from fiberkit.links import (
    NOT_APPLICABLE,
    cable_group,
    fibered_splice,
    splice,
    stallings_report,
)
from fiberkit.one_relator import fiber_rank, rank_transfer
from fiberkit.presentations import Presentation, ZMap, abelianize, canonical_zmap
from fiberkit.snf import smith_normal_form
from fiberkit.splittings import (
    AMALGAM,
    HNN,
    Splitting,
    coset_graph,
    free_kernel_rank,
    kernel_indices,
)
from fiberkit.words import Word
from tests_support import (
    as_premises,
    corpus_presentations,
    is_connected,
    is_infinite_cyclic,
    is_trivial,
    random_realizable_splitting,
    t_power_minus_one,
    torus_alexander_closed_form,
)


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {message}")


def test_acceptance_1_showcase_rank_pipeline():
    started = time.perf_counter()
    top = fiber_rank(showcase_presentation(), [showcase_hint()])
    descended = fiber_rank(showcase_descended(), [showcase_hint()])
    elapsed = time.perf_counter() - started
    assert top == 4
    assert descended == 2
    assert elapsed < 1.0
    report(1, f"kernel ranks 4 and 2 in {elapsed:.3f}s")


def test_acceptance_2_rank_transfer_instances():
    assert rank_transfer(0, 2, 3, 2) == 2
    assert rank_transfer(2, 4, 1, 2) == 4

    # the showcase group split as <x> *_{x^2 = u} <u, y | u y^2 u y^-1>
    # has index triple (|b|, gcd(a, e), |b| e) = (1, 2, 2)
    split = Splitting(
        AMALGAM,
        Presentation(("x",)),
        Presentation(
            ("u", "y"), (Word.of(("u", 1), ("y", 2), ("u", 1), ("y", -1)),)
        ),
        (Word.gen("x", 2),),
        (Word.gen("u", 1),),
    )
    phi = ZMap({"x": -1, "u": -2, "y": 4})
    indices = kernel_indices(split, phi)
    assert indices == (1, 2, 2)
    assert free_kernel_rank(AMALGAM, 1, 2, 2, 0, 2) == rank_transfer(2, 4, 1, 2)

    # the straightened relator u^2 y^3 splits with indices (3, 2, 6)
    assert free_kernel_rank(AMALGAM, 3, 2, 6, 0, 0) == rank_transfer(0, 2, 3, 2)
    report(2, "transfer formula agrees with the splitting rank on both instances")


def test_acceptance_3_trefoil_triangle():
    started = time.perf_counter()
    split, phi = torus_knot_splitting(2, 3)
    a_idx, b_idx, c_idx = kernel_indices(split, phi)
    assert (a_idx, b_idx, c_idx) == (3, 2, 6)
    rank = free_kernel_rank(AMALGAM, a_idx, b_idx, c_idx, 0, 0)
    assert rank == 2

    graph = coset_graph(split, phi)
    assert graph.euler_characteristic == -1
    assert 1 - graph.euler_characteristic == 2

    data = trefoil_data()
    delta = alexander_poly(data.presentation, data.phi)
    assert delta == LaurentPoly.from_dict({0: 1, 1: -1, 2: 1})
    assert monic_degree_check(delta, 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(3, f"rank, graph, and order polynomial all give 2 in {elapsed:.3f}s")


def test_acceptance_4_torus_knot_sweep():
    checked = 0
    for p in range(2, 8):
        for q in range(p + 1, 8):
            if gcd(p, q) != 1:
                continue
            cab = cable_group(unknot_data(), p, q)
            assert is_infinite_cyclic(abelianize(cab.presentation))

            delta = alexander_poly(cab.presentation, cab.phi)
            assert delta == torus_alexander_closed_form(p, q)

            expected = (p - 1) * (q - 1)
            assert delta.span == expected

            split, phi = torus_knot_splitting(p, q)
            a_idx, b_idx, c_idx = kernel_indices(split, phi)
            assert free_kernel_rank(AMALGAM, a_idx, b_idx, c_idx, 0, 0) == expected
            checked += 1
    assert checked == 11
    report(4, f"{checked} coprime pairs match the closed form exactly")


def test_acceptance_5_showcase_report():
    pres = showcase_presentation()
    rep = stallings_report(pres, canonical_zmap(pres), [showcase_hint()])
    assert rep.verdict == "consistent with fibered"
    assert rep.alexander_monic
    assert rep.alexander_degree == 4
    assert rep.fiber_rank == 4
    assert is_infinite_cyclic(rep.abelianization)
    report(5, "monic degree 4 equals the kernel rank; abelianization Z")


SWEEP_FLAGS = FLAG_NAMES[:11]
PINNED = {"c_free_abelian": True, "n_nontrivial": True}
VALUES = (None, True, False)


def _masks(flags):
    yes = no = 0
    for i, value in enumerate(flags):
        if value is True:
            yes |= 1 << i
        elif value is False:
            no |= 1 << i
    return yes, no


def _sweep(kind, flag_names):
    """Closure of every 3-valued assignment over ``flag_names``; returns two
    lists indexed alike: the ``(yes_mask, no_mask)`` pair from ``_masks``
    and the ``conclusions.flags`` tuple it came from, with None in both
    marking contradictions."""
    results = []
    closures = []
    for combo in product(VALUES, repeat=len(flag_names)):
        kwargs = dict(zip(flag_names, combo))
        kwargs.update(PINNED)
        try:
            conclusions = fg_inference(kind, FgPremises(**kwargs))
        except ContradictionError:
            results.append(None)
            closures.append(None)
            continue
        results.append(_masks(conclusions.flags))
        closures.append(conclusions.flags)
    return results, closures


def _verbatim_clauses(kind):
    """Independent restatement of the implication clauses: premise dict,
    then expected definite conclusions."""
    both = kind == AMALGAM
    clauses = [
        ({"n_fg": True, "n_in_c": False}, {"nc_finite_index": True}),
        (
            {"n_fg": True, "n_in_c": False, "n_and_c_fg": True},
            {"n_and_a_fg": True, **({"n_and_b_fg": True} if both else {})},
        ),
        ({"nc_finite_index": True}, {"n_in_c": False}),
        (
            {
                "nc_finite_index": True,
                "n_and_a_fg": True,
                **({"n_and_b_fg": True} if both else {}),
            },
            {"n_fg": True},
        ),
        (
            {"nc_finite_index": True, "c_over_n_finite": True},
            {"g_over_n_finite": True},
        ),
        (
            {"nc_finite_index": True, "c_over_n_finite": False},
            {"g_over_n_finite": False},
        ),
        (
            {"nc_finite_index": True, "g_over_n_finite": True},
            {"c_over_n_finite": True},
        ),
        (
            {"nc_finite_index": True, "g_over_n_finite": False},
            {"c_over_n_finite": False},
        ),
    ]
    return clauses


def test_acceptance_6_inference_truth_table():
    n = len(SWEEP_FLAGS)
    # itertools.product varies the last flag fastest
    powers = [3 ** (n - 1 - i) for i in range(n)]
    # the bound covers the two sweeps only, not the checks run on them
    started = time.perf_counter()
    results, closures = _sweep(AMALGAM, SWEEP_FLAGS)
    elapsed = time.perf_counter() - started
    assert len(results) == 3 ** n

    consistent = sum(1 for r in results if r is not None)
    assert consistent > 0

    # monotone: raising an unknown premise to a definite value never
    # removes a definite conclusion (when the richer state stays consistent)
    compared = 0
    combos = product(VALUES, repeat=n)
    for index, combo in enumerate(combos):
        base = results[index]
        if base is None:
            continue
        base_yes, base_no = base
        for i, value in enumerate(combo):
            if value is not None:
                continue
            for add in (1, 2):
                richer = results[index + add * powers[i]]
                if richer is None:
                    continue
                rich_yes, rich_no = richer
                assert base_yes & ~rich_yes == 0
                assert base_no & ~rich_no == 0
                compared += 1
    assert compared > 0

    # idempotent: closing the closure changes nothing; conclusions of a
    # consistent state never overwrite its premises.  Reads the flags the
    # sweep already closed instead of closing every state a second time;
    # indexing and as_premises read only the flags, not the disjunctions.
    cache = {}
    combos = product(VALUES, repeat=n)
    for index, combo in enumerate(combos):
        if closures[index] is None:
            continue
        conclusions = FgConclusions(closures[index], frozenset())
        kwargs = dict(zip(SWEEP_FLAGS, combo))
        kwargs.update(PINNED)
        key = conclusions.flags
        if key not in cache:
            cache[key] = fg_inference(
                AMALGAM, as_premises(conclusions)
            ).flags
        assert cache[key] == key
        for name, wanted in kwargs.items():
            if wanted is not None:
                assert conclusions[name] is wanted

    # every implication clause, verbatim, for the amalgam and HNN rules
    for kind in (AMALGAM, HNN):
        for premises, wanted in _verbatim_clauses(kind):
            conclusions = fg_inference(kind, FgPremises(**premises))
            for flag, value in wanted.items():
                assert conclusions[flag] is value, (kind, premises, flag)

    # HNN sweep over the flags its rules mention (the B side is inert)
    hnn_flags = tuple(
        f for f in SWEEP_FLAGS if f not in ("n_and_b_fg", "n_and_b_free")
    )
    started = time.perf_counter()
    hnn_results, _ = _sweep(HNN, hnn_flags)
    elapsed += time.perf_counter() - started
    assert len(hnn_results) == 3 ** len(hnn_flags)
    assert elapsed < 10.0
    report(
        6,
        f"3^11 amalgam states plus 3^9 HNN states closed in {elapsed:.2f}s "
        f"({consistent} consistent)",
    )


def test_acceptance_7_property_suites():
    # Fox fundamental identity across the corpus, including spliced and
    # cabled presentations
    cases = list(corpus_presentations())
    trefoil = trefoil_data()
    zero = replace(trefoil, phi=ZMap({g: 0 for g in trefoil.presentation.generators}))
    spliced = splice(zero, zero)
    cases.append(("spliced", spliced.presentation, spliced.phi))
    cab = cable_group(trefoil, 2, 3)
    cases.append(("cabled", cab.presentation, cab.phi))
    for name, pres, phi in cases:
        for relator in pres.relators:
            total = LaurentPoly()
            for g in pres.generators:
                total = total + fox_derivative(relator, g).specialize(
                    phi
                ) * t_power_minus_one(phi.values[g])
            assert total.is_zero, name

    # Smith form diagonals on 1000 random matrices up to 8x8, against sympy
    rng = random.Random(20260810)
    for _ in range(1000):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = [[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(matrix)
        expected = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert diag == [int(d) for d in expected]
        nonzero = [d for d in diag if d]
        assert all(d >= 0 for d in diag)
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    # coset graph connectivity for 1000 random realizable index triples
    rng = random.Random(31337)
    for _ in range(1000):
        split, phi = random_realizable_splitting(rng)
        graph = coset_graph(split, phi)
        assert is_connected(graph)
        assert graph.euler_characteristic == graph.vertex_count - graph.edge_count

    report(7, "Fox identity, 1000 Smith forms, 1000 connected coset graphs")


def test_acceptance_8_splice_homology_and_gate():
    def zero_class(data):
        return replace(data, phi=ZMap({g: 0 for g in data.presentation.generators}))

    first = splice(zero_class(trefoil_data()), zero_class(trefoil_data()))
    assert is_trivial(abelianize(first.presentation))

    second = splice(
        zero_class(trefoil_data()), zero_class(torus_knot_data(2, 5))
    )
    assert is_trivial(abelianize(second.presentation))

    assert fibered_splice(True, True, False, True) == NOT_APPLICABLE
    report(8, "spliced groups abelianize to nothing; missing assertion gates")
