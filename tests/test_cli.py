import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

from fiberkit import cli, corpus, words
from fiberkit.cli import main
from fiberkit.errors import ContradictionError, FiberkitError, ParseError
from fiberkit.fox import LaurentPoly
from fiberkit.inference import FLAG_NAMES
from fiberkit.textfmt import parse_group_file
from tests_support import charpoly, scrambled_torus_relator, transvection_torus

TREFOIL = """\
group trefoil
gen x y
rel x^2 y^-3
phi x=3 y=2
peripheral meridian=x y^-1 longitude=x^2 y x^-1 y x^-1 y x^-1 y x^-1 y x^-1 y x^-1
"""

SHOWCASE = """\
group showcase
gen x y
rel x^2 y^2 x^2 y^-1
"""

UNKNOT = """\
group unknot
gen u
phi u=1
peripheral meridian=u longitude=1
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "trefoil.grp").write_text(TREFOIL, encoding="utf-8")
    (tmp_path / "showcase.grp").write_text(SHOWCASE, encoding="utf-8")
    (tmp_path / "unknot.grp").write_text(UNKNOT, encoding="utf-8")
    (tmp_path / "A.grp").write_text("group A\ngen x\n", encoding="utf-8")
    (tmp_path / "B.grp").write_text("group B\ngen y\n", encoding="utf-8")
    (tmp_path / "trefoil.spl").write_text(
        "amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2\n",
        encoding="utf-8",
    )
    return tmp_path


# HNN extensions of <x> over x^2 = t x^2 t^-1, beside the workdir's trefoil.spl
HNN_PHIS = {"h.spl": "x=1 t=1", "h2.spl": "x=2 t=1"}

# the full stdout of graph and of rank on each splitting file
GRAPHS = {
    "trefoil.spl": "kind = amalgam\na_idx = 3\nb_idx = 2\nc_idx = 6\nvertices = 5\n"
    "edges = 6\nchi = -1\nedge 0: A0 - B0\nedge 1: A1 - B1\nedge 2: A2 - B0\n"
    "edge 3: A0 - B1\nedge 4: A1 - B0\nedge 5: A2 - B1\n",
    "h.spl": "kind = hnn\na_idx = 1\nc_idx = 2\nvertices = 1\nedges = 2\nchi = -1\n"
    "edge 0: A0 - A0\nedge 1: A0 - A0\n",
    "h2.spl": "kind = hnn\na_idx = 2\nc_idx = 4\nvertices = 2\nedges = 4\nchi = -2\n"
    "edge 0: A0 - A1\nedge 1: A1 - A0\nedge 2: A0 - A1\nedge 3: A1 - A0\n",
}
RANKS = [
    ("trefoil.spl", [], "chi = -1\nrank = 2\n"),
    ("trefoil.spl", ["--rank-a", "1", "--rank-b", "2"], "chi = -1\nrank = 9\n"),
    ("h.spl", [], "chi = -1\nrank = 2\n"),
    ("h.spl", ["--rank-a", "2"], "chi = -1\nrank = 4\n"),
    ("h2.spl", [], "chi = -2\nrank = 3\n"),
]


def splitting_file(workdir, name):
    """``workdir / name``, written first when it is one of ``HNN_PHIS``."""
    if name in HNN_PHIS:
        (workdir / name).write_text(
            f"hnn A=A.grp stable=t\nedge inC=x^2 inD=x^2\nphi {HNN_PHIS[name]}\n",
            encoding="utf-8",
        )
    return workdir / name


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicVerbs:
    def test_abelianize(self, workdir, capsys):
        code, out, _ = run(capsys, "abelianize", workdir / "unknot.grp")
        assert code == 0
        assert out == "Z\n"

    def test_alexander(self, workdir, capsys):
        code, out, _ = run(capsys, "alexander", workdir / "trefoil.grp")
        assert code == 0
        assert out == "1 - t + t^2\n"

    def test_alexander_huge_exponent_on_class_zero_generator(self, workdir, capsys):
        (workdir / "big.grp").write_text(
            "group big\ngen x y\nrel x^1000000 y x^-1000000 y^-1\nphi x=0 y=1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "alexander", workdir / "big.grp")
        assert code == 0
        assert out == "-1000000 + 1000000t\n"

    def test_fiber_rank_with_hint(self, workdir, capsys):
        code, out, _ = run(
            capsys, "fiber-rank", workdir / "showcase.grp", "--nielsen", "u->u y"
        )
        assert code == 0
        assert out == "rank = 4\n"

    def test_fiber_rank_huge_exponent_with_hint(self, workdir, capsys):
        (workdir / "big.grp").write_text(
            "group big\ngen x y\nrel x^1000000 y x y^2\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "fiber-rank", workdir / "big.grp", "--nielsen", "x->x^-1"
        )
        assert code == 0
        assert out == "rank = unknown\n"

    def test_fiber_rank_unknown(self, workdir, capsys):
        (workdir / "stuck.grp").write_text(
            "group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "fiber-rank", workdir / "stuck.grp")
        assert code == 0
        assert out == "rank = unknown\n"

    def test_fiber_rank_huge_exponent_hint_is_linear(self, workdir, capsys):
        # the hint undoes y^1000000; checking it takes time linear in its
        # syllables, not in its exponents
        (workdir / "big.grp").write_text(
            "group big\ngen x y\nrel x y^1000000 x y^1000003\n", encoding="utf-8"
        )
        start = perf_counter()
        code, out, _ = run(
            capsys, "fiber-rank", workdir / "big.grp", "--nielsen", "x->x y^-1000000"
        )
        assert perf_counter() - start < 1.0
        assert code == 0
        assert out == "rank = 2\n"

    def test_phi(self, workdir, capsys):
        code, out, _ = run(capsys, "phi", workdir / "showcase.grp")
        assert code == 0
        assert "phi x=-1 y=4" in out
        assert "m = 1" in out

    def test_analyze(self, workdir, capsys):
        code, out, _ = run(capsys, "analyze", workdir / "showcase.grp")
        assert code == 0
        assert "p = 4" in out and "q = 1" in out and "e = 2" in out

    def test_graph(self, workdir, capsys):
        for name, expected in GRAPHS.items():
            assert run(capsys, "graph", splitting_file(workdir, name)) == (0, expected, "")

    def test_rank(self, workdir, capsys):
        for name, options, expected in RANKS:
            assert run(capsys, "rank", splitting_file(workdir, name), *options) == (
                0, expected, ""
            )

    def test_report(self, workdir, capsys):
        code, out, _ = run(
            capsys, "report", workdir / "showcase.grp", "--nielsen", "u->u y"
        )
        assert code == 0
        assert "verdict = consistent with fibered" in out
        assert "degree = 4" in out

    def test_cable_of_a_trivial_class(self, workdir, capsys):
        path = workdir / "zero.grp"
        path.write_text(TREFOIL.replace("phi x=3 y=2", "phi x=0 y=0"), encoding="utf-8")
        assert run(capsys, "cable", path, "-p", 1, "-q", 2) == (
            2, "", "error: cable class is trivial; no peripheral system\n"
        )


BAD_HINTS = [
    ("y->y x y x^-1 y^-1", "images do not form a basis"),
    ("x->x^2", "abelianized determinant 2"),
]

Q0_REASON = "exponent sum in the second generator is zero; the descent hypothesis fails"

# relator with q = 0, and its report under phi x=0 y=1
Q0_REPORTS = [
    ("x^2", "image = 1Z\nabelianization = Z/2 + Z\nalexander = 2\nmonic = no\n"
     f"degree = 0\nnote: rank recursion unavailable: {Q0_REASON}\n"
     "verdict = not fibered\n"),
    ("x y x^-1 y^-1", "image = 1Z\nabelianization = Z + Z\nalexander = -1 + t\n"
     "monic = yes\ndegree = 1\nnote: m = 0: both exponent sums vanish, no "
     "torsion number\nverdict = inconclusive\n"),
]


class TestBadHints:
    """A hint that is not an automorphism of the free group: ``fiber-rank``
    and ``report`` both exit 2 with the reason."""

    @pytest.fixture
    def stuck(self, workdir):
        path = workdir / "stuck.grp"
        path.write_text("group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("hint, reason", BAD_HINTS)
    def test_fiber_rank(self, stuck, capsys, hint, reason):
        code, out, err = run(capsys, "fiber-rank", stuck, "--nielsen", hint)
        assert code == 2
        assert out == ""
        assert err == f"error: hint is not an automorphism: {reason}\n"

    @pytest.mark.parametrize("hint, reason", BAD_HINTS)
    def test_report(self, stuck, capsys, hint, reason):
        code, out, err = run(capsys, "report", stuck, "--nielsen", hint)
        assert code == 2
        assert out == ""
        assert err == f"error: hint is not an automorphism: {reason}\n"

    @pytest.mark.parametrize("hint, reason", BAD_HINTS)
    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_a_hint_the_recursion_never_needs(self, workdir, capsys, verb, hint, reason):
        # the base case x^2 y^-3 is reached before any hint is consumed
        path = workdir / "base.grp"
        path.write_text("group base\ngen x y\nrel x^2 y^-3\n", encoding="utf-8")
        code, out, err = run(capsys, verb, path, "--nielsen", "x->x y", "--nielsen", hint)
        assert (code, out) == (2, "")
        assert err == f"error: hint is not an automorphism: {reason}\n"

    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_hint_on_an_undeclared_generator(self, stuck, capsys, verb):
        code, out, err = run(capsys, verb, stuck, "--nielsen", "z->x y")
        assert code == 2
        assert out == ""
        assert err == "error: hint moves generators ['z'], expected 'x', 'y'\n"

    def test_report_refuses_hints_for_another_shape(self, workdir, capsys):
        # the (1,2) cable of the trefoil: report used to drop the hint and
        # print a full report
        cable = workdir / "k1.grp"
        code, _, _ = run(capsys, "cable", workdir / "trefoil.grp", "-p", 1, "-q", 2, "-o", cable)
        assert code == 0
        assert run(capsys, "report", cable, "--nielsen", "x->z^5 q") == (
            2,
            "",
            "error: hints need a two-generator one-relator presentation, got "
            "3 generators and 2 relators\n",
        )

    @pytest.fixture(params=Q0_REPORTS, ids=["x^2", "commutator"])
    def q0(self, workdir, request):
        relator, report = request.param
        path = workdir / "q0.grp"
        path.write_text(
            f"group q0\ngen x y\nrel {relator}\nphi x=0 y=1\n", encoding="utf-8"
        )
        return path, report

    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_a_recursion_that_cannot_start_checks_the_hints(self, q0, capsys, verb):
        path, _ = q0
        code, out, err = run(capsys, verb, path, "--nielsen", "x->x^2")
        assert (code, out) == (2, "")
        assert err == "error: hint is not an automorphism: abelianized determinant 2\n"

    @pytest.mark.parametrize("hints", [[], ["--nielsen", "x->x y"]])
    def test_a_recursion_that_cannot_start_keeps_its_output(self, q0, capsys, hints):
        path, report = q0
        assert run(capsys, "report", path, *hints) == (0, report, "")
        assert run(capsys, "fiber-rank", path, *hints) == (2, "", f"error: {Q0_REASON}\n")

    def test_report_notes_a_recursion_that_cannot_start(self, workdir, capsys):
        # the second exponent sum is zero: no hint is at fault, so report
        # keeps its verdict and says why there is no rank
        path = workdir / "q0.grp"
        path.write_text("group q0\ngen x y\nrel x^2\nphi x=0 y=1\n", encoding="utf-8")
        code, out, _ = run(capsys, "report", path)
        assert code == 0
        assert (
            "note: rank recursion unavailable: exponent sum in the second "
            "generator is zero; the descent hypothesis fails\n"
        ) in out
        assert out.endswith("verdict = not fibered\n")


@pytest.fixture(scope="module")
def scrambled(tmp_path_factory):
    """A seeded Nielsen-scrambled torus-knot relator of about 10^5 letters,
    its undoing hints, and the unscrambled group it came from."""
    alpha, beta, relator, hints = scrambled_torus_relator(random.Random(1), 10 ** 5)
    directory = tmp_path_factory.mktemp("scrambled")
    (directory / "big.grp").write_text(
        f"group big\ngen x y\nrel {relator}\n", encoding="utf-8"
    )
    (directory / "base.grp").write_text(
        f"group base\ngen x y\nrel x^{alpha} y^{beta}\n", encoding="utf-8"
    )
    nielsen = [arg for hint in hints for arg in ("--nielsen", hint)]
    return directory, nielsen, (abs(alpha) - 1) * (abs(beta) - 1)


class TestAdversarialSizes:
    """Relators of about 10^5 letters run through the rank recursion in
    bounded time, with no timing bound asserted; a coset graph of a million
    edges gets its rank, and a relator whose omitted Jacobian column would
    hold 2 * 10^9 terms its order polynomial, in under a second.  A relator
    whose kept column would hold 3 * 10^7 terms is refused in under a
    second: ``alexander`` exits 2 and ``report`` is inconclusive.  So is a
    determinant whose cofactor products would multiply 2.5 * 10^9 pairs
    of terms, though its Jacobian keeps inside the walk bound, a dense one
    that would visit more than ``fox.MINOR_BOUND`` minors, in under three
    seconds, and an order polynomial of more than ``fox.QUOTIENT_BOUND``
    terms.  A power or a
    substitution past ``words.SYLLABLE_BOUND`` syllables exits 2 in under
    a second, and ``report`` notes the rank recursion unavailable."""

    @pytest.fixture
    def conjugation(self, workdir):
        path = workdir / "conjugation.grp"
        path.write_text(
            "group conjugation\ngen x y\nrel x^1000000000 y x^-1000000000 y^-1\n"
            "phi x=1 y=0\n",
            encoding="utf-8",
        )
        return path

    def test_alexander_of_huge_omitted_column(self, conjugation, capsys):
        started = perf_counter()
        code, out, _ = run(capsys, "alexander", conjugation)
        assert perf_counter() - started < 1.0
        assert (code, out) == (0, "-1 + t^1000000000\n")

    def test_report_of_huge_omitted_column(self, conjugation, capsys):
        started = perf_counter()
        code, out, _ = run(capsys, "report", conjugation)
        assert perf_counter() - started < 1.0
        assert code == 0
        assert out == (
            "image = 1Z\n"
            "abelianization = Z + Z\n"
            "alexander = -1 + t^1000000000\n"
            "monic = yes\n"
            "degree = 1000000000\n"
            "note: m = 0: both exponent sums vanish, no torsion number\n"
            "verdict = inconclusive\n"
        )

    @pytest.fixture
    def long_walk(self, workdir):
        # the kept column of y^-30000001 would hold 30000001 Fox terms
        path = workdir / "long_walk.grp"
        path.write_text("group G\ngen x y\nrel x^2 y^-30000001\n", encoding="utf-8")
        return path

    def test_alexander_refuses_a_long_fox_walk(self, long_walk, capsys):
        started = perf_counter()
        code, out, err = run(capsys, "alexander", long_walk)
        assert perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the Fox Jacobian would need more than 100000 terms\n"

    def test_report_of_a_long_fox_walk(self, long_walk, capsys):
        started = perf_counter()
        code, out, _ = run(capsys, "report", long_walk)
        assert perf_counter() - started < 1.0
        assert code == 0
        assert out == (
            "image = 1Z\n"
            "abelianization = Z\n"
            "alexander = unavailable\n"
            "fiber-rank = 30000000\n"
            "note: order polynomial unavailable: "
            "the Fox Jacobian would need more than 100000 terms\n"
            "verdict = inconclusive\n"
        )

    @staticmethod
    def wide_product(workdir, n):
        # the Jacobian is diag(P, P) with P = 1 + t + ... + t^(n-1): 2n walk
        # terms, and a determinant P * P of n^2 pairs of terms
        path = workdir / f"wide_{n}.grp"
        path.write_text(f"group G\ngen x y z\nrel y^{n} x^-{n}\nrel z^{n} x^-{n}\n"
                        "phi x=1 y=1 z=1\n", encoding="utf-8")
        return path

    def test_alexander_refuses_a_wide_determinant(self, workdir, capsys):
        started = perf_counter()
        code, out, err = run(capsys, "alexander", self.wide_product(workdir, 50_000))
        assert perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the determinant would multiply more than 2000000 pairs of terms\n"

    def test_report_of_a_wide_determinant(self, workdir, capsys):
        started = perf_counter()
        code, out, _ = run(capsys, "report", self.wide_product(workdir, 50_000))
        assert perf_counter() - started < 1.0
        assert code == 0
        assert out == (
            "image = 1Z\n"
            "abelianization = Z/50000 + Z/50000 + Z\n"
            "alexander = unavailable\n"
            "note: order polynomial unavailable: "
            "the determinant would multiply more than 2000000 pairs of terms\n"
            "verdict = inconclusive\n"
        )

    def test_alexander_of_a_determinant_inside_the_bound(self, workdir, capsys):
        # P * P = 1 + 2t + ... + 1000t^999 + 999t^1000 + ... + t^1998
        code, out, _ = run(capsys, "alexander", self.wide_product(workdir, 1000))
        coefficients = [*range(1, 1001), *range(999, 0, -1)]
        assert code == 0
        assert out == str(LaurentPoly(tuple(enumerate(coefficients)))) + "\n"

    @staticmethod
    def mapping_torus(workdir, n):
        # a dense Jacobian of one- and two-term entries: the determinant
        # visits 8,469 minors at n = 8 and 918,122 at n = 11
        text, matrix = transvection_torus(n)
        path = workdir / f"torus_{n}.grp"
        path.write_text(text, encoding="utf-8")
        return path, matrix

    def test_alexander_of_a_mapping_torus_inside_the_bound(self, workdir, capsys):
        path, matrix = self.mapping_torus(workdir, 8)
        coefficients = charpoly(matrix)
        t = sympy.Symbol("t")
        assert coefficients == sympy.Matrix(matrix).charpoly(t).all_coeffs()[::-1]
        code, out, _ = run(capsys, "alexander", path)
        assert code == 0
        assert out == str(LaurentPoly.from_dict(dict(enumerate(coefficients)))) + "\n"

    def test_alexander_refuses_a_dense_determinant(self, workdir, capsys):
        path, _ = self.mapping_torus(workdir, 12)
        started = perf_counter()
        code, out, err = run(capsys, "alexander", path)
        assert perf_counter() - started < 3.0
        assert (code, out) == (2, "")
        assert err == "error: the determinant would visit more than 100000 minors\n"

    def test_report_of_a_dense_determinant(self, workdir, capsys):
        path, _ = self.mapping_torus(workdir, 12)
        started = perf_counter()
        code, out, _ = run(capsys, "report", path)
        assert perf_counter() - started < 3.0
        assert code == 0
        assert out == (
            "image = 1Z\n"
            "abelianization = Z\n"
            "alexander = unavailable\n"
            "note: order polynomial unavailable: "
            "the determinant would visit more than 100000 minors\n"
            "verdict = inconclusive\n"
        )

    def test_rank_of_huge_coset_graph(self, workdir, capsys):
        (workdir / "big.spl").write_text(
            "amalgam A=A.grp B=B.grp\nedge inA=x^1000 inB=y^1001\nphi x=1001 y=1000\n",
            encoding="utf-8",
        )
        started = perf_counter()
        code, out, _ = run(capsys, "rank", workdir / "big.spl")
        assert perf_counter() - started < 1.0
        assert code == 0
        assert out == "chi = -998999\nrank = 999000\n"

    def test_cable_refuses_a_huge_power(self, workdir, capsys):
        # the meridian x y^-1 to the 300001 would have 600002 syllables
        started = perf_counter()
        code, out, err = run(capsys, "cable", workdir / "trefoil.grp", "-p", "300001", "-q", "2")
        assert perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the word would grow by more than 500000 syllables\n"

    @staticmethod
    def power_relator(workdir, n):
        # x -> x y sends x^n to (x y)^n, of 2n syllables
        path = workdir / f"power_{n}.grp"
        path.write_text(f"group G\ngen x y\nrel x^{n} y x y^-5\n", encoding="utf-8")
        return path

    def test_alexander_refuses_a_huge_order_polynomial(self, workdir, capsys):
        # the order polynomial of x^N y x y^-5 has about N terms
        started = perf_counter()
        code, out, err = run(capsys, "alexander", self.power_relator(workdir, 3_000_001))
        assert perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the Laurent quotient would have more than 200000 terms\n"

    def test_report_of_a_huge_order_polynomial(self, workdir, capsys):
        started = perf_counter()
        code, out, _ = run(capsys, "report", self.power_relator(workdir, 3_000_001))
        assert perf_counter() - started < 1.0
        assert code == 0
        assert out == (
            "image = 1Z\n"
            "abelianization = Z/2 + Z\n"
            "alexander = unavailable\n"
            "note: order polynomial unavailable: "
            "the Laurent quotient would have more than 200000 terms\n"
            "verdict = inconclusive\n"
        )

    def test_fiber_rank_refuses_a_huge_substitution(self, workdir, capsys):
        started = perf_counter()
        code, out, err = run(capsys, "fiber-rank", self.power_relator(workdir, 3_000_001),
                             "--nielsen", "x->x y")
        assert perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err == "error: the word would grow by more than 500000 syllables\n"

    def test_report_notes_a_refused_substitution(self, workdir, capsys, monkeypatch):
        # the same refusal under a bound small enough that the order
        # polynomial of the relator stays short: the substitution puts
        # together (x y)^31 y (x y) y^-5, of 66 syllables, 62 more than
        # the relator has
        monkeypatch.setattr(words, "SYLLABLE_BOUND", 61)
        path = self.power_relator(workdir, 31)
        code, out, _ = run(capsys, "report", path, "--nielsen", "x->x y")
        assert code == 0
        assert out == (
            "image = 1Z\n"
            "abelianization = Z/4 + Z\n"
            "alexander = 1 + t^8 + t^16 + t^24 - t^31 + t^32\n"
            "monic = yes\n"
            "degree = 32\n"
            "note: rank recursion unavailable: the word would grow by more than 61 syllables\n"
            "verdict = consistent with fibered\n"
        )
        code, out, _ = run(capsys, "fiber-rank", path, "--nielsen", "x->x y")
        assert (code, out) == (2, "")
        monkeypatch.setattr(words, "SYLLABLE_BOUND", 66)
        code, out, _ = run(capsys, "fiber-rank", path, "--nielsen", "x->x y")
        assert (code, out) == (0, "rank = unknown\n")

    def test_fiber_rank_counts_a_substitution_once(self, workdir, capsys, monkeypatch):
        # x y x^2 y ... x^10000 y has 20000 syllables, and x -> y x y^-1
        # sends each x^e to the three syllables y x^e y^-1: 20000 more,
        # inside a bound of 30000 that one count of the whole relator
        # shows, where a count for each of the 10000 distinct powers would
        # walk the relator 10000 times
        monkeypatch.setattr(words, "SYLLABLE_BOUND", 30_000)
        path = workdir / "exponents.grp"
        relator = " ".join(f"x^{e} y" for e in range(1, 10_001))
        path.write_text(f"group G\ngen x y\nrel {relator}\n", encoding="utf-8")
        started = perf_counter()
        code, out, err = run(capsys, "fiber-rank", path, "--nielsen", "x->y x y^-1")
        assert perf_counter() - started < 1.0
        assert (code, out, err) == (0, "rank = unknown\n", "")

    def test_long_relator_under_a_one_syllable_hint(self, workdir, capsys, monkeypatch):
        # a relator longer than the bound is not refused for its own length
        path = workdir / "long.grp"
        relator = " ".join(f"x^{e} y" for e in range(1, 101))
        path.write_text(f"group G\ngen x y\nrel {relator}\n", encoding="utf-8")
        expected = run(capsys, "fiber-rank", path, "--nielsen", "x->x^-1")
        monkeypatch.setattr(words, "SYLLABLE_BOUND", 10)
        assert run(capsys, "fiber-rank", path, "--nielsen", "x->x^-1") == expected
        assert expected[0] == 0

    def test_fiber_rank(self, scrambled, capsys):
        directory, nielsen, rank = scrambled
        code, out, _ = run(capsys, "fiber-rank", directory / "big.grp", *nielsen)
        assert code == 0
        assert out == f"rank = {rank}\n"

    def test_report_matches_the_unscrambled_group(self, scrambled, capsys):
        directory, nielsen, rank = scrambled
        code, out, _ = run(capsys, "report", directory / "big.grp", *nielsen)
        assert code == 0
        _, base, _ = run(capsys, "report", directory / "base.grp")
        assert out == base
        assert f"fiber-rank = {rank}\n" in out
        assert out.endswith("verdict = consistent with fibered\n")


def outcome(capsys, argv, run=main):
    """``(exit code, stdout, stderr)`` of one ``run`` call, ``main`` by
    default, including the argparse exits for help and usage errors."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_main(argv):
    """``main`` through the full tree alone: ``parse_args`` on every verb,
    which refuses leftovers itself, then the handler, with the same exit
    codes."""
    args = cli._build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FiberkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return 1
        return 3 if isinstance(exc, ContradictionError) else 2


# --help of the top-level parser ("") and of each verb, as CPython 3.11's
# argparse lays them out at 80 columns
HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other versions")
@pytest.mark.parametrize("verb", list(HELP), ids=lambda verb: verb or "top")
def test_help_is_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(capsys, verb.split() + ["--help"]) == (0, HELP[verb], "")


def test_help_names_every_verb():
    assert list(HELP) == [""] + list(cli._VERBS)


# a relator-rank-shaped input: 10 hints, 4 of them distinct
_, _, SCRAMBLED, SCRAMBLED_HINTS = scrambled_torus_relator(random.Random(2), 250)
TEN_HINTS = ["fiber-rank", "@scrambled.grp"] + [
    arg for hint in SCRAMBLED_HINTS for arg in ("--nielsen", hint)
]

# "@name" is a file in the workdir fixture, or one the test writes there
ARGVS = [
    ["abelianize", "@trefoil.grp"],
    ["phi", "@showcase.grp"],
    ["analyze", "@showcase.grp"],
    ["fiber-rank", "@showcase.grp", "--nielsen", "u->u y"],
    ["alexander", "@trefoil.grp"],
    ["graph", "@trefoil.spl"],
    ["infer", "@p.inf"],
    ["rank", "@trefoil.spl", "--rank-a", "1", "--rank-b", "0"],
    ["splice", "@zero.grp", "@zero.grp", "-o", "@spliced.grp"],
    ["splice", "@trefoil.grp", "@trefoil.grp"],
    ["cable", "@unknot.grp", "-p", "2", "-q", "3"],
    ["cable", "@unknot.grp", "-p", "2", "-q", "3", "--output", "@cable.grp"],
    ["report", "@showcase.grp", "--nielsen", "u->u y"],
    ["corpus", "--dir", "@corpus"],
    TEN_HINTS,
    ["report", "--nielsen", "u->u y", "@showcase.grp"],
    ["fiber-rank", "@stuck.grp", "--nielsen=x->x y"],
    ["fiber-rank", "--", "@showcase.grp"],
    ["cable", "@unknot.grp", "-p", "2", "-q", "3", "-p", "5"],
    ["cable", "@unknot.grp", "-p", "-3", "-q", "2"],
    ["fiber-rank", "@showcase.grp", "--nielsen", ""],
    ["abelianize", "-"],
    ["rank", "@trefoil.spl", "--rank-a", "1_0"],
    ["report", "@showcase.grp", "--nielsen", "u->u y", "--nielsen", "u->u y"],
    ["report", "@showcase.grp", "-h"],
    ["report", "@showcase.grp", "--h"],
    TEN_HINTS[:2] + ["--nielsen"],
    ["cable", "@unknot.grp", "-q", "3", "-p", "2", "-o"],
    ["report"],
    ["splice", "@trefoil.grp"],
    ["cable", "@unknot.grp"],
    ["abelianize", "@trefoil.grp", "extra", "more"],
    ["corpus", "stray"],
    ["report", "@showcase.grp", "--", "y"],
    ["report", "@showcase.grp", "--bogus"],
    ["cable", "@unknot.grp", "-p", "two", "-q", "3"],
    ["rank", "@trefoil.spl", "--rank-a", "x"],
    ["report", "@showcase.grp", "--niel", "u->u y"],
    ["fiber-rank", "@showcase.grp", "--nielsen", "x->x^2"],
    ["report", "-h"],
    ["cable", "--help"],
    ["report", "--he"],
    ["rep"],
    ["rep", "@showcase.grp"],
    ["bogus"],
    ["--"],
    ["--", "report", "@showcase.grp"],
    ["--nielsen", "x", "report"],
    ["-h"],
    ["--help", "report"],
    [],
]
# the calls main matches with no parser built
PLAIN = [argv for argv in ARGVS if argv and argv[0] in cli._VERBS and cli._plain_args(argv)]


class TestArgvDifferential:
    """``main`` matches a plain call against its verb's declaration and
    gives any other call the full tree of all verbs; every call must end
    exactly as it does through the full tree alone, whatever calls came
    before it."""

    @pytest.fixture
    def files(self, workdir):
        (workdir / "p.inf").write_text("kind amalgam\npremise n_fg yes\n", encoding="utf-8")
        (workdir / "zero.grp").write_text(
            TREFOIL.replace("phi x=3 y=2", "phi x=0 y=0"), encoding="utf-8"
        )
        (workdir / "stuck.grp").write_text(
            "group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8"
        )
        (workdir / "scrambled.grp").write_text(
            f"group scrambled\ngen x y\nrel {SCRAMBLED}\n", encoding="utf-8"
        )
        return lambda argv: [
            str(workdir / a[1:]) if a.startswith("@") else a for a in argv
        ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_matches_the_full_parser(self, files, capsys, monkeypatch, argv):
        argv = files(argv)
        monkeypatch.setenv("COLUMNS", "80")
        assert outcome(capsys, argv) == outcome(capsys, argv, reference_main)

    @pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
    def test_a_plain_call_builds_no_parser(self, files, capsys, monkeypatch, argv):
        def no_parser(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
        _, _, err = outcome(capsys, files(argv))
        assert "usage:" not in err

    def test_plain_is_the_argv_the_matcher_accepts(self):
        assert len(PLAIN) == 21

    def test_a_reused_parser_carries_nothing_over(self, files, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        calls = [files(argv) for argv in ARGVS * 2]
        random.Random(12).shuffle(calls)
        for argv in calls:
            assert outcome(capsys, argv) == outcome(capsys, argv, reference_main), argv

    def test_hints_do_not_pile_up(self, files, capsys, monkeypatch):
        # a verb's parser shares its --nielsen default [] between calls
        counts = []

        def spy(real):
            def counting(*args):
                counts.append(len(args[-1]))  # the hints come last
                return real(*args)
            return counting

        monkeypatch.setattr(cli, "fiber_rank", spy(cli.fiber_rank))
        monkeypatch.setattr(cli, "stallings_report", spy(cli.stallings_report))
        hinted = files(["fiber-rank", "@showcase.grp", "--nielsen", "u->u y"])
        for _ in range(3):
            assert outcome(capsys, hinted) == (0, "rank = 4\n", "")
        report = files(["report", "@showcase.grp"])
        for argv in (report, report + ["--nielsen", "u->u y"], report):
            assert outcome(capsys, argv)[0] == 0
        assert counts == [1, 1, 1, 0, 1, 0]

    def test_a_failed_parse_leaves_the_parser_as_it_was(self, files, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        good = files(["fiber-rank", "@showcase.grp", "--nielsen", "u->u y"])
        expected = outcome(capsys, good, reference_main)
        for argv, code in ((["fiber-rank"], 2), (["fiber-rank", "--help"], 0)):
            assert outcome(capsys, argv)[0] == code
            assert outcome(capsys, good) == expected

    def test_help_follows_each_calls_columns(self, capsys, monkeypatch):
        # verb help reads the same at 80 and 120 columns; 40 wraps it
        helps = []
        for columns in ("80", "40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            helps.append(outcome(capsys, ["cable", "--help"]))
            assert helps[-1] == outcome(capsys, ["cable", "--help"], reference_main)
        assert helps[1] != helps[0]

    @pytest.fixture
    def trees(self, monkeypatch):
        """One entry for each full tree that ``main`` builds."""
        built = []
        real = cli._build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "_build_parser", counting)
        return built

    def test_plain_report_calls_build_no_parser(self, files, capsys, trees):
        report = files(["report", "@showcase.grp", "--nielsen", "u->u y"])
        for _ in range(20):
            assert outcome(capsys, report)[0] == 0
        assert trees == []

    @pytest.mark.parametrize("argv", [
        ["report", "@showcase.grp", "--nielsen", "u->u y", "-h"],
        ["report", "@showcase.grp", "--nielsen=u->u y"],
    ], ids=" ".join)
    def test_a_non_plain_call_builds_the_full_tree_once(self, files, capsys, trees, argv):
        for calls in range(1, 4):
            assert outcome(capsys, files(argv))[0] == 0
            assert len(trees) == calls

    def test_every_declared_argument_is_one_the_matcher_reads(self):
        # _plain_args reads positionals with no spec, and options that take
        # one value, stored or appended; another form needs it extended
        for _, _, arguments in cli._VERBS.values():
            for flags, spec in arguments:
                if not flags[0].startswith("-"):
                    assert spec == {}, flags
                    continue
                assert spec.keys() <= {"action", "default", "metavar", "required", "type"}, flags
                assert spec.get("action", "append") == "append", flags

    def test_plain_args_agree_with_the_full_tree(self):
        flags = sorted({flag for _, _, arguments in cli._VERBS.values()
                        for names, _ in arguments for flag in names if flag.startswith("-")})
        alphabet = [
            *cli._VERBS, *flags,
            *(flag[:-1] for flag in flags if flag.startswith("--")),
            *(f"{flag}=2" for flag in flags), "-p3",
            "-", "--", "-h", "--help", "-3", "-0", "3", "0", "1_0", " 4", "+2",
            "", "", "x", "u->u y", "two", "\u0663", "-\u0663", "\uff12",
        ]
        verbs = list(cli._VERBS)
        tree = cli._build_parser()
        rng = random.Random(30)
        accepted = 0
        for _ in range(50_000):
            verb = rng.choice(verbs)
            argv = [verb, *(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))]
            plain = cli._plain_args(argv)
            if plain is None:
                continue
            accepted += 1
            args, extras = tree.parse_known_args(argv)
            assert args.verb == verb, argv
            del args.verb
            assert (vars(plain), extras) == (vars(args), []), argv
        assert accepted > 2_000


def cli_process(*argv, **kwargs):
    """Run ``python -m fiberkit.cli`` on ``argv`` with the package on the path."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "fiberkit.cli", *map(str, argv)],
                          env=env, **kwargs)


def test_entry_point_reads_sys_argv(workdir, capsys, monkeypatch):
    """``python -m fiberkit.cli`` parses ``sys.argv[1:]`` as ``main(argv)``
    does; the usage line shows in ``rep``'s error."""
    run(capsys, "corpus", "--dir", workdir / "corpus")
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--help"], ["report", str(workdir / "corpus" / "showcase.grp")], ["rep", "x"]):
        proc = cli_process(*argv, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == outcome(capsys, argv)


def test_closed_stdout_exits_1_without_a_traceback(workdir):
    """``fiberkit report … | head -1``: the reader is gone before the
    report is flushed."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = cli_process("report", workdir / "trefoil.grp", stdout=writer,
                           stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_dev_stdout_on_a_pipe(workdir):
    """``-o /dev/stdout`` writes into the pipe; reading the target back
    first would block on the pipe until the timeout."""
    argv = ["cable", workdir / "trefoil.grp", "-p", "2", "-q", "3"]
    plain = cli_process(*argv, capture_output=True, timeout=10)
    piped = cli_process(*argv, "-o", "/dev/stdout", capture_output=True, timeout=10)
    assert plain.returncode == 0 and plain.stdout.startswith(b"group ")
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, plain.stdout, b"")


class TestInferVerb:
    def test_forward(self, workdir, capsys):
        (workdir / "p.inf").write_text(
            "kind amalgam\npremise n_fg yes\npremise n_in_c no\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "infer", workdir / "p.inf")
        assert code == 0
        assert "nc_finite_index = yes" in out

    def test_disjunction_output(self, workdir, capsys):
        (workdir / "p.inf").write_text(
            "kind amalgam\npremise nc_finite_index no\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "infer", workdir / "p.inf")
        assert code == 0
        assert "disjunction: n_fg=no | n_in_c=yes" in out

    def test_contradiction_exit_code(self, workdir, capsys):
        (workdir / "p.inf").write_text(
            "kind amalgam\npremise nc_finite_index yes\npremise n_in_c yes\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "infer", workdir / "p.inf")
        assert code == 3
        assert "error:" in err


class TestExitCodes:
    @pytest.mark.parametrize("name, text, verb, message", [
        ("p.inf", "kind amalgam\npremise n_fg yes\npremise n_fg no\n", "infer",
         "3: repeated premise 'n_fg'"),
        ("s.spl", "amalgam A=A.grp A=B.grp B=B.grp\nedge inA=x^2 inB=y^3\n", "graph",
         "1: repeated A=..."),
        ("s.spl", "amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2 x=5\n", "rank",
         "3: phi names generator 'x' twice"),
        ("g.grp", "gen x y\nrel x^2 y^-3\nphi x=3 y=2 x=5\n", "phi",
         "3: phi names generator 'x' twice"),
    ], ids=["premise", "splitting-key", "splitting-phi", "group-phi"])
    def test_repeated_key_is_a_parse_error(self, workdir, capsys, name, text, verb, message):
        # the last value used to win: infer printed n_fg = no and exited 0
        (workdir / name).write_text(text, encoding="utf-8")
        assert run(capsys, verb, workdir / name) == (1, "", f"error: {workdir / name}:{message}\n")

    @pytest.mark.parametrize("text, argv, message", [
        (TREFOIL.replace("peripheral meridian=x y^-1", "peripheral meridian=x z"),
         ["cable", "@", "-p", "2", "-q", "3"], "5: undeclared generator 'z'"),
        (TREFOIL.replace("phi x=3 y=2", "phi x=3"), ["phi", "@"], "4: phi misses generator 'y'"),
    ], ids=["peripheral", "phi"])
    def test_group_file_errors_name_their_line(self, workdir, capsys, text, argv, message):
        path = workdir / "g.grp"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "@" else a for a in argv]
        assert run(capsys, *argv) == (1, "", f"error: {path}:{message}\n")

    def test_parse_error(self, workdir, capsys):
        (workdir / "bad.grp").write_text("gen x\nrel x^0\n", encoding="utf-8")
        code, _, err = run(capsys, "abelianize", workdir / "bad.grp")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("hint", ["x^2->x y", "1->x"])
    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_hint_generator_is_a_name(self, workdir, capsys, verb, hint):
        # a hint's left side is a generator name, checked when parsed
        assert run(capsys, verb, workdir / "showcase.grp", "--nielsen", hint) == (
            1, "", f"error: bad hint generator in {hint!r}\n"
        )

    @pytest.mark.parametrize("stable", ["t^2", "1"])
    def test_stable_letter_is_a_name(self, workdir, capsys, stable):
        # a stable letter is a generator name, as on a gen line
        path = workdir / "h.spl"
        path.write_text(f"hnn A=A.grp stable={stable}\nedge inC=x^2 inD=x^2\n"
                        f"phi x=1 {stable}=1\n", encoding="utf-8")
        assert run(capsys, "graph", path) == (
            1, "", f"error: {path}:1: bad generator name {stable!r}\n"
        )

    @pytest.mark.parametrize("stable, message", [
        ("", "HNN extension needs a stable letter"),
        ("x", "stable letter collides with a factor generator"),
    ])
    def test_splitting_errors_name_their_line(self, workdir, capsys, stable, message):
        # the splitting's own refusals belong to its hnn line
        path = workdir / "h.spl"
        path.write_text(f"# one loop\nhnn A=A.grp stable={stable}\nedge inC=x^2 inD=x^2\n",
                        encoding="utf-8")
        assert run(capsys, "graph", path) == (1, "", f"error: {path}:2: {message}\n")

    def test_hypothesis_violation(self, workdir, capsys):
        (workdir / "comm.grp").write_text(
            "group c\ngen x y\nrel x y x^-1 y^-1\n", encoding="utf-8"
        )
        code, _, err = run(capsys, "phi", workdir / "comm.grp")
        assert code == 2
        assert "m = 0" in err

    @pytest.mark.parametrize("verb", ["phi", "analyze", "fiber-rank"])
    def test_shape_violation(self, workdir, capsys, verb):
        code, out, err = run(capsys, verb, workdir / "A.grp")
        assert (code, out) == (2, "")
        assert err == (
            "error: needs a two-generator one-relator presentation, got 1 "
            "generators and 0 relators\n"
        )

    @pytest.mark.parametrize("text, ranks", [
        ("amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2\n",
         ["--rank-a", "-1", "--rank-b", "5"]),
        ("hnn A=A.grp stable=t\nedge inC=x^2 inD=x^2\nphi x=1 t=1\n", ["--rank-a", "-1"]),
    ], ids=["amalgam", "hnn"])
    def test_negative_factor_rank(self, workdir, capsys, text, ranks):
        # these used to print rank = 9 and rank = 1 and exit 0
        (workdir / "s.spl").write_text(text, encoding="utf-8")
        assert run(capsys, "rank", workdir / "s.spl", *ranks) == (
            2, "", "error: factor ranks must be nonnegative\n"
        )

    @pytest.mark.parametrize("value", ["-7", "0", "3"])
    def test_rank_b_on_an_hnn_splitting(self, workdir, capsys, value):
        # --rank-b -7 used to be ignored: rank = 2, exit 0
        assert run(capsys, "rank", splitting_file(workdir, "h.spl"), "--rank-b", value) == (
            2, "", "error: --rank-b is the rank of factor B; an HNN splitting has none\n"
        )

    def test_missing_file(self, workdir, capsys):
        code, _, err = run(capsys, "abelianize", workdir / "nope.grp")
        assert code == 1

    @pytest.mark.parametrize("verb", ["abelianize", "graph", "infer"])
    def test_non_utf8_file(self, workdir, capsys, verb):
        (workdir / "latin1.txt").write_bytes("group caf\xe9\ngen x\n".encode("latin-1"))
        code, out, err = run(capsys, verb, workdir / "latin1.txt")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {workdir / 'latin1.txt'}: 'utf-8' codec")

    def test_output_into_missing_directory(self, workdir, capsys):
        target = workdir / "nodir" / "x.grp"
        code, out, err = run(
            capsys, "cable", workdir / "unknot.grp", "-p", "2", "-q", "3", "-o", target
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: [Errno 2]")
        assert not target.parent.exists()

    def test_corpus_dir_names_a_file(self, workdir, capsys):
        target = workdir / "A.grp"
        code, out, err = run(capsys, "corpus", "--dir", target)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: [Errno 17]")
        assert target.read_text(encoding="utf-8") == "group A\ngen x\n"

    @pytest.mark.parametrize("verb", ["cable", "splice"])
    def test_class_not_killing_relator(self, workdir, capsys, verb):
        (workdir / "bad.grp").write_text(
            "gen y\nrel y^3\nphi y=2\nperipheral meridian=y longitude=1\n",
            encoding="utf-8",
        )
        extra = ["-p", "1", "-q", "2"] if verb == "cable" else [workdir / "unknot.grp"]
        code, out, err = run(capsys, verb, workdir / "bad.grp", *extra)
        assert code == 2
        assert out == ""
        assert err == "error: the class does not kill every relator\n"

    def test_nontrivial_needs_yes_or_no(self, workdir, capsys):
        path = workdir / "p.inf"
        path.write_text("kind amalgam\nnontrivial maybe\n", encoding="utf-8")
        code, out, err = run(capsys, "infer", path)
        assert code == 1
        assert out == ""
        assert err == f"error: {path}:2: nontrivial must be yes or no\n"


class TestConstructionVerbs:
    def test_cable_round_trips(self, workdir, capsys):
        out_path = workdir / "cable.grp"
        code, _, _ = run(
            capsys, "cable", workdir / "unknot.grp", "-p", "2", "-q", "3",
            "-o", out_path,
        )
        assert code == 0
        group = parse_group_file(out_path)
        assert group.presentation.generators == ("u", "t")
        assert str(group.presentation.relators[0]) == "u^2 t^-3"
        code, out, _ = run(capsys, "alexander", out_path)
        assert out == "1 - t + t^2\n"

    def test_splice_requires_compatible_classes(self, workdir, capsys):
        code, _, err = run(
            capsys, "splice", workdir / "trefoil.grp", workdir / "trefoil.grp"
        )
        assert code == 2
        assert "incompatible" in err

    def test_splice_round_trips(self, workdir, capsys):
        zero = TREFOIL.replace("phi x=3 y=2", "phi x=0 y=0")
        (workdir / "zero.grp").write_text(zero, encoding="utf-8")
        out_path = workdir / "spliced.grp"
        code, _, _ = run(
            capsys, "splice", workdir / "zero.grp", workdir / "zero.grp",
            "-o", out_path,
        )
        assert code == 0
        group = parse_group_file(out_path)
        assert len(group.presentation.generators) == 4
        assert len(group.presentation.relators) == 4
        code, out, _ = run(capsys, "abelianize", out_path)
        assert out == "trivial\n"


class TestOutputFiles:
    """``-o`` onto a file that already holds the output leaves it alone."""

    def argv(self, workdir, verb):
        if verb == "cable":
            return ["cable", workdir / "trefoil.grp", "-p", "2", "-q", "3"]
        zero = TREFOIL.replace("phi x=3 y=2", "phi x=0 y=0")
        (workdir / "zero.grp").write_text(zero, encoding="utf-8")
        return ["splice", workdir / "zero.grp", workdir / "zero.grp"]

    @pytest.mark.parametrize("verb", ["cable", "splice"])
    def test_identical_file_is_left_alone(self, workdir, capsys, verb):
        argv = self.argv(workdir, verb)
        code, text, _ = run(capsys, *argv)
        assert code == 0
        target = workdir / "out.grp"
        target.write_bytes(text.encode("utf-8"))
        os.utime(target, ns=(0, 0))
        target.chmod(0o444)
        inode = target.stat().st_ino
        assert run(capsys, *argv, "-o", target) == (0, "", "")
        assert (target.stat().st_mtime_ns, target.stat().st_ino) == (0, inode)
        assert target.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("verb", ["cable", "splice"])
    @pytest.mark.parametrize("change", ["same-size", "shorter", "longer"])
    def test_different_file_is_rewritten(self, workdir, capsys, verb, change):
        argv = self.argv(workdir, verb)
        text = run(capsys, *argv)[1]
        stale = {"same-size": text.replace("group ", "group_"),
                 "shorter": text[:-1], "longer": text + "\n"}[change]
        target = workdir / "out.grp"
        target.write_text(stale, encoding="utf-8")
        os.utime(target, ns=(0, 0))
        assert run(capsys, *argv, "-o", target) == (0, "", "")
        assert target.stat().st_mtime_ns != 0
        assert target.read_text(encoding="utf-8") == text


class TestCorpusVerb:
    def test_deterministic(self, workdir, capsys):
        first = workdir / "c1"
        second = workdir / "c2"
        assert run(capsys, "corpus", "--dir", first)[0] == 0
        assert run(capsys, "corpus", "--dir", second)[0] == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_expected_members(self, workdir, capsys):
        target = workdir / "corpus"
        run(capsys, "corpus", "--dir", target)
        names = {p.name for p in target.iterdir()}
        assert {
            "unknot.grp",
            "trefoil.grp",
            "torus_2_5.grp",
            "showcase.grp",
            "showcase_descended.grp",
            "showcase.rank.txt",
            "trefoil.alexander.txt",
            "splice_trefoil_trefoil.grp",
            "splice_without_incompressibility.txt",
        } <= names
        assert (target / "showcase.rank.txt").read_text() == "rank = 4\n"
        assert (target / "trefoil.alexander.txt").read_text() == "1 - t + t^2\n"
        assert "not applicable" in (
            target / "splice_without_incompressibility.txt"
        ).read_text()
        homology = (target / "splice_trefoil_trefoil.homology.txt").read_text()
        assert homology == "abelianization = trivial\n"

    def test_corpus_groups_reparse(self, workdir, capsys):
        target = workdir / "corpus"
        run(capsys, "corpus", "--dir", target)
        for path in sorted(target.glob("*.grp")):
            group = parse_group_file(path)
            assert group.presentation.generators

    def test_texts_are_built_once_per_process(self):
        files = corpus.corpus_files()
        assert corpus.corpus_files() is files
        assert files == corpus.corpus_files.__wrapped__()

    def test_texts_are_immutable_pairs(self):
        files = corpus.corpus_files()
        assert type(files) is tuple
        for entry in files:
            assert type(entry) is tuple
            assert [type(part) for part in entry] == [str, str]

    def test_pinned_bytes_and_order(self, workdir, capsys):
        target = workdir / "corpus"
        code, out, _ = run(capsys, "corpus", "--dir", target)
        assert code == 0
        assert out == "".join(f"wrote {target / name}\n" for name in CORPUS_DIGESTS)
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in target.iterdir()
        }
        assert written == CORPUS_DIGESTS


    def test_rewrites_only_the_files_that_differ(self, workdir, capsys):
        target = workdir / "corpus"
        run(capsys, "corpus", "--dir", target)
        names = list(CORPUS_DIGESTS)
        kinds = {names[0]: "missing", names[1]: "junk", names[2]: "not-utf-8"}
        for i, name in enumerate(names[3:]):
            kinds[name] = ("identical", "same-size", "shorter", "longer")[i % 4]
        inodes = {}
        for name, kind in kinds.items():
            path = target / name
            data = path.read_bytes()
            if kind == "missing":
                path.unlink()
                continue
            path.write_bytes({
                "identical": data,
                "same-size": data[:-2] + b"?\n",
                "shorter": data[:-1],
                "longer": data + b"# more\n",
                "junk": bytes(10 * 2**20),
                "not-utf-8": b"\xff" * len(data),
            }[kind])
            os.utime(path, ns=(0, 0))
            inodes[name] = path.stat().st_ino
        code, out, err = run(capsys, "corpus", "--dir", target)
        assert (code, out, err) == (0, "".join(f"wrote {target / n}\n" for n in names), "")
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in target.iterdir()
        }
        assert written == CORPUS_DIGESTS
        for name, kind in kinds.items():
            info = (target / name).stat()
            if kind == "identical":
                assert (info.st_mtime_ns, info.st_ino) == (0, inodes[name])
            else:
                assert info.st_mtime_ns != 0, (name, kind)

    def test_directory_in_place_of_a_member(self, workdir, capsys):
        target = workdir / "corpus"
        (target / "trefoil.grp").mkdir(parents=True)
        code, out, err = run(capsys, "corpus", "--dir", target)
        assert (code, out) == (1, f"wrote {target / 'unknot.grp'}\n")
        assert err.startswith(f"error: cannot write {target / 'trefoil.grp'}: [Errno 21]")


class TestPathSpelling:
    """A path is used and shown as the command line spells it, with no
    normalization of ``./``, ``//`` or a trailing ``/``."""

    @pytest.fixture
    def here(self, workdir, monkeypatch):
        (workdir / "sub").mkdir()
        for folder in (workdir, workdir / "sub"):
            (folder / "bad.grp").write_text("gen x\nrel x^0\n", encoding="utf-8")
        monkeypatch.chdir(workdir)
        return workdir

    @pytest.mark.parametrize("path", ["./bad.grp", "sub//bad.grp", "./sub/./bad.grp"])
    def test_group_file(self, here, capsys, path):
        assert run(capsys, "abelianize", path) == (
            1, "", f"error: {path}:2: zero exponent in token 'x^0'\n")
        missing = path.replace("bad", "nope")
        code, out, err = run(capsys, "abelianize", missing)
        assert (code, out) == (1, "")
        assert err == (f"error: cannot read {missing}: "
                       f"[Errno 2] No such file or directory: '{missing}'\n")

    @pytest.mark.parametrize("path", ["./out.grp", "sub//out.grp"])
    def test_output_file(self, here, capsys, path):
        argv = ["cable", "unknot.grp", "-p", "2", "-q", "3"]
        text = run(capsys, *argv)[1]
        assert run(capsys, *argv, "-o", path) == (0, "", "")
        assert (here / path).read_text(encoding="utf-8") == text
        target = path.replace("out.grp", "nodir/out.grp")
        code, out, err = run(capsys, *argv, "-o", target)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: [Errno 2]")

    def test_trailing_slash_on_a_file(self, here, capsys):
        # the slash stays, so the system refuses the path as a directory
        assert run(capsys, "abelianize", "unknot.grp/") == (
            1, "", "error: cannot read unknot.grp/: [Errno 20] Not a directory: 'unknot.grp/'\n")
        code, out, err = run(capsys, "cable", "unknot.grp", "-p", "2", "-q", "3",
                             "-o", "out.grp/")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write out.grp/: [Errno 21]")
        assert not (here / "out.grp").exists()

    @pytest.mark.parametrize("path, shown", [
        ("sub/s.spl", "sub/./bad.grp"),
        ("./sub//s.spl", "./sub/./bad.grp"),
        ("s.spl", "./bad.grp"),
    ])
    def test_factor_file(self, here, capsys, path, shown):
        for folder in (here, here / "sub"):
            (folder / "s.spl").write_text("amalgam A=./bad.grp B=B.grp\n", encoding="utf-8")
        assert run(capsys, "graph", path) == (
            1, "", f"error: {shown}:2: zero exponent in token 'x^0'\n")

    @pytest.mark.parametrize("folder, shown", [
        ("./sub/", "./sub/"), ("sub//deep", "sub//deep/"), ("", ""),
    ])
    def test_corpus_dir(self, here, capsys, folder, shown):
        code, out, err = run(capsys, "corpus", "--dir", folder)
        assert (code, out, err) == (
            0, "".join(f"wrote {shown}{name}\n" for name in CORPUS_DIGESTS), "")
        written = here / folder
        assert {name: hashlib.sha256((written / name).read_bytes()).hexdigest()
                for name in CORPUS_DIGESTS} == CORPUS_DIGESTS


def test_no_verb_builds_a_pathlib_path(workdir, capsys, monkeypatch):
    """The verbs read, write and name files without ``pathlib``: with
    ``pathlib.Path.__new__`` made to raise, each prints what it prints
    without.  The guarded run goes first, so ``corpus`` creates its
    directory and files under the guard."""
    (workdir / "p.inf").write_text("kind amalgam\npremise n_fg yes\n", encoding="utf-8")
    argvs = [[str(arg) for arg in argv] for argv in (
        ["report", workdir / "trefoil.grp"],
        ["alexander", workdir / "trefoil.grp"],
        ["fiber-rank", workdir / "showcase.grp"],
        ["graph", workdir / "trefoil.spl"],
        ["rank", workdir / "trefoil.spl", "--rank-a", "1", "--rank-b", "2"],
        ["infer", workdir / "p.inf"],
        ["corpus", "--dir", workdir / "corpus"],
    )]

    def refuse(cls, *args, **kwargs):
        raise AssertionError(f"pathlib.Path built from {args!r}")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "__new__", refuse)
        with pytest.raises(AssertionError):
            Path("guarded")
        guarded = [outcome(capsys, argv) for argv in argvs]
    assert guarded == [outcome(capsys, argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in guarded)


# SHA-256 of each corpus file, in the order the corpus verb writes them; the
# digests are those frozen in bench/golden/corpus_cli.json
CORPUS_DIGESTS = {
    "unknot.grp": "a97e3e37d185bc2e0542b7f138c8e9fec75cbd66866a533465fd486afc4e233d",
    "trefoil.grp": "c49cf3326f30f5c977bfcb1897dccab7df6c8b69aea6b6eded979415602c8de8",
    "torus_2_3.grp": "48fe22840db17e33a004ae892c1a9d6fdc21aa06b27c225fbb28488cc95acd4a",
    "torus_2_5.grp": "ddab052e89d69f69e65caff84e241db8ca75ae9dd816594520f61581143cb932",
    "torus_2_7.grp": "ec87f8a6c6c001ff2851e5cd38bc9b10c20cf2944360e29104c7c358f3f41271",
    "torus_3_4.grp": "a587cbd9cd507781188b2ca2e3d5387bf14ad48c00a2703257e17d77366b1341",
    "torus_3_5.grp": "1c6c62fe6a8ed3e519896c0014f474ba4f3568cdd18da339555d5150fd12b0f9",
    "torus_3_7.grp": "372a9d77632315f31cb75b7e57fd04b48fdc98a1864164dceb4112b2970b7ba8",
    "torus_4_5.grp": "61d5e8085f0b743759aadbded2492522b256076a360706c144f656c9bc3a4d53",
    "torus_4_7.grp": "b9f96c33bf834ae17b9bb4715c5098d3896d9ba88ff6bd3f5688f95e242cf6a0",
    "torus_5_6.grp": "6cfe1e1dd7b8161180bdd6f4a81d4d1fe2777a24b3cbfab4774c6391d00cf9ba",
    "torus_5_7.grp": "fd32c7c1a37ae1c797ce8edde596d1bd958da375fa3df5fd933a2ffe8f8ed734",
    "torus_6_7.grp": "da2589d31ff19126bde41c26dfb4a7717196018ab3d97e3da3a9f04ec6627d7e",
    "showcase.grp": "a52e34996e27f89ab97646803f911267cc3cf4c145095d11bf9ed72ff47c5c54",
    "showcase_descended.grp": "a071d8005b1fd2330bf11b846524a0655cdd1aee5df38bd7de40be6edabde933",
    "showcase.rank.txt": "8c90d54e4db54036c7b4c9e473402173b633cc015ffd8d9d9fb1ad74cef7ba5b",
    "trefoil.alexander.txt": "804032eea20eb6f5510c0a18cc3c0a9bc86531affcf859aebc0599de356a379d",
    "trefoil.report.txt": "f84d1b82d82fa45e51c3e8bd3a6a35d29cdf349e3e28a7787782dc8ad485b68f",
    "showcase.report.txt": "243086304aa106dffa02bb19675766cf44d87d7f270fdb7042884c4c3c2db506",
    "splice_trefoil_trefoil.grp": "909b0ef04897952cc92dd114cf912fac0d25ec05c0d3ad4dab7ca70d2b82d533",
    "splice_trefoil_trefoil.homology.txt": "9ed9e50534cc556246b6dbdd0182715d7689258dbd7cc84d5535eb7ebad3de84",
    "splice_without_incompressibility.txt": "54c807c7585de3002e3c368ecef9e2edb4c070763bf50cd3a8f3820d35d7e1b8",
}


# ---------------------------------------------------------------------------
# every verb on random files: an exit code, never an escaping exception

NAMES = st.sampled_from(["x", "y", "t", "u"])
EXPONENTS = st.integers(-3, 3).filter(bool)
NOISE = st.sampled_from(["# note", "", "frob x", "gen x^2", "rel x^0", "phi x", "edge inA=x"])


def _word(gens):
    return st.lists(st.tuples(st.sampled_from(gens), EXPONENTS), max_size=4).map(
        lambda sylls: " ".join(f"{g}^{e}" for g, e in sylls) or "1"
    )


def _phi(gens):
    return st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)).map(
        lambda values: "phi " + " ".join(f"{g}={v}" for g, v in zip(gens, values))
    )


@st.composite
def _file(draw, lines):
    """The given lines, some left out, plus noise, in a random order."""
    kept = [line for line in lines if draw(st.integers(0, 5))]
    kept += draw(st.lists(NOISE, max_size=1))
    return "\n".join(draw(st.permutations(kept))) + "\n"


@st.composite
def group_files(draw):
    gens = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    word = _word(gens)
    lines = ["group g", "gen " + " ".join(gens), draw(_phi(gens))]
    lines += [f"rel {w}" for w in draw(st.lists(word, max_size=2))]
    lines.append(f"peripheral meridian={draw(word)} longitude={draw(word)}")
    return draw(_file(lines))


@st.composite
def splitting_files(draw):
    """Splittings over the factors ``<x>`` (a.grp) and ``<y>`` (b.grp)."""
    if draw(st.booleans()):
        lines, keys, phi_gens = ["amalgam A=a.grp B=b.grp"], ("inA", "inB"), ["x", "y"]
        sides = (_word(["x"]), _word(["y"]))
    else:
        lines, keys, phi_gens = ["hnn A=a.grp stable=t"], ("inC", "inD"), ["x", "t"]
        sides = (_word(["x"]), _word(["x"]))
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"edge {keys[0]}={draw(sides[0])} {keys[1]}={draw(sides[1])}")
    lines.append(draw(_phi(phi_gens)))
    return draw(_file(lines))


@st.composite
def premise_files(draw):
    value = st.sampled_from(["yes", "no", "maybe"])
    lines = [draw(st.sampled_from(["kind amalgam", "kind hnn", "kind other"]))]
    lines.append(f"nontrivial {draw(value)}")
    for flag in draw(st.lists(st.sampled_from(FLAG_NAMES + ("bogus",)), max_size=4)):
        lines.append(f"premise {flag} {draw(value)}")
    return draw(_file(lines))


def _every_verb(directory, capsys, p, q):
    """Run each verb on the files in ``directory``; each must exit 0-3."""
    group = directory / "g.grp"
    argvs = [
        [verb, group] for verb in ("abelianize", "phi", "analyze", "fiber-rank", "alexander", "report")
    ] + [
        ["fiber-rank", group, "--nielsen", "u->u y"],
        ["cable", group, "-p", p, "-q", q],
        ["splice", group, group],
        ["graph", directory / "s.spl"],
        ["rank", directory / "s.spl", "--rank-a", 1, "--rank-b", 1],
        ["infer", directory / "p.inf"],
    ]
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert code == 0 or err.startswith("error: ")


FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestNoTraceback:
    @FUZZ
    @given(group_files(), splitting_files(), premise_files(), EXPONENTS, EXPONENTS)
    def test_structured_files(self, tmp_path, capsys, group, splitting, premises, p, q):
        (tmp_path / "g.grp").write_text(group, encoding="utf-8")
        (tmp_path / "a.grp").write_text("group A\ngen x\n", encoding="utf-8")
        (tmp_path / "b.grp").write_text("group B\ngen y\n", encoding="utf-8")
        (tmp_path / "s.spl").write_text(splitting, encoding="utf-8")
        (tmp_path / "p.inf").write_text(premises, encoding="utf-8")
        _every_verb(tmp_path, capsys, p, q)

    @FUZZ
    @given(st.binary(max_size=64))
    def test_raw_bytes(self, tmp_path, capsys, data):
        for name in ("g.grp", "a.grp", "b.grp", "s.spl", "p.inf"):
            (tmp_path / name).write_bytes(data)
        _every_verb(tmp_path, capsys, 1, 2)
