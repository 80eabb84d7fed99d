from math import gcd

import pytest
import sympy
from hypothesis import given, strategies as st

from fiberkit.corpus import torus_knot_data, trefoil_data
from fiberkit.errors import HypothesisError
from fiberkit.fox import (
    GroupRingElement,
    LaurentPoly,
    alexander_matrix,
    alexander_poly,
    fox_derivative,
    monic_degree_check,
)
from fiberkit.links import cable_group
from fiberkit.presentations import Presentation, ZMap, canonical_zmap
from fiberkit.words import Word, concat, reduce_word
from tests_support import (
    corpus_presentations,
    t_power_minus_one,
    torus_alexander_closed_form,
)


def w(*sylls):
    return Word.of(*sylls)


def lp(coeffs):
    return LaurentPoly.from_dict(coeffs)


GENS = ("x", "y")
syllable = st.tuples(st.sampled_from(GENS), st.integers(-3, 3).filter(bool))
words = st.lists(syllable, max_size=8).map(reduce_word)
laurent = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5).map(
    LaurentPoly.from_dict
)


@st.composite
def presentations_with_phi(draw):
    """1-3 generators, 0-3 relators with exponents in +-5, and a class with
    values in -4..4 (zero included) that need not kill the relators."""
    gens = ("x", "y", "z")[: draw(st.integers(1, 3))]
    syllables = st.tuples(st.sampled_from(gens), st.integers(-5, 5).filter(bool))
    relators = draw(
        st.lists(st.lists(syllables, max_size=8).map(reduce_word), max_size=3)
    )
    phi = ZMap({g: draw(st.integers(-4, 4)) for g in gens})
    return Presentation(gens, tuple(relators)), phi


def sympy_divides(num, den):
    """True iff ``den`` divides ``num`` in Z[t, t^-1], decided by sympy
    division over Q after shifting both to ordinary polynomials."""
    t = sympy.Symbol("t")

    def ordinary(poly):
        return sympy.Poly(
            sum(c * t ** (e - poly.min_exp) for e, c in poly.terms), t, domain="QQ"
        )

    quotient, remainder = sympy.div(ordinary(num), ordinary(den))
    return remainder.is_zero and all(c.is_integer for c in quotient.coeffs())


class TestLaurentPoly:
    def test_arithmetic(self):
        a = lp({0: 1, 1: -1})
        b = lp({0: 1, 1: 1})
        assert a * b == lp({0: 1, 2: -1})
        assert a + b == lp({0: 2})
        assert (a - a).is_zero

    def test_normalize(self):
        assert lp({-1: -1, 1: -1, 3: -1}).normalize() == lp({0: 1, 2: 1, 4: 1})
        assert lp({2: 5}).normalize() == lp({0: 5})

    def test_exact_div(self):
        product = lp({0: -1, 3: 1})
        assert product.exact_div(lp({0: -1, 1: 1})) == lp({0: 1, 1: 1, 2: 1})

    def test_inexact_div_rejected(self):
        with pytest.raises(HypothesisError, match="not exact"):
            lp({0: 1, 1: 1}).exact_div(lp({0: 2}))

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            lp({0: 1, 1: 1}).exact_div(LaurentPoly())
        with pytest.raises(ZeroDivisionError):
            LaurentPoly().exact_div(LaurentPoly())

    @given(laurent, laurent.filter(lambda p: not p.is_zero), st.booleans())
    def test_exact_div_matches_sympy(self, a, divisor, multiply):
        # half the draws are exact by construction
        dividend = a * divisor if multiply else a
        if dividend.is_zero:
            assert dividend.exact_div(divisor).is_zero
            return
        if sympy_divides(dividend, divisor):
            assert dividend.exact_div(divisor) * divisor == dividend
        else:
            with pytest.raises(HypothesisError, match="not exact"):
                dividend.exact_div(divisor)

    def test_str_ascending(self):
        assert str(lp({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
        assert str(lp({0: -1, 2: 3})) == "-1 + 3t^2"
        assert str(LaurentPoly()) == "0"
        assert str(lp({1: 1})) == "t"


class TestFoxDerivative:
    def test_square(self):
        assert fox_derivative(w(("x", 2)), "x") == GroupRingElement.from_dict(
            {Word(): 1, Word.gen("x"): 1}
        )

    def test_trefoil_x(self):
        assert fox_derivative(w(("x", 2), ("y", -3)), "x") == (
            GroupRingElement.from_dict({Word(): 1, Word.gen("x"): 1})
        )

    def test_trefoil_y(self):
        # frozen from expanding the product rule by hand
        expected = GroupRingElement.from_dict(
            {
                w(("x", 2), ("y", -1)): -1,
                w(("x", 2), ("y", -2)): -1,
                w(("x", 2), ("y", -3)): -1,
            }
        )
        assert fox_derivative(w(("x", 2), ("y", -3)), "y") == expected

    @given(words, words, st.sampled_from(GENS))
    def test_product_rule(self, u, v, g):
        left = fox_derivative(concat(u, v), g)
        right = fox_derivative(u, g) + fox_derivative(v, g).left_mul(u)
        assert left == right

    @given(words, st.sampled_from(GENS))
    def test_inverse_rule(self, u, g):
        # D(u^-1) = -u^-1 D(u)
        left = fox_derivative(u.inverse(), g)
        right = (-fox_derivative(u, g)).left_mul(u.inverse())
        assert left == right


class TestFundamentalIdentity:
    def test_holds_on_corpus(self):
        for name, pres, phi in corpus_presentations():
            for relator in pres.relators:
                total = LaurentPoly()
                for g in pres.generators:
                    derivative = fox_derivative(relator, g).specialize(phi)
                    total = total + derivative * t_power_minus_one(phi.values[g])
                assert total.is_zero, name


class TestAlexanderPoly:
    def test_trefoil_against_closed_form(self):
        data = torus_knot_data(2, 3)
        delta = alexander_poly(data.presentation, data.phi)
        assert delta == torus_alexander_closed_form(2, 3)
        assert str(delta) == "1 - t + t^2"

    def test_column_choice_is_immaterial(self):
        # deleting the y column instead of the x column gives the same
        # normalized polynomial; checked by flipping generator order
        pres = Presentation(("y", "x"), (w(("x", 2), ("y", -3)),))
        delta = alexander_poly(pres, ZMap({"x": 3, "y": 2}))
        assert delta == torus_alexander_closed_form(2, 3)

    def test_unknot(self):
        delta = alexander_poly(Presentation(("x",)), ZMap({"x": 1}))
        assert delta == LaurentPoly.const(1)

    def test_showcase_monic_degree_four(self):
        pres = Presentation(("x", "y"), (w(("x", 2), ("y", 2), ("x", 2), ("y", -1)),))
        delta = alexander_poly(pres, canonical_zmap(pres))
        assert delta == lp({0: 1, 2: -1, 4: 1})
        assert monic_degree_check(delta, 4)

    def test_free_group_order_vanishes(self):
        delta = alexander_poly(Presentation(("x", "y")), ZMap({"x": 1, "y": 0}))
        assert delta.is_zero

    def test_deficiency_zero_rejected(self):
        commutator = w(("x", 1), ("y", 1), ("x", -1), ("y", -1))
        conjugated = concat(Word.gen("y"), commutator, Word.gen("y", -1))
        pres = Presentation(("x", "y"), (commutator, conjugated))
        with pytest.raises(HypothesisError, match="deficiency"):
            alexander_poly(pres, ZMap({"x": 1, "y": 0}))

    def test_trivial_class_rejected(self):
        with pytest.raises(HypothesisError):
            alexander_poly(Presentation(("x",)), ZMap({"x": 0}))

    def test_invariant_under_conjugation_and_inversion(self):
        base = w(("x", 2), ("y", -3))
        phi = ZMap({"x": 3, "y": 2})
        expected = alexander_poly(Presentation(("x", "y"), (base,)), phi)
        conjugated = concat(Word.gen("y"), base, Word.gen("y", -1))
        for relator in (conjugated, base.inverse()):
            pres = Presentation(("x", "y"), (relator,))
            assert alexander_poly(pres, phi) == expected

    def test_value_at_one_counts_torsion(self):
        # knot-like groups evaluate to a unit; the Z + Z/2 example to 2
        for name, pres, phi in corpus_presentations():
            if name in ("free-abelian",):
                continue
            delta = alexander_poly(pres, phi)
            if name == "torsion-2":
                assert abs(delta.evaluate_at_one()) == 2
            elif not delta.is_zero:
                assert abs(delta.evaluate_at_one()) == 1, name

    def test_torus_sweep_matches_closed_form(self):
        for p in range(2, 8):
            for q in range(p + 1, 8):
                if gcd(p, q) != 1:
                    continue
                data = torus_knot_data(p, q)
                delta = alexander_poly(data.presentation, data.phi)
                assert delta == torus_alexander_closed_form(p, q)
                assert monic_degree_check(delta, (p - 1) * (q - 1))

    def test_iterated_trefoil_cables_match_closed_form(self):
        # a (p, q) cable winds q times around its companion K, so
        # Delta = Delta_K(t^q) * Delta_T(p,q)(t)
        cables = ((1, 2), (3, 2), (1, 2), (3, 2), (1, 2), (3, 2), (1, 2))
        degrees = (4, 10, 20, 42, 84, 170, 340)
        knot = trefoil_data()
        expected = torus_alexander_closed_form(2, 3)
        for (p, q), degree in zip(cables, degrees):
            knot = cable_group(knot, p, q)
            companion = lp({q * e: c for e, c in expected.terms})
            expected = (companion * torus_alexander_closed_form(p, q)).normalize()
            delta = alexander_poly(knot.presentation, knot.phi)
            assert delta == expected, knot.name
            assert delta.span == degree, knot.name


class TestMonicDegreeCheck:
    def test_trefoil(self):
        assert monic_degree_check(lp({0: 1, 1: -1, 2: 1}), 2)

    def test_unknot(self):
        assert monic_degree_check(LaurentPoly.const(1), 0)

    def test_non_monic(self):
        assert not monic_degree_check(lp({0: -1, 1: 2}), 1)

    def test_wrong_degree(self):
        assert not monic_degree_check(lp({0: 1, 1: -1, 2: 1}), 3)

    def test_zero(self):
        assert not monic_degree_check(LaurentPoly(), 0)


class TestAlexanderMatrix:
    @given(presentations_with_phi())
    def test_matches_word_level_fox(self, pres_phi):
        pres, phi = pres_phi
        assert alexander_matrix(pres, phi) == [
            [fox_derivative(r, g).specialize(phi) for g in pres.generators]
            for r in pres.relators
        ]

    def test_shape(self):
        pres = Presentation(("x", "y"), (w(("x", 2), ("y", -3)),))
        matrix = alexander_matrix(pres, ZMap({"x": 3, "y": 2}))
        assert len(matrix) == 1 and len(matrix[0]) == 2
        assert matrix[0][0] == lp({0: 1, 3: 1})
        assert matrix[0][1] == lp({0: -1, 2: -1, 4: -1})
