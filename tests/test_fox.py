from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fiberkit.corpus import torus_knot_data, trefoil_data
from fiberkit import fox
from fiberkit.errors import HypothesisError
from fiberkit.fox import (
    WALK_BOUND,
    GroupRingElement,
    LaurentPoly,
    alexander_matrix,
    alexander_poly,
    fox_derivative,
)
from fiberkit.links import cable_group
from fiberkit.presentations import Presentation, ZMap, canonical_zmap, zmap_validate
from fiberkit.words import Word, concat, reduce_word
from tests_support import (
    corpus_presentations,
    evaluate_at_one,
    monic_degree_check,
    sympy_alexander_polys,
    t_power_minus_one,
    torus_alexander_closed_form,
)


def w(*sylls):
    return Word.of(*sylls)


def lp(coeffs):
    return LaurentPoly.from_dict(coeffs)


def left_mul(word, element):
    """``word * element`` in the group ring."""
    out = {}
    for v, k in element.terms:
        prod = word * v
        out[prod] = out.get(prod, 0) + k
    return GroupRingElement.from_dict(out)


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

    def test_quotient_terms_up_to_the_bound(self, monkeypatch):
        # (t^6 - 1) / (t - 1) = 1 + t + ... + t^5, six quotient terms
        product = lp({0: -1, 6: 1})
        monkeypatch.setattr(fox, "QUOTIENT_BOUND", 6)
        assert product.exact_div(lp({0: -1, 1: 1})) == lp(dict.fromkeys(range(6), 1))
        monkeypatch.setattr(fox, "QUOTIENT_BOUND", 5)
        with pytest.raises(HypothesisError, match="more than 5 terms"):
            product.exact_div(lp({0: -1, 1: 1}))

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
        right = fox_derivative(u, g) + left_mul(u, fox_derivative(v, g))
        assert left == right

    @given(words, st.sampled_from(GENS))
    def test_inverse_rule(self, u, g):
        # D(u^-1) = -u^-1 D(u)
        left = fox_derivative(u.inverse(), g)
        right = left_mul(u.inverse(), -fox_derivative(u, g))
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
                assert abs(evaluate_at_one(delta)) == 2
            elif not delta.is_zero:
                assert abs(evaluate_at_one(delta)) == 1, name

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


@st.composite
def presentations_with_killing_phi(draw):
    """2-3 generators, 1-3 relators (mostly one fewer than generators) with
    exponents in +-3, and a primitive class in the kernel of the
    exponent-sum matrix (any class when there is none)."""
    gens = ("x", "y", "z")[: draw(st.integers(2, 3))]
    syllables = st.tuples(st.sampled_from(gens), st.integers(-3, 3).filter(bool))
    count = draw(st.just(len(gens) - 1) | st.integers(1, 3))
    relators = [
        draw(st.lists(syllables, max_size=6).map(reduce_word)) for _ in range(count)
    ]
    pres = Presentation(gens, tuple(relators))
    values = [draw(st.integers(-3, 3)) for _ in gens]
    kernel = sympy.Matrix(pres.exponent_matrix()).nullspace()
    if kernel:
        combo = sum(
            (draw(st.integers(-2, 2)) * v for v in kernel[1:]), kernel[0]
        )
        scale = sympy.ilcm(*(sympy.fraction(c)[1] for c in combo))
        values = [int(c * scale) for c in combo]
    d = gcd(*values)
    return pres, ZMap({g: v // d if d else 0 for g, v in zip(gens, values)})


class TestAlexanderPolySympyOracle:
    @settings(max_examples=100, deadline=None)
    @given(presentations_with_killing_phi())
    def test_matches_sympy_minor_determinants(self, pres_phi):
        pres, phi = pres_phi
        n, k = len(pres.generators), len(pres.relators)
        if k >= n or phi.image_gcd() == 0 or not zmap_validate(phi, pres):
            with pytest.raises(HypothesisError):
                alexander_poly(pres, phi)
            return
        delta = alexander_poly(pres, phi)
        if k < n - 1:
            assert delta.is_zero
            return
        expected = sympy_alexander_polys(pres, phi)
        assert expected
        assert all(dict(delta.terms) == poly for poly in expected)


class TestAlexanderMatrix:
    @given(presentations_with_phi())
    def test_matches_word_level_fox(self, pres_phi):
        pres, phi = pres_phi
        assert alexander_matrix(pres, phi) == [
            [fox_derivative(r, g).specialize(phi) for g in pres.generators]
            for r in pres.relators
        ]

    @given(presentations_with_phi(), st.data())
    def test_omit_leaves_out_exactly_that_column(self, pres_phi, data):
        pres, phi = pres_phi
        j = data.draw(st.integers(0, len(pres.generators) - 1))
        full = alexander_matrix(pres, phi)
        assert alexander_matrix(pres, phi, omit=pres.generators[j]) == [
            row[:j] + row[j + 1:] for row in full
        ]

    def test_shape(self):
        pres = Presentation(("x", "y"), (w(("x", 2), ("y", -3)),))
        matrix = alexander_matrix(pres, ZMap({"x": 3, "y": 2}))
        assert len(matrix) == 1 and len(matrix[0]) == 2
        assert matrix[0][0] == lp({0: 1, 3: 1})
        assert matrix[0][1] == lp({0: -1, 2: -1, 4: -1})

    def test_walks_add_up_to_the_bound(self):
        half = WALK_BOUND // 2
        phi = ZMap({"x": 1, "y": 1})

        def relators(rest):
            return Presentation(("x", "y"), (w(("y", half)), w(("y", -rest))))

        matrix = alexander_matrix(relators(WALK_BOUND - half), phi, omit="x")
        assert [len(row[0].terms) for row in matrix] == [half, WALK_BOUND - half]
        with pytest.raises(HypothesisError, match=f"more than {WALK_BOUND} terms"):
            alexander_matrix(relators(WALK_BOUND - half + 1), phi, omit="x")

    def test_products_add_up_to_the_bound(self, monkeypatch):
        # Jacobian [[P, 0, 0], [0, P, t^2], [0, t^2, P]] with P = 1 + t: the
        # minor P * P - t^2 * t^2 = 1 + 2t + t^2 - t^4 multiplies 2 * 2 + 1 * 1
        # pairs of terms, and P times it 2 * 4 more, 13 in all
        pres = Presentation(("x", "y", "z", "u"), (
            w(("y", 2), ("x", -2)), w(("z", 2), ("u", 1), ("x", -3)),
            w(("u", 2), ("z", 1), ("x", -3)),
        ))
        phi = ZMap({"x": 1, "y": 1, "z": 1, "u": 1})
        matrix = alexander_matrix(pres, phi, omit="x")
        assert [[len(entry.terms) for entry in row] for row in matrix] == [
            [2, 0, 0], [0, 2, 1], [0, 1, 2]]
        monkeypatch.setattr(fox, "PRODUCT_BOUND", 13)
        assert alexander_poly(pres, phi) == lp({0: -1, 1: -3, 2: -3, 3: -1, 4: 1, 5: 1})
        monkeypatch.setattr(fox, "PRODUCT_BOUND", 12)
        with pytest.raises(HypothesisError, match="more than 12 pairs of terms"):
            alexander_poly(pres, phi)

    def test_minors_add_up_to_the_bound(self, monkeypatch):
        # the Jacobian above: the 3 x 3 matrix, the minor of its one nonzero
        # first-row entry, and the two 1 x 1 minors of that are 4 in all
        pres = Presentation(("x", "y", "z", "u"), (
            w(("y", 2), ("x", -2)), w(("z", 2), ("u", 1), ("x", -3)),
            w(("u", 2), ("z", 1), ("x", -3)),
        ))
        phi = ZMap({"x": 1, "y": 1, "z": 1, "u": 1})
        monkeypatch.setattr(fox, "MINOR_BOUND", 4)
        assert alexander_poly(pres, phi) == lp({0: -1, 1: -3, 2: -3, 3: -1, 4: 1, 5: 1})
        monkeypatch.setattr(fox, "MINOR_BOUND", 3)
        with pytest.raises(HypothesisError, match="more than 3 minors"):
            alexander_poly(pres, phi)

    def test_single_letters_and_class_zero_powers_walk_free(self):
        relator = w(*[("y", 1), ("x", -1)] * (WALK_BOUND + 1), ("z", 10 ** 9))
        pres = Presentation(("x", "y", "z"), (relator,))
        matrix = alexander_matrix(pres, ZMap({"x": 1, "y": 1, "z": 0}), omit="x")
        assert matrix == [[lp({0: WALK_BOUND + 1}), lp({0: 10 ** 9})]]
