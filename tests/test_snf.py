import random

import pytest
import sympy
from hypothesis import given, strategies as st
from sympy.matrices.normalforms import invariant_factors

from fiberkit.snf import smith_normal_form, xgcd
from tests_support import int_det, minor_gcd


def check_invariants(matrix):
    entries = smith_normal_form(matrix)
    assert len(entries) == min(len(matrix), len(matrix[0]))
    assert all(type(d) is int and d >= 0 for d in entries)
    nonzero = [d for d in entries if d]
    assert entries == nonzero + [0] * (len(entries) - len(nonzero))
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return entries


class TestXgcd:
    @given(st.integers(-50, 50), st.integers(-50, 50))
    def test_bezout(self, a, b):
        g, s, t = xgcd(a, b)
        assert g >= 0
        assert s * a + t * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


class TestSmithNormalForm:
    def test_input_left_unchanged(self):
        matrix = [[4, 6], [6, 9]]
        assert check_invariants(matrix) == [1, 0]
        assert matrix == [[4, 6], [6, 9]]

    def test_single_row_coprime(self):
        # oracle: gcd of (4, 1) is 1, so the diagonal is (1)
        assert check_invariants([[4, 1]]) == [1]

    def test_single_row_trefoil(self):
        assert check_invariants([[2, -3]]) == [1]

    def test_diag_with_torsion(self):
        assert check_invariants([[2, 0], [0, 4]]) == [2, 4]

    def test_needs_divisibility_fix(self):
        # entries (2, 3) on the diagonal must become (1, 6)
        assert check_invariants([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert check_invariants([[0, 0], [0, 0]]) == [0, 0]

    def test_empty_matrix(self):
        assert smith_normal_form([]) == []
        assert smith_normal_form([[], []]) == []

    def test_unit_trick_row_cycle_terminates(self):
        # this matrix once drove the pivot loop into a row rotation cycle
        matrix = [[2, -3, 0, 0], [0, 0, 2, -3], [1, -1, 4, -6], [-4, 6, -1, 1]]
        assert check_invariants(matrix) == [1, 1, 1, 1]

    def test_reference_1000_random(self):
        # acceptance 7 compares matrices up to 8 x 8 with sympy; these are
        # 9 x 9 to 12 x 12, from a seed of their own
        rng = random.Random(90210)
        for _ in range(1000):
            rows = rng.randint(9, 12)
            cols = rng.randint(9, 12)
            matrix = [
                [rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)
            ]
            check_invariants(matrix)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda m: len({len(r) for r in m}) == 1)
    )
    def test_property(self, matrix):
        # oracle: d_1...d_k is the gcd of all k x k minors
        entries = check_invariants(matrix)
        product = 1
        for k, d in enumerate(entries, start=1):
            product *= d
            assert product == minor_gcd(matrix, k)

    @given(
        st.integers(1, 5).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_matches_sympy_invariant_factors(self, matrix):
        expected = invariant_factors(sympy.Matrix(matrix), domain=sympy.ZZ)
        assert check_invariants(matrix) == [int(d) for d in expected]


class TestIntDet:
    def test_known(self):
        assert int_det([[2, 1], [1, 1]]) == 1
        assert int_det([[0, 1], [1, 0]]) == -1
        assert int_det([]) == 1

    def test_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0

    @given(
        st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3)
    )
    def test_matches_cofactor_expansion(self, m):
        expected = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert int_det(m) == expected
