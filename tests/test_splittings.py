import math
import random

import pytest

from fiberkit.errors import HypothesisError
from fiberkit.presentations import Presentation, ZMap
from fiberkit.splittings import (
    AMALGAM,
    HNN,
    Splitting,
    coset_graph,
    free_kernel_rank,
    kernel_indices,
)
from fiberkit.words import Word


def torus_splitting(p, q):
    return Splitting(
        AMALGAM,
        Presentation(("x",)),
        Presentation(("y",)),
        (Word.gen("x", p),),
        (Word.gen("y", q),),
    )


TREFOIL_SPLIT = torus_splitting(2, 3)
TREFOIL_PHI = ZMap({"x": 3, "y": 2})

# the showcase group as <x> glued to H = <u, y | u y^2 u y^-1> along x^2 = u
SHOWCASE_SPLIT = Splitting(
    AMALGAM,
    Presentation(("x",)),
    Presentation(("u", "y"), (Word.of(("u", 1), ("y", 2), ("u", 1), ("y", -1)),)),
    (Word.gen("x", 2),),
    (Word.gen("u", 1),),
)
SHOWCASE_PHI = ZMap({"x": -1, "u": -2, "y": 4})


class TestSplittingValidation:
    def test_edge_lists_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            Splitting(
                AMALGAM,
                Presentation(("x",)),
                Presentation(("y",)),
                (Word.gen("x"),),
                (),
            )

    def test_stable_letter_fresh(self):
        with pytest.raises(ValueError, match="collides"):
            Splitting(HNN, Presentation(("x",)), None, (), (), stable_letter="x")

    def test_edge_words_over_correct_factor(self):
        with pytest.raises(ValueError, match="factor A"):
            Splitting(
                AMALGAM,
                Presentation(("x",)),
                Presentation(("y",)),
                (Word.gen("y"),),
                (Word.gen("y"),),
            )

    def test_assembled_hnn(self):
        split = Splitting(
            HNN,
            Presentation(("x",)),
            None,
            (Word.gen("x", 2),),
            (Word.gen("x", 2),),
            stable_letter="t",
        )
        assembled = split.assembled()
        assert assembled.generators == ("x", "t")
        assert assembled.relators == (
            Word.of(("t", 1), ("x", 2), ("t", -1), ("x", -2)),
        )


class TestKernelIndices:
    def test_trefoil(self):
        # oracle by hand: phi(A) = 3Z, phi(B) = 2Z, phi(C) = 6Z inside Z
        assert kernel_indices(TREFOIL_SPLIT, TREFOIL_PHI) == (3, 2, 6)

    def test_showcase_splitting(self):
        assert kernel_indices(SHOWCASE_SPLIT, SHOWCASE_PHI) == (1, 2, 2)

    def test_free_product_infinite(self):
        split = Splitting(HNN, Presentation(("a",)), None, (), (), stable_letter="t")
        a_idx, b_idx, c_idx = kernel_indices(split, ZMap({"a": 0, "t": 1}))
        assert a_idx == math.inf
        assert b_idx is None
        assert c_idx == math.inf

    def test_trivial_map_rejected(self):
        with pytest.raises(HypothesisError, match="indices undefined"):
            kernel_indices(TREFOIL_SPLIT, ZMap({"x": 0, "y": 0}))

    def test_invalid_map_rejected(self):
        with pytest.raises(HypothesisError):
            kernel_indices(TREFOIL_SPLIT, ZMap({"x": 1, "y": 1}))

    def test_unnormalized_map_rescaled(self):
        assert kernel_indices(TREFOIL_SPLIT, ZMap({"x": 6, "y": 4})) == (3, 2, 6)

    def test_edge_index_common_multiple(self):
        a_idx, b_idx, c_idx = kernel_indices(TREFOIL_SPLIT, TREFOIL_PHI)
        assert c_idx % a_idx == 0
        assert c_idx % b_idx == 0


class TestCosetGraph:
    def test_trefoil_graph_explicit(self):
        graph = coset_graph(TREFOIL_SPLIT, TREFOIL_PHI)
        assert graph.vertex_count == 5
        assert graph.edge_count == 6
        assert graph.euler_characteristic == -1
        # oracle: explicit residue enumeration of all six edges
        assert graph.edges == (
            (0, ("A", 0), ("B", 0)),
            (1, ("A", 1), ("B", 1)),
            (2, ("A", 2), ("B", 0)),
            (3, ("A", 0), ("B", 1)),
            (4, ("A", 1), ("B", 0)),
            (5, ("A", 2), ("B", 1)),
        )
        assert graph.is_connected()

    def test_tree_case(self):
        split = torus_splitting(1, 1)
        graph = coset_graph(split, ZMap({"x": 1, "y": 1}))
        assert graph.vertex_count == 2
        assert graph.edge_count == 1
        assert graph.euler_characteristic == 1

    def test_showcase_graph_is_tree(self):
        graph = coset_graph(SHOWCASE_SPLIT, SHOWCASE_PHI)
        assert (graph.a_idx, graph.b_idx, graph.c_idx) == (1, 2, 2)
        assert graph.vertex_count == 3
        assert graph.edge_count == 2
        assert graph.euler_characteristic == 1

    def test_infinite_rejected(self):
        split = Splitting(HNN, Presentation(("a",)), None, (), (), stable_letter="t")
        with pytest.raises(HypothesisError, match="infinite"):
            coset_graph(split, ZMap({"a": 0, "t": 1}))

    def test_hnn_loops(self):
        # <x, t | t x^2 t^-1 = x^2> with phi(x)=1, phi(t)=0: one vertex,
        # two loop edges
        split = Splitting(
            HNN,
            Presentation(("x",)),
            None,
            (Word.gen("x", 2),),
            (Word.gen("x", 2),),
            stable_letter="t",
        )
        graph = coset_graph(split, ZMap({"x": 1, "t": 0}))
        assert graph.vertex_count == 1
        assert graph.edge_count == 2
        assert graph.euler_characteristic == -1

    def test_chi_equals_vertices_minus_edges(self):
        for split, phi in (
            (TREFOIL_SPLIT, TREFOIL_PHI),
            (SHOWCASE_SPLIT, SHOWCASE_PHI),
            (torus_splitting(3, 5), ZMap({"x": 5, "y": 3})),
        ):
            graph = coset_graph(split, phi)
            assert graph.euler_characteristic == graph.vertex_count - graph.edge_count


class TestFreeKernelRank:
    def test_trefoil(self):
        assert free_kernel_rank(AMALGAM, 3, 2, 6, 0, 0) == 2

    def test_tree_grushko(self):
        for r, s in ((0, 0), (1, 2), (3, 5)):
            assert free_kernel_rank(AMALGAM, 1, 1, 1, r, s) == r + s

    def test_showcase_instance(self):
        assert free_kernel_rank(AMALGAM, 1, 2, 2, 0, 2) == 4

    def test_graph_cross_check(self):
        graph = coset_graph(TREFOIL_SPLIT, TREFOIL_PHI)
        rank = free_kernel_rank(AMALGAM, graph.a_idx, graph.b_idx, graph.c_idx, 0, 0)
        assert rank == 1 - graph.euler_characteristic == 2

    def test_hnn_direct_product(self):
        # Z x Z as an HNN extension of Z over itself: kernel is Z, rank 1
        assert free_kernel_rank(HNN, 1, None, 1, 0) == 1

    def test_hnn_two_conjugates(self):
        # <x, t | t x^2 t^-1 = x^2>, phi = (1, 0): the kernel is free on
        # the two distinct conjugates of t, matching 1 - chi of the graph
        split = Splitting(
            HNN,
            Presentation(("x",)),
            None,
            (Word.gen("x", 2),),
            (Word.gen("x", 2),),
            stable_letter="t",
        )
        graph = coset_graph(split, ZMap({"x": 1, "t": 0}))
        assert free_kernel_rank(HNN, 1, None, 2, 0) == 2
        assert 1 - graph.euler_characteristic == 2

    def test_negative_rejected(self):
        with pytest.raises(HypothesisError, match="inconsistent"):
            free_kernel_rank(AMALGAM, 5, 5, 1, 0, 0)

    def test_infinite_rejected(self):
        with pytest.raises(HypothesisError):
            free_kernel_rank(AMALGAM, math.inf, 2, 6, 0, 0)

    def test_free_part_is_one_minus_chi(self):
        for split, phi in (
            (TREFOIL_SPLIT, TREFOIL_PHI),
            (torus_splitting(4, 7), ZMap({"x": 7, "y": 4})),
        ):
            a, b, c = kernel_indices(split, phi)
            graph = coset_graph(split, phi)
            rank = free_kernel_rank(split.kind, a, b, c, 0, 0)
            assert rank == 1 - graph.euler_characteristic


from tests_support import random_realizable_splitting


class TestRandomGraphs:
    def test_connectivity_sample(self):
        rng = random.Random(11)
        for _ in range(200):
            split, phi = random_realizable_splitting(rng)
            graph = coset_graph(split, phi)
            assert graph.is_connected()
            assert graph.euler_characteristic == graph.vertex_count - graph.edge_count
