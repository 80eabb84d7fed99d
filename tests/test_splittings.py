import copy
import math
import pickle
import random
import time

import pytest

from fiberkit.errors import HypothesisError
from fiberkit.presentations import Presentation, ZMap
from fiberkit.splittings import (
    AMALGAM,
    HNN,
    CosetGraph,
    Splitting,
    coset_graph,
    free_kernel_rank,
    kernel_indices,
)
from fiberkit.words import Word
from tests_support import is_connected, random_realizable_splitting


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


HNN_SPLIT = Splitting(
    HNN, Presentation(("a",)), None, (Word.gen("a", 2),), (Word.gen("a", 3),), "t"
)
SPLIT_FIELDS = ("kind", "factor_a", "factor_b", "edges_a", "edges_b", "stable_letter")


X, Y = Presentation(("x",)), Presentation(("y",))


class TestSplittingValueContract:
    @pytest.mark.parametrize("args, message", [
        (("free", X), "unknown splitting kind 'free'"),
        ((AMALGAM, X), "amalgam needs factor B and no stable letter"),
        ((AMALGAM, X, Y, (), (), "t"), "amalgam needs factor B and no stable letter"),
        ((AMALGAM, X, Y, (Word.gen("x"),), (Word.gen("x"),)),
         "edge word x not over factor B"),
        ((HNN, X, Y, (), (), "t"), "HNN extension has a single factor"),
        ((HNN, X), "HNN extension needs a stable letter"),
        ((HNN, X, None, (Word.gen("y"),), (Word.gen("x"),), "t"),
         "edge word y not over the factor"),
    ])
    def test_constructor_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            Splitting(*args)
        assert str(info.value) == message

    def test_assignment_and_deletion_raise(self):
        for attr in SPLIT_FIELDS:
            with pytest.raises(AttributeError):
                setattr(TREFOIL_SPLIT, attr, None)
            with pytest.raises(AttributeError):
                delattr(TREFOIL_SPLIT, attr)
        with pytest.raises(AttributeError):
            TREFOIL_SPLIT.extra = 1
        assert TREFOIL_SPLIT == torus_splitting(2, 3)

    def test_hash_is_hash_of_compared_fields(self):
        for split in (TREFOIL_SPLIT, SHOWCASE_SPLIT, HNN_SPLIT):
            assert hash(split) == hash(tuple(getattr(split, f) for f in SPLIT_FIELDS))

    def test_equality(self):
        assert TREFOIL_SPLIT == torus_splitting(2, 3)
        assert TREFOIL_SPLIT != torus_splitting(3, 2)
        assert TREFOIL_SPLIT != tuple(getattr(TREFOIL_SPLIT, f) for f in SPLIT_FIELDS)

    def test_repr(self):
        assert repr(TREFOIL_SPLIT) == (
            "Splitting(kind='amalgam', factor_a=Presentation(generators=('x',), "
            "relators=()), factor_b=Presentation(generators=('y',), relators=()), "
            "edges_a=(Word('x^2'),), edges_b=(Word('y^3'),), stable_letter=None)"
        )
        assert repr(HNN_SPLIT) == (
            "Splitting(kind='hnn', factor_a=Presentation(generators=('a',), "
            "relators=()), factor_b=None, edges_a=(Word('a^2'),), "
            "edges_b=(Word('a^3'),), stable_letter='t')"
        )

    def test_copy_and_pickle_rebuild_an_equal_splitting(self):
        for split in (SHOWCASE_SPLIT, HNN_SPLIT):
            for twin in (copy.copy(split), copy.deepcopy(split),
                         pickle.loads(pickle.dumps(split))):
                assert twin == split


class TestKernelIndices:
    def test_trefoil(self):
        # oracle by hand: phi(A) = 3Z, phi(B) = 2Z, phi(C) = 6Z inside Z
        assert kernel_indices(TREFOIL_SPLIT, TREFOIL_PHI) == (3, 2, 6)

    def test_showcase_splitting(self):
        assert kernel_indices(SHOWCASE_SPLIT, SHOWCASE_PHI) == (1, 2, 2)

    def test_free_product_infinite(self):
        split = Splitting(HNN, Presentation(("a",)), None, (), (), stable_letter="t")
        a_idx, b_idx, c_idx = kernel_indices(split, ZMap({"a": 0, "t": 1}))
        assert a_idx == 0
        assert b_idx is None
        assert c_idx == 0

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
        assert is_connected(graph)

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

    def test_negative_factor_rank_rejected(self):
        # each total (9, 15, 1) is nonnegative and would pass as a rank
        for args in (
            (AMALGAM, 3, 2, 6, -1, 5),
            (AMALGAM, 3, 2, 6, 5, -1),
            (HNN, 1, None, 2, -1),
        ):
            with pytest.raises(HypothesisError, match="factor ranks must be nonnegative"):
                free_kernel_rank(*args)

    def test_infinite_rejected(self):
        with pytest.raises(HypothesisError):
            free_kernel_rank(AMALGAM, 0, 2, 6, 0, 0)

    def test_free_part_is_one_minus_chi(self):
        for split, phi in (
            (TREFOIL_SPLIT, TREFOIL_PHI),
            (torus_splitting(4, 7), ZMap({"x": 7, "y": 4})),
        ):
            a, b, c = kernel_indices(split, phi)
            graph = coset_graph(split, phi)
            rank = free_kernel_rank(split.kind, a, b, c, 0, 0)
            assert rank == 1 - graph.euler_characteristic


class TestRandomGraphs:
    def test_connectivity_sample(self):
        rng = random.Random(11)
        for _ in range(200):
            split, phi = random_realizable_splitting(rng)
            graph = coset_graph(split, phi)
            assert is_connected(graph)
            assert graph.euler_characteristic == graph.vertex_count - graph.edge_count

    def test_gcd_criterion_matches_the_search(self):
        # disconnected graphs included: they are built directly, since
        # coset_graph refuses them
        rng = random.Random(12)
        for _ in range(300):
            a = rng.randint(1, 12)
            if rng.random() < 0.5:
                b = rng.randint(1, 12)
                c = math.lcm(a, b) * rng.randint(1, 3)
                graph = CosetGraph(AMALGAM, a, b, c, None, a + b - c)
                assert is_connected(graph) == (math.gcd(a, b) == 1)
            else:
                step = rng.randint(-15, 15)
                c = a * rng.randint(1, 3)
                graph = CosetGraph(HNN, a, None, c, step, a - c)
                assert is_connected(graph) == (math.gcd(a, step) == 1)
            assert len(graph.edges) == graph.edge_count


class TestAdversarialSizes:
    def test_huge_coprime_exponents(self):
        # x^1000 = y^1001: a million edges that coset_graph never lists
        started = time.perf_counter()
        split = torus_splitting(1000, 1001)
        graph = coset_graph(split, ZMap({"x": 1001, "y": 1000}))
        rank = free_kernel_rank(AMALGAM, graph.a_idx, graph.b_idx, graph.c_idx, 0, 0)
        assert time.perf_counter() - started < 1.0
        assert (graph.a_idx, graph.b_idx, graph.c_idx) == (1001, 1000, 1001000)
        assert graph.euler_characteristic == -998999
        assert rank == 999000
