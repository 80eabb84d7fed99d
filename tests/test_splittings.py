import copy
import math
import pickle
import random
import time

import pytest

from fiberkit.errors import HypothesisError
from fiberkit.presentations import Presentation, ZMap, zmap_validate
from fiberkit.splittings import (
    Edge,
    Splitting,
    coset_graph,
    free_kernel_rank,
    kernel_indices,
)
from fiberkit.words import Word
from tests_support import (
    amalgam_graph,
    assembled,
    amalgam_rank,
    amalgam_splitting,
    hnn_graph,
    hnn_rank,
    hnn_splitting,
    is_connected,
    random_coset_graph,
    random_graph_of_groups,
    random_realizable_splitting,
)


def torus_splitting(p, q):
    return amalgam_splitting(Word.gen("x", p), Word.gen("y", q))


TREFOIL_SPLIT = torus_splitting(2, 3)
TREFOIL_PHI = ZMap({"x": 3, "y": 2})

# the showcase group as <x> glued to H = <u, y | u y^2 u y^-1> along x^2 = u
SHOWCASE_SPLIT = amalgam_splitting(
    Word.gen("x", 2),
    Word.gen("u", 1),
    Presentation(("u", "y"), (Word.of(("u", 1), ("y", 2), ("u", 1), ("y", -1)),)),
)
SHOWCASE_PHI = ZMap({"x": -1, "u": -2, "y": 4})

# <x, t | t x^2 t^-1 = x^2>
HNN_X2 = hnn_splitting(Word.gen("x", 2), Word.gen("x", 2))
# <a> * <t>: an HNN extension over the trivial group
FREE_HNN = Splitting((Presentation(("a",)),), (Edge(0, 0, (), (), "t"),))

X, Y, Z = Presentation(("x",)), Presentation(("y",)), Presentation(("z",))
# tree edges A - B - C
CHAIN = (Edge(0, 1, (), ()), Edge(1, 2, (), ()))


class TestSplittingValidation:
    def test_edge_lists_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            Splitting((X, Y), (Edge(0, 1, (Word.gen("x"),), ()),))

    def test_stable_letter_fresh(self):
        with pytest.raises(ValueError, match="collides"):
            Splitting((X,), (Edge(0, 0, (), (), "x"),))

    def test_edge_words_over_correct_factor(self):
        with pytest.raises(ValueError, match="factor A"):
            amalgam_splitting(Word.gen("y"), Word.gen("y"))

    def test_assembled_hnn(self):
        assembled_hnn = assembled(HNN_X2)
        assert assembled_hnn.generators == ("x", "t")
        assert assembled_hnn.relators == (
            Word.of(("t", 1), ("x", 2), ("t", -1), ("x", -2)),
        )

    def test_assembled_chain(self):
        # <x> *_{x^2 = y^3} <y> *_{y^5 = z^7} <z>, built with the tree edges
        # in either order, plus a loop at B
        loop = Edge(1, 1, (Word.gen("y"),), (Word.gen("y", -1),), "s")
        split = Splitting((X, Y, Z), (
            Edge(1, 2, (Word.gen("y", 5),), (Word.gen("z", 7),)),
            loop,
            Edge(0, 1, (Word.gen("x", 2),), (Word.gen("y", 3),)),
        ))
        whole = assembled(split)
        assert whole.generators == ("x", "y", "z", "s")
        assert whole.relators == (
            Word.of(("y", 5), ("z", -7)),
            Word.of(("s", 1), ("y", 1), ("s", -1), ("y", 1)),
            Word.of(("x", 2), ("y", -3)),
        )


SPLIT_FIELDS = ("vertices", "edges")


class TestSplittingValueContract:
    # a splitting file can reach the messages of args4, args5 and args7,
    # which parse_splitting_file prefixes with the file's path
    @pytest.mark.parametrize("args, message", [
        (((), ()), "a splitting needs a vertex"),
        (((X, Y), ()), "tree edges leave a vertex out"),
        (((X, Y), (Edge(0, 1, (), ()), Edge(1, 0, (), ()))), "tree edges close a cycle"),
        (((X, Y), (Edge(0, 1, (Word.gen("x"),), (Word.gen("x"),)),)),
         "edge word x not over factor B"),
        (((X, X), (Edge(0, 1, (), ()),)), "factor generators must be disjoint: ['x']"),
        (((X,), (Edge(0, 0, (), (), ""),)), "HNN extension needs a stable letter"),
        (((X,), (Edge(0, 0, (Word.gen("y"),), (Word.gen("x"),), "t"),)),
         "edge word y not over factor A"),
        (((X,), (Edge(0, 0, (), (), "x"),)), "stable letter collides with a factor generator"),
        (((X,), (Edge(0, 0, (), (), "t"), Edge(0, 0, (), (), "t"))),
         "stable letters must be distinct"),
        (((X,), (Edge(0, 1, (), (), "t"),)), "edge ends 0, 1 are not both vertices"),
        (((X, Y, Z), (*CHAIN, Edge(2, 0, (), ()))), "tree edges close a cycle"),
        (((X, Y, Z), (*CHAIN, Edge(1, 1, (), ()))), "tree edges close a cycle"),
        (((X, Y, Z), (CHAIN[0], Edge(2, 2, (), (), "t"))), "tree edges leave a vertex out"),
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
        for split in (TREFOIL_SPLIT, SHOWCASE_SPLIT, HNN_X2):
            assert hash(split) == hash(tuple(getattr(split, f) for f in SPLIT_FIELDS))

    def test_equality(self):
        assert TREFOIL_SPLIT == torus_splitting(2, 3)
        assert TREFOIL_SPLIT != torus_splitting(3, 2)
        assert TREFOIL_SPLIT != tuple(getattr(TREFOIL_SPLIT, f) for f in SPLIT_FIELDS)

    def test_repr(self):
        assert repr(TREFOIL_SPLIT) == (
            "Splitting(vertices=(Presentation(generators=('x',), relators=()), "
            "Presentation(generators=('y',), relators=())), edges=(Edge(src=0, "
            "dst=1, words_src=(Word('x^2'),), words_dst=(Word('y^3'),), "
            "stable=None),))"
        )
        assert repr(HNN_X2) == (
            "Splitting(vertices=(Presentation(generators=('x',), relators=()),), "
            "edges=(Edge(src=0, dst=0, words_src=(Word('x^2'),), "
            "words_dst=(Word('x^2'),), stable='t'),))"
        )

    def test_copy_and_pickle_rebuild_an_equal_splitting(self):
        for split in (SHOWCASE_SPLIT, HNN_X2):
            for twin in (copy.copy(split), copy.deepcopy(split),
                         pickle.loads(pickle.dumps(split))):
                assert twin == split


class TestKernelIndices:
    def test_trefoil(self):
        # oracle by hand: phi(A) = 3Z, phi(B) = 2Z, phi(C) = 6Z inside Z
        assert kernel_indices(TREFOIL_SPLIT, TREFOIL_PHI) == ((3, 2), (6,))

    def test_showcase_splitting(self):
        assert kernel_indices(SHOWCASE_SPLIT, SHOWCASE_PHI) == ((1, 2), (2,))

    def test_free_product_infinite(self):
        assert kernel_indices(FREE_HNN, ZMap({"a": 0, "t": 1})) == ((0,), (0,))

    def test_trivial_map_rejected(self):
        with pytest.raises(HypothesisError, match="indices undefined"):
            kernel_indices(TREFOIL_SPLIT, ZMap({"x": 0, "y": 0}))

    def test_invalid_map_rejected(self):
        with pytest.raises(HypothesisError):
            kernel_indices(TREFOIL_SPLIT, ZMap({"x": 1, "y": 1}))

    def test_class_check_matches_the_assembled_group(self):
        # kernel_indices checks phi vertex by vertex and edge by edge; the
        # oracle is zmap_validate on the whole group's presentation.  The
        # showcase splitting brings a vertex relator.
        rng = random.Random(15)
        outcomes = set()
        for _ in range(300):
            if rng.random() < 0.3:
                split, phi = SHOWCASE_SPLIT, SHOWCASE_PHI
            else:
                split, phi = random_graph_of_groups(rng)
            values = dict(phi.values)
            g = rng.choice(sorted(values))
            if rng.random() < 0.2:
                del values[g]
            elif rng.random() < 0.5:
                values[g] += rng.choice((-1, 1))
            phi = ZMap(values)
            valid = zmap_validate(phi, assembled(split))
            try:
                kernel_indices(split, phi)
                accepted = True
            except HypothesisError as exc:  # or N = G, for a valid class of 0
                accepted = "does not kill" not in str(exc)
            assert accepted == valid
            outcomes.add(valid)
        assert outcomes == {False, True}

    def test_unnormalized_map_rescaled(self):
        assert kernel_indices(TREFOIL_SPLIT, ZMap({"x": 6, "y": 4})) == ((3, 2), (6,))

    def test_edge_index_common_multiple(self):
        (a_idx, b_idx), (c_idx,) = kernel_indices(TREFOIL_SPLIT, TREFOIL_PHI)
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
        assert (graph.vertex_indices, graph.edge_indices) == ((1, 2), (2,))
        assert graph.vertex_count == 3
        assert graph.edge_count == 2
        assert graph.euler_characteristic == 1

    def test_infinite_rejected(self):
        with pytest.raises(HypothesisError, match="infinite"):
            coset_graph(FREE_HNN, ZMap({"a": 0, "t": 1}))

    def test_hnn_loops(self):
        # phi(x)=1, phi(t)=0: one vertex, two loop edges
        graph = coset_graph(HNN_X2, ZMap({"x": 1, "t": 0}))
        assert graph.vertex_count == 1
        assert graph.edge_count == 2
        assert graph.euler_characteristic == -1
        assert graph.ends == ((0, 0, 0),)

    def test_hnn_step_is_the_stable_letter_class(self):
        # phi(x)=2, phi(t)=1: the k-th coset joins A(k mod 2) to A(k+1 mod 2)
        graph = coset_graph(HNN_X2, ZMap({"x": 2, "t": 1}))
        assert (graph.vertex_indices, graph.edge_indices, graph.ends) == ((2,), (4,), ((0, 0, 1),))
        assert graph.edges == (
            (0, ("A", 0), ("A", 1)),
            (1, ("A", 1), ("A", 0)),
            (2, ("A", 0), ("A", 1)),
            (3, ("A", 1), ("A", 0)),
        )

    def test_chain_numbers_its_edges_on(self):
        # <x> *_{x^2 = y^3} <y> *_{y = z^2} <z> with phi = (3, 2, 1): the
        # second edge's cosets are numbered after the first's
        split = Splitting((X, Y, Z), (
            Edge(0, 1, (Word.gen("x", 2),), (Word.gen("y", 3),)),
            Edge(1, 2, (Word.gen("y"),), (Word.gen("z", 2),)),
        ))
        graph = coset_graph(split, ZMap({"x": 3, "y": 2, "z": 1}))
        assert (graph.vertex_indices, graph.edge_indices) == ((3, 2, 1), (6, 2))
        assert graph.edges[6:] == ((6, ("B", 0), ("C", 0)), (7, ("B", 1), ("C", 0)))
        assert graph.euler_characteristic == 6 - 8
        assert is_connected(graph)

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
        assert free_kernel_rank(amalgam_graph(3, 2, 6), (0, 0)) == 2

    def test_tree_grushko(self):
        for r, s in ((0, 0), (1, 2), (3, 5)):
            assert free_kernel_rank(amalgam_graph(1, 1, 1), (r, s)) == r + s

    def test_showcase_instance(self):
        assert free_kernel_rank(amalgam_graph(1, 2, 2), (0, 2)) == 4

    def test_graph_cross_check(self):
        graph = coset_graph(TREFOIL_SPLIT, TREFOIL_PHI)
        rank = free_kernel_rank(graph, (0, 0))
        assert rank == 1 - graph.euler_characteristic == 2

    def test_hnn_direct_product(self):
        # Z x Z as an HNN extension of Z over itself: kernel is Z, rank 1
        assert free_kernel_rank(hnn_graph(1, 1), (0,)) == 1

    def test_hnn_two_conjugates(self):
        # <x, t | t x^2 t^-1 = x^2>, phi = (1, 0): the kernel is free on
        # the two distinct conjugates of t, matching 1 - chi of the graph
        graph = coset_graph(HNN_X2, ZMap({"x": 1, "t": 0}))
        assert free_kernel_rank(graph, (0,)) == 2
        assert 1 - graph.euler_characteristic == 2

    def test_negative_rejected(self):
        with pytest.raises(HypothesisError, match="inconsistent"):
            free_kernel_rank(amalgam_graph(5, 5, 1), (0, 0))

    def test_negative_factor_rank_rejected(self):
        # each total (9, 15, 1) is nonnegative and would pass as a rank
        for graph, ranks in (
            (amalgam_graph(3, 2, 6), (-1, 5)),
            (amalgam_graph(3, 2, 6), (5, -1)),
            (hnn_graph(1, 2), (-1,)),
        ):
            with pytest.raises(HypothesisError, match="factor ranks must be nonnegative"):
                free_kernel_rank(graph, ranks)

    def test_one_rank_per_vertex(self):
        for graph, ranks in ((amalgam_graph(3, 2, 6), (0,)), (hnn_graph(1, 2), (0, 0))):
            with pytest.raises(ValueError, match="one factor rank per vertex"):
                free_kernel_rank(graph, ranks)

    def test_infinite_rejected(self):
        for graph in (amalgam_graph(0, 2, 6), amalgam_graph(3, 2, 0), hnn_graph(0, 2)):
            with pytest.raises(HypothesisError, match="finite positive indices"):
                free_kernel_rank(graph, (0,) * len(graph.vertex_indices))

    def test_free_part_is_one_minus_chi(self):
        for split, phi in (
            (TREFOIL_SPLIT, TREFOIL_PHI),
            (torus_splitting(4, 7), ZMap({"x": 7, "y": 4})),
            (HNN_X2, ZMap({"x": 2, "t": 1})),
        ):
            graph = coset_graph(split, phi)
            rank = free_kernel_rank(graph, (0,) * len(split.vertices))
            assert rank == 1 - graph.euler_characteristic

    def test_closed_forms_on_random_splittings(self):
        # today's amalgam and HNN formulas, term for term
        rng = random.Random(13)
        for _ in range(300):
            split, phi = random_realizable_splitting(rng)
            graph = coset_graph(split, phi)
            ranks = tuple(rng.randint(0, 4) for _ in split.vertices)
            (c_idx,) = graph.edge_indices
            if len(ranks) == 2:
                expected = amalgam_rank(*graph.vertex_indices, c_idx, *ranks)
            else:
                expected = hnn_rank(*graph.vertex_indices, c_idx, *ranks)
            assert free_kernel_rank(graph, ranks) == expected


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
        outcomes = set()
        for _ in range(300):
            graph = random_coset_graph(rng)
            steps = [step for _, _, step in graph.ends]
            connected = math.gcd(*graph.vertex_indices, *steps) == 1
            assert is_connected(graph) == connected
            assert len(graph.edges) == graph.edge_count
            outcomes.add((connected, len(graph.vertex_indices)))
        assert outcomes == {(c, n) for c in (False, True) for n in (1, 2, 3, 4)}

    def test_graphs_of_groups_are_connected(self):
        # the quotient of the Bass-Serre tree by the kernel of an onto class
        rng = random.Random(14)
        for _ in range(200):
            split, phi = random_graph_of_groups(rng)
            graph = coset_graph(split, phi)
            assert is_connected(graph)
            assert graph.euler_characteristic == graph.vertex_count - graph.edge_count
            assert free_kernel_rank(graph, (0,) * len(split.vertices)) == (
                1 - graph.euler_characteristic
            )


class TestAdversarialSizes:
    def test_huge_coprime_exponents(self):
        # x^1000 = y^1001: a million edges that coset_graph never lists
        started = time.perf_counter()
        split = torus_splitting(1000, 1001)
        graph = coset_graph(split, ZMap({"x": 1001, "y": 1000}))
        rank = free_kernel_rank(graph, (0, 0))
        assert time.perf_counter() - started < 1.0
        assert (graph.vertex_indices, graph.edge_indices) == ((1001, 1000), (1001000,))
        assert graph.euler_characteristic == -998999
        assert rank == 999000
