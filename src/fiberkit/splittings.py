"""Splittings as finite graphs of groups, and the coset graph of a kernel.

A splitting is a finite graph of groups (J.-P. Serre, *Trees*, 1980): a
presentation per vertex, and per edge the words that include its edge group
at its two ends.  Edges without a stable letter form a spanning tree.  An
amalgam ``A *_C B`` is two vertices and a tree edge, an HNN extension
``A *_C`` one vertex and a loop.

For ``N = ker(phi: G -> Z)``, phi onto, the cosets of ``N*G_v`` are the
residues mod ``i_v``, the gcd of phi on vertex v's generators, and those of
``N*G_e`` the residues mod ``i_e``, the gcd of phi on edge e's words.  The
k-th coset of e joins residue ``k mod i_src`` to ``(k + s_e) mod i_dst``,
with ``s_e`` phi of its stable letter, 0 on a tree edge: the quotient of
the Bass-Serre tree by N, with Euler characteristic ``sum(i_v) - sum(i_e)``.
Residues run ``0..index-1``, so the graph is reproducible bit for bit.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple, Sequence

from .errors import HypothesisError
from .presentations import Presentation, ZMap, zmap_validate
from .words import Word, _Value

__all__ = [
    "Edge",
    "Splitting",
    "CosetGraph",
    "vertex_name",
    "kernel_indices",
    "coset_graph",
    "free_kernel_rank",
]


class Edge(NamedTuple):
    """An edge from vertex ``src`` to vertex ``dst``: ``words_src[i]`` is
    identified with ``words_dst[i]``, after conjugation by the stable letter
    (``stable words_src[i] stable^-1 = words_dst[i]``) when it has one."""

    src: int
    dst: int
    words_src: tuple[Word, ...]
    words_dst: tuple[Word, ...]
    stable: str | None = None


def vertex_name(v: int) -> str:
    """``A``, ``B``, ... for the first 26 vertices, then ``V26``, ``V27``, ..."""
    return chr(65 + v) if v < 26 else f"V{v}"


class Splitting(_Value):
    """A finite graph of groups: a presentation per vertex, and edges whose
    tree edges (those with no stable letter) form a spanning tree.

    ``generators`` lists every vertex generator, in vertex order, then
    every stable letter, in edge order: the generators of the whole group.
    """

    __slots__ = ("vertices", "edges", "generators")
    _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple[Presentation, ...], edges: tuple[Edge, ...]):
        n = len(vertices)
        if not n:
            raise ValueError("a splitting needs a vertex")
        gens: tuple[str, ...] = ()
        for pres in vertices:
            gens += pres.generators
        stables = tuple([e.stable for e in edges if e.stable is not None])
        if len(set(gens + stables)) < len(gens) + len(stables):
            if len(set(gens)) < len(gens):
                shared = sorted({g for g in gens if gens.count(g) > 1})
                raise ValueError(f"factor generators must be disjoint: {shared}")
            if not set(gens).isdisjoint(stables):
                raise ValueError("stable letter collides with a factor generator")
            raise ValueError("stable letters must be distinct")
        if "" in stables:
            raise ValueError("HNN extension needs a stable letter")
        root = list(range(n))  # union-find over the tree edges
        for src, dst, words_src, words_dst, stable in edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValueError(f"edge ends {src}, {dst} are not both vertices")
            if len(words_src) != len(words_dst):
                raise ValueError("edge word lists must have equal length")
            for end, words in ((src, words_src), (dst, words_dst)):
                own = vertices[end].generators
                for w in words:
                    if not w.generators().issubset(own):
                        raise ValueError(f"edge word {w} not over factor {vertex_name(end)}")
            if stable is None:
                while root[src] != src:
                    src = root[src]
                while root[dst] != dst:
                    dst = root[dst]
                if src == dst:
                    raise ValueError("tree edges close a cycle")
                root[src] = dst
        if n - len(edges) + len(stables) != 1:
            raise ValueError("tree edges leave a vertex out")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "generators", gens + stables)

    def _key(self) -> tuple:
        return (self.vertices, self.edges)


def _normalized_indices(split: Splitting, phi: ZMap):
    """phi validated and rescaled to be onto, then the vertex indices and
    the edge indices.

    The whole group's relators are the vertices' and ``t u t^-1 v^-1`` for
    each pair of edge words ``u, v``, with ``t`` the stable letter or empty:
    phi kills them when it kills each vertex's and gives ``u`` and ``v`` one
    value, so the whole group is never assembled.
    """
    values = phi.values
    if not (
        all([g in values for g in split.generators])
        and all([zmap_validate(phi, pres) for pres in split.vertices])
        and all([phi(u) == phi(v) for e in split.edges
                 for u, v in zip(e.words_src, e.words_dst)])
    ):
        raise HypothesisError(
            "map to Z does not kill the assembled relators or misses a generator"
        )
    if phi.image_gcd() == 0:
        raise HypothesisError("N = G, indices undefined")
    phi = phi.normalized()
    values = phi.values
    vertex_indices = tuple([
        gcd(*[values[g] for g in pres.generators]) for pres in split.vertices
    ])
    edge_indices = tuple([gcd(*map(phi, e.words_src)) for e in split.edges])
    return phi, vertex_indices, edge_indices


def kernel_indices(split: Splitting, phi: ZMap) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices ``[G:NG_v]`` per vertex and ``[G:NG_e]`` per edge, for
    ``N = ker(phi)``: the index in Z of the subgroup's phi-image once phi
    is rescaled to be onto, with 0 for an infinite index."""
    return _normalized_indices(split, phi)[1:]


class CosetGraph(NamedTuple):
    """The quotient of the Bass-Serre tree by the kernel.

    Vertex v of the splitting gives the vertices ``(v, r)`` for ``r`` in
    ``range(vertex_indices[v])``.  Edge e gives ``edge_indices[e]`` edges,
    the k-th joining ``(src, k mod i_src)`` to ``(dst, (k + step) mod
    i_dst)``, where ``ends[e] == (src, dst, step)``.
    """

    vertex_indices: tuple[int, ...]
    edge_indices: tuple[int, ...]
    ends: tuple[tuple[int, int, int], ...]
    euler_characteristic: int

    @property
    def vertex_count(self) -> int:
        return sum(self.vertex_indices)

    @property
    def edge_count(self) -> int:
        return sum(self.edge_indices)

    @property
    def edges(self) -> tuple[tuple[int, tuple[str, int], tuple[str, int]], ...]:
        """Every edge as ``(k, (name, residue), (name, residue))``, with the
        vertices named by ``vertex_name`` and ``k`` counting on through the
        splitting's edges in turn; built on each read."""
        out: list = []
        for count, (src, dst, step) in zip(self.edge_indices, self.ends):
            i, j = self.vertex_indices[src], self.vertex_indices[dst]
            u, v, first = vertex_name(src), vertex_name(dst), len(out)
            out += [(first + k, (u, k % i), (v, (k + step) % j)) for k in range(count)]
        return tuple(out)


def coset_graph(split: Splitting, phi: ZMap) -> CosetGraph:
    """Build the coset graph of ``ker(phi)``; all indices must be finite."""
    phi, vertex_indices, edge_indices = _normalized_indices(split, phi)
    if 0 in vertex_indices or 0 in edge_indices:
        raise HypothesisError(
            "graph is infinite; the kernel is not finitely generated "
            "unless it lies in a factor"
        )
    values = phi.values
    ends = tuple([
        (e.src, e.dst, 0 if e.stable is None else values[e.stable]) for e in split.edges
    ])
    # i_e is a multiple of lcm(i_src, i_dst), so edge e joins every pair of
    # end residues that differ by s_e mod gcd(i_src, i_dst): the graph is
    # connected exactly when the gcd of every i_v and every s_e is 1
    if gcd(*vertex_indices, *[step for _, _, step in ends]) != 1:
        # cannot happen once phi is surjective: the generators' images generate Z
        raise RuntimeError("coset graph fell apart; phi was not normalized")
    chi = sum(vertex_indices) - sum(edge_indices)
    return CosetGraph(vertex_indices, edge_indices, ends, chi)


def free_kernel_rank(graph: CosetGraph, ranks: Sequence[int]) -> int:
    """Rank of the kernel as a free product of vertex groups and a free
    group, assuming trivial edge groups and finite indices:
    ``1 - chi + sum(i_v * ranks[v])``, with one rank per vertex.
    """
    if min(graph.vertex_indices + graph.edge_indices, default=1) < 1:
        raise HypothesisError("ranks need finite positive indices")
    if len(ranks) != len(graph.vertex_indices):
        raise ValueError("needs one factor rank per vertex")
    if min(ranks, default=0) < 0:
        raise HypothesisError("factor ranks must be nonnegative")
    rank = 1 - graph.euler_characteristic + sum(map(mul, graph.vertex_indices, ranks))
    if rank < 0:
        raise HypothesisError("premises inconsistent: negative rank")
    return rank
