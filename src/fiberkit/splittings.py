"""Amalgam and HNN splittings and the coset graph of a kernel.

For ``N = ker(phi: G -> Z)`` the cosets of ``N*A``, ``N*B``, ``N*C`` inside
``G`` are classified by residues of phi-values, which makes the subgroup
graph a finite, explicitly enumerable object whenever the indices are
finite.  Residue labels run ``0..index-1`` so the graph is reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import HypothesisError
from .presentations import Presentation, ZMap, zmap_validate
from .words import Word, concat

__all__ = [
    "AMALGAM",
    "HNN",
    "Splitting",
    "CosetGraph",
    "kernel_indices",
    "coset_graph",
    "free_kernel_rank",
]

AMALGAM = "amalgam"
HNN = "hnn"


@dataclass(frozen=True)
class Splitting:
    """An amalgamated product ``A *_C B`` or HNN extension ``A *_C``.

    The edge group C is given by its inclusion words: for an amalgam,
    ``edges_a[i]`` in A is identified with ``edges_b[i]`` in B; for an HNN
    extension both lists are words over A and the stable letter conjugates
    ``edges_a[i]`` to ``edges_b[i]``.
    """

    kind: str
    factor_a: Presentation
    factor_b: Presentation | None = None
    edges_a: tuple[Word, ...] = ()
    edges_b: tuple[Word, ...] = ()
    stable_letter: str | None = None

    def __post_init__(self):
        if self.kind not in (AMALGAM, HNN):
            raise ValueError(f"unknown splitting kind {self.kind!r}")
        if len(self.edges_a) != len(self.edges_b):
            raise ValueError("edge word lists must have equal length")
        gens_a = set(self.factor_a.generators)
        if self.kind == AMALGAM:
            if self.factor_b is None or self.stable_letter is not None:
                raise ValueError("amalgam needs factor B and no stable letter")
            gens_b = set(self.factor_b.generators)
            if gens_a & gens_b:
                raise ValueError(
                    f"factor generators must be disjoint: {sorted(gens_a & gens_b)}"
                )
            for w in self.edges_a:
                if not w.generators() <= gens_a:
                    raise ValueError(f"edge word {w} not over factor A")
            for w in self.edges_b:
                if not w.generators() <= gens_b:
                    raise ValueError(f"edge word {w} not over factor B")
        else:
            if self.factor_b is not None:
                raise ValueError("HNN extension has a single factor")
            if not self.stable_letter:
                raise ValueError("HNN extension needs a stable letter")
            if self.stable_letter in gens_a:
                raise ValueError("stable letter collides with a factor generator")
            for w in self.edges_a + self.edges_b:
                if not w.generators() <= gens_a:
                    raise ValueError(f"edge word {w} not over the factor")

    def assembled(self) -> Presentation:
        """The presentation of the whole group.

        Amalgam: generators of both factors, relators of both factors plus
        one identification relator per edge word pair.  HNN: factor
        generators plus the stable letter, plus the conjugation relators.
        """
        if self.kind == AMALGAM:
            gens = self.factor_a.generators + self.factor_b.generators
            rels = list(self.factor_a.relators) + list(self.factor_b.relators)
            for wa, wb in zip(self.edges_a, self.edges_b):
                rels.append(concat(wa, wb.inverse()))
            return Presentation(gens, tuple(rels))
        t = Word.gen(self.stable_letter)
        gens = self.factor_a.generators + (self.stable_letter,)
        rels = list(self.factor_a.relators)
        for wc, wd in zip(self.edges_a, self.edges_b):
            rels.append(concat(t, wc, t.inverse(), wd.inverse()))
        return Presentation(gens, tuple(rels))


def _normalized_indices(split: Splitting, phi: ZMap):
    """phi validated and rescaled to be onto, then the three indices."""
    pres = split.assembled()
    if not zmap_validate(phi, pres):
        raise HypothesisError(
            "map to Z does not kill the assembled relators or misses a generator"
        )
    if phi.image_gcd() == 0:
        raise HypothesisError("N = G, indices undefined")
    phi = phi.normalized()
    a_idx = gcd(*(phi.values[g] for g in split.factor_a.generators))
    c_idx = gcd(*map(phi, split.edges_a))
    b_idx = None
    if split.kind == AMALGAM:
        b_idx = gcd(*(phi.values[g] for g in split.factor_b.generators))
    return phi, a_idx, b_idx, c_idx


def kernel_indices(split: Splitting, phi: ZMap) -> tuple[int, int | None, int]:
    """Indices ``([G:NA], [G:NB], [G:NC])`` for ``N = ker(phi)``.

    Each equals the index in Z of the phi-image of the corresponding
    subgroup, once phi is rescaled to be onto: the gcd of the phi-values
    of its generators.  An index is 0 when the image collapses to 0, which
    stands for an infinite index; the middle entry is None for an HNN
    splitting.
    """
    return _normalized_indices(split, phi)[1:]


@dataclass(frozen=True)
class CosetGraph:
    """The finite graph underlying the subgroup decomposition of the kernel.

    Vertices are NA-coset residues (and NB-coset residues for an amalgam);
    edges are NC-coset residues.  Edge ``k`` joins ``A(k mod a)`` to
    ``B(k mod b)`` in the amalgam case and ``A(k mod a)`` to
    ``A(k + step mod a)`` in the HNN case, where ``step`` is the stable
    letter's phi-value (None for an amalgam).
    """

    kind: str
    a_idx: int
    b_idx: int | None
    c_idx: int
    step: int | None
    euler_characteristic: int

    @property
    def vertex_count(self) -> int:
        return self.a_idx + (self.b_idx if self.kind == AMALGAM else 0)

    @property
    def edge_count(self) -> int:
        return self.c_idx

    @property
    def edges(self) -> tuple[tuple[int, tuple[str, int], tuple[str, int]], ...]:
        """Every edge as ``(k, end, end)``, built on each read."""
        a = self.a_idx
        if self.kind == AMALGAM:
            return tuple(
                (k, ("A", k % a), ("B", k % self.b_idx)) for k in range(self.c_idx)
            )
        return tuple(
            (k, ("A", k % a), ("A", (k + self.step) % a)) for k in range(self.c_idx)
        )


def coset_graph(split: Splitting, phi: ZMap) -> CosetGraph:
    """Build the coset graph of ``ker(phi)``; all indices must be finite."""
    phi, a_idx, b_idx, c_idx = _normalized_indices(split, phi)
    if 0 in (a_idx, b_idx, c_idx):
        raise HypothesisError(
            "graph is infinite; the kernel is not finitely generated "
            "unless it lies in a factor"
        )
    # c is a multiple of lcm(a, b) (of a for HNN), so the edges join every
    # pair of residues that agree mod gcd(a, b) (mod gcd(a, step)): the
    # graph is connected exactly when that gcd is 1
    if split.kind == AMALGAM:
        step = None
        linked = gcd(a_idx, b_idx)
        chi = a_idx + b_idx - c_idx
    else:
        step = phi.values[split.stable_letter]
        linked = gcd(a_idx, step)
        chi = a_idx - c_idx
    if linked != 1:
        # cannot happen once phi is surjective: the factor images generate Z
        raise RuntimeError("coset graph fell apart; phi was not normalized")
    return CosetGraph(split.kind, a_idx, b_idx, c_idx, step, chi)


def free_kernel_rank(
    kind: str,
    a_idx: int,
    b_idx: int | None,
    c_idx: int,
    rank_a: int,
    rank_b: int | None = None,
) -> int:
    """Rank of the kernel as a free product of vertex groups and a free
    group, assuming trivial edge groups and finite indices.

    Amalgam: ``a*rank_a + b*rank_b + 1 + c - a - b``.
    HNN: ``a*rank_a + 1 + c - a``.
    """
    for idx in (a_idx, b_idx, c_idx):
        if idx is not None and idx < 1:
            raise HypothesisError("ranks need finite positive indices")
    if kind == AMALGAM:
        if b_idx is None or rank_b is None:
            raise HypothesisError("amalgam rank needs the B-side index and rank")
        rank = a_idx * rank_a + b_idx * rank_b + 1 + c_idx - a_idx - b_idx
    elif kind == HNN:
        rank = a_idx * rank_a + 1 + c_idx - a_idx
    else:
        raise ValueError(f"unknown splitting kind {kind!r}")
    if rank < 0:
        raise HypothesisError("premises inconsistent: negative rank")
    return rank
