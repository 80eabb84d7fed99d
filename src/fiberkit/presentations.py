"""Finite presentations, abelianization, and homomorphisms to Z.

The abelianization is computed from the Smith normal form of the relator
exponent matrix (rows = relators, columns = generators in declaration
order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .errors import HypothesisError
from .snf import smith_normal_form
from .words import Word, exponent_sum

__all__ = [
    "Presentation",
    "AbelianizationResult",
    "ZMap",
    "abelianize",
    "two_generator_relator",
    "torsion_number",
    "canonical_zmap",
    "zmap_validate",
]


@dataclass(frozen=True)
class Presentation:
    """Generators (ordered, named) and freely reduced relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not g:
                raise ValueError("empty generator name")
            if g in seen:
                raise ValueError(f"duplicate generator {g!r}")
            seen.add(g)
        for r in self.relators:
            undeclared = r.generators() - seen
            if undeclared:
                raise ValueError(
                    f"relator {r} uses undeclared generators {sorted(undeclared)}"
                )

    def exponent_matrix(self) -> list[list[int]]:
        """Row ``i`` holds the exponent sums of relator ``i``, one pass over
        its syllables."""
        column = {g: j for j, g in enumerate(self.generators)}
        matrix = []
        for r in self.relators:
            row = [0] * len(column)
            for g, e in r.syllables:
                row[column[g]] += e
            matrix.append(row)
        return matrix

    def __str__(self) -> str:
        rels = ", ".join(str(r) for r in self.relators)
        return f"<{', '.join(self.generators)} | {rels}>"


@dataclass(frozen=True)
class AbelianizationResult:
    """Outcome of diagonalizing the relator exponent matrix.

    ``torsion_coefficients`` are the diagonal entries >= 2 in divisor order
    and ``free_rank`` counts the generators not consumed by a nonzero
    diagonal entry.
    """

    torsion_coefficients: tuple[int, ...]
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion_coefficients

    @property
    def is_infinite_cyclic(self) -> bool:
        return self.free_rank == 1 and not self.torsion_coefficients

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.torsion_coefficients]
        parts += ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "trivial"


def abelianize(pres: Presentation) -> AbelianizationResult:
    """Smith normal form of the relator exponent matrix.

    >>> from .words import Word
    >>> p = Presentation(("x", "y"), (Word.of(("x", 2), ("y", -3)),))
    >>> str(abelianize(p))
    'Z'
    """
    n = len(pres.generators)
    matrix = pres.exponent_matrix()
    _, diag_mat, _ = smith_normal_form(matrix, ncols=n)
    diag = [diag_mat[i][i] for i in range(min(len(matrix), n))]
    rank = sum(1 for d in diag if d != 0)
    return AbelianizationResult(
        torsion_coefficients=tuple(d for d in diag if d >= 2),
        free_rank=n - rank,
    )


@dataclass(frozen=True)
class ZMap:
    """Homomorphism to Z given by integer values on generators."""

    values: dict[str, int] = field(default_factory=dict)

    def __call__(self, word: Word) -> int:
        total = 0
        for g, e in word.syllables:
            if g not in self.values:
                raise ValueError(f"map not defined on generator {g!r}")
            total += e * self.values[g]
        return total

    def image_gcd(self) -> int:
        """d >= 0 with image dZ inside Z."""
        d = 0
        for v in self.values.values():
            d = gcd(d, v)
        return d

    def normalized(self) -> tuple["ZMap", int]:
        """Divide through so the image is all of Z; returns ``(map, d)``.

        Raises when the map is trivial, since there is nothing to rescale.
        """
        d = self.image_gcd()
        if d == 0:
            raise HypothesisError("map to Z is trivial; no surjective rescaling")
        if d == 1:
            return self, 1
        return ZMap({g: v // d for g, v in self.values.items()}), d

    def __str__(self) -> str:
        return " ".join(f"{g}={v}" for g, v in self.values.items())


def zmap_validate(phi: ZMap, pres: Presentation) -> bool:
    """True iff ``phi`` is defined on all generators and kills every relator."""
    if any(g not in phi.values for g in pres.generators):
        return False
    return all(phi(r) == 0 for r in pres.relators)


def two_generator_relator(pres: Presentation) -> tuple[str, str, Word]:
    """Generators ``x, y`` and the relator of a two-generator one-relator
    presentation; raises on any other shape."""
    if len(pres.generators) != 2 or len(pres.relators) != 1:
        raise HypothesisError(
            "needs a two-generator one-relator presentation, got "
            f"{len(pres.generators)} generators and {len(pres.relators)} relators"
        )
    x, y = pres.generators
    return x, y, pres.relators[0]


def _exponent_sums(pres: Presentation) -> tuple[str, str, int, int, int]:
    """Generators ``x, y``, the relator's exponent sums ``p, q`` and
    ``m = gcd(p, q) > 0`` of a two-generator one-relator presentation."""
    x, y, relator = two_generator_relator(pres)
    p = exponent_sum(relator, x)
    q = exponent_sum(relator, y)
    m = gcd(p, q)
    if m == 0:
        raise HypothesisError("m = 0, no torsion number")
    return x, y, p, q, m


def torsion_number(pres: Presentation) -> int:
    """gcd of the relator's two exponent sums; the order of the torsion part
    of the abelianization when positive.

    Raises when both exponent sums vanish (relator in the commutator
    subgroup): ``m = 0``, so there is no torsion number.
    """
    *_, m = _exponent_sums(pres)
    return m


def canonical_zmap(pres: Presentation) -> ZMap:
    """The surjection onto the infinite cyclic quotient of a two-generator
    one-relator group.

    With exponent sums ``(p, q) = m*(a, b)``, the first generator maps to
    ``-b`` and the second to ``a``; the relator is killed by construction
    and ``gcd(a, b) = 1`` makes the map onto.
    """
    x, y, p, q, m = _exponent_sums(pres)
    a, b = p // m, q // m
    return ZMap({x: -b, y: a})
