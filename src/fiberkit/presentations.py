"""Finite presentations, abelianization, and homomorphisms to Z.

The abelianization is computed from the Smith normal form of the relator
exponent matrix (rows = relators, columns = generators in declaration
order).  ``GroupFile`` is a named presentation with an optional class to Z
and optional peripheral words: what a group file holds, and the knot
exterior group that ``links`` splices and cables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul

from .errors import HypothesisError
from .snf import smith_normal_form
from .words import Word

__all__ = [
    "Presentation",
    "GroupFile",
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
    """Generators (ordered, named) and freely reduced relator words.

    Construction walks each relator's syllables once and keeps its row of
    exponent sums, one column per generator in declaration order; a
    syllable on a generator outside the columns is the undeclared-generator
    error.  ``exponent_matrix``, ``abelianize`` and ``zmap_validate`` read
    these rows and never walk the relators again.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...] = ()
    _rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        column: dict[str, int] = {}
        for g in self.generators:
            if not g:
                raise ValueError("empty generator name")
            if g in column:
                raise ValueError(f"duplicate generator {g!r}")
            column[g] = len(column)
        rows = []
        for r in self.relators:
            row = [0] * len(column)
            try:
                for g, e in r.syllables:
                    row[column[g]] += e
            except KeyError:
                undeclared = r.generators() - column.keys()
                raise ValueError(
                    f"relator {r} uses undeclared generators {sorted(undeclared)}"
                ) from None
            rows.append(tuple(row))
        object.__setattr__(self, "_rows", tuple(rows))

    def exponent_matrix(self) -> list[list[int]]:
        """Row ``i`` holds the exponent sums of relator ``i``, as fresh lists
        copied from the rows built at construction."""
        return [list(row) for row in self._rows]

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
    diag = smith_normal_form(pres.exponent_matrix())
    return AbelianizationResult(
        torsion_coefficients=tuple(d for d in diag if d >= 2),
        free_rank=len(pres.generators) - sum(1 for d in diag if d),
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

    def normalized(self) -> "ZMap":
        """Divide through so the image is all of Z.

        Raises when the map is trivial, since there is nothing to rescale.
        """
        d = self.image_gcd()
        if d == 0:
            raise HypothesisError("map to Z is trivial; no surjective rescaling")
        if d == 1:
            return self
        return ZMap({g: v // d for g, v in self.values.items()})

    def __str__(self) -> str:
        return " ".join(f"{g}={v}" for g, v in self.values.items())


def zmap_validate(phi: ZMap, pres: Presentation) -> bool:
    """True iff ``phi`` is defined on all generators and kills every relator.

    ``phi(r)`` is read off the exponent-sum row that ``pres`` built for
    ``r`` at construction, as the row's dot product with phi's values, so
    each relator costs O(generators) here, not O(syllables).  Values on
    generators outside ``pres`` are ignored.
    """
    if any(g not in phi.values for g in pres.generators):
        return False
    values = [phi.values[g] for g in pres.generators]
    return not any(sum(map(mul, row, values)) for row in pres._rows)


@dataclass(frozen=True)
class GroupFile:
    """A named presentation with its class to Z and peripheral words.

    The empty word is a legitimate longitude (an unknot bounds a disk);
    None means the class or a peripheral word is missing.  Nothing is
    checked here: ``textfmt`` checks what it reads, and ``links`` checks
    what it glues.
    """

    name: str
    presentation: Presentation
    phi: ZMap | None = None
    meridian: Word | None = None
    longitude: Word | None = None


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
    x, y, _ = two_generator_relator(pres)
    p, q = pres._rows[0]
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
