"""Fox derivatives and Alexander polynomials over exact integer Laurent
polynomials.

This module is the independent cross-check for the rank machinery: for a
deficiency-one presentation whose infinite cyclic quotient has finitely
generated free kernel, the order polynomial is monic with degree equal to
that kernel rank.  Everything is exact; no floats anywhere.

``alexander_matrix`` specializes the Fox Jacobian in one pass per relator
and never calls ``GroupRingElement`` or ``fox_derivative``.  Those two stay
public as the literal Fox calculus that the tests check the specialized
Jacobian against, and because ``LAYERS`` in ``bench/tracer.py`` names
``fox_derivative``; moving them into the tests waits for a change to the
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import HypothesisError
from .presentations import Presentation, ZMap, zmap_validate
from .words import Word

__all__ = [
    "LaurentPoly",
    "GroupRingElement",
    "fox_derivative",
    "alexander_matrix",
    "alexander_poly",
    "monic_degree_check",
]


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial, stored as sorted (exponent, coeff) pairs
    with no zero coefficients."""

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls.from_dict({0: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def min_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no extreme exponents")
        return self.terms[0][0]

    @property
    def max_exp(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no extreme exponents")
        return self.terms[-1][0]

    @property
    def span(self) -> int:
        """max_exp - min_exp; the degree after normalization."""
        return self.max_exp - self.min_exp

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    def shift(self, by: int) -> "LaurentPoly":
        return LaurentPoly(tuple((e + by, c) for e, c in self.terms))

    def evaluate_at_one(self) -> int:
        return sum(c for _, c in self.terms)

    def normalize(self) -> "LaurentPoly":
        """Multiply by a unit so the lowest exponent is 0 and the top
        coefficient is positive."""
        if self.is_zero:
            return self
        shifted = self.shift(-self.min_exp)
        if shifted.terms[-1][1] < 0:
            shifted = -shifted
        return shifted

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises if the division leaves a remainder or
        non-integer coefficients.

        Sparse long division over Z: each step cancels the remainder's top
        term against the divisor's leading term and touches only the
        divisor's nonzero terms.  An exact quotient's lowest term times the
        divisor's lowest term is the dividend's lowest term, so every step
        works at or above ``self.min_exp + divisor.span``.  A nonzero
        remainder term below that line, or a leading coefficient that does
        not divide, means the division is not exact.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        top, lead = divisor.terms[-1]
        lower = divisor.terms[:-1]
        floor = self.min_exp + divisor.span
        rem = dict(self.terms)
        pending = [-e for e in rem]
        heapify(pending)
        quot: dict[int, int] = {}
        while pending:
            e = -heappop(pending)
            c = rem.pop(e)
            if not c:
                continue
            q, r = divmod(c, lead)
            if r or e < floor:
                raise HypothesisError("Laurent division is not exact")
            quot[e - top] = q
            for d, k in lower:
                x = e - top + d
                if x not in rem:
                    heappush(pending, -x)
                rem[x] = rem.get(x, 0) - q * k
        return LaurentPoly.from_dict(quot)

    def __str__(self) -> str:
        """Ascending form, e.g. ``1 - t + t^2``."""
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                power = "t" if e == 1 else f"t^{e}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


# ---------------------------------------------------------------------------
# Group ring and Fox derivatives

@dataclass(frozen=True)
class GroupRingElement:
    """Finite integer combination of freely reduced words."""

    terms: tuple[tuple[Word, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[Word, int]) -> "GroupRingElement":
        items = [(w, c) for w, c in coeffs.items() if c]
        items.sort(key=lambda item: (len(item[0]), str(item[0])))
        return cls(tuple(items))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = {w: c for w, c in self.terms}
        for w, c in other.terms:
            out[w] = out.get(w, 0) + c
        return GroupRingElement.from_dict(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def left_mul(self, word: Word, c: int = 1) -> "GroupRingElement":
        out: dict[Word, int] = {}
        for w, k in self.terms:
            prod = word * w
            out[prod] = out.get(prod, 0) + c * k
        return GroupRingElement.from_dict(out)

    def specialize(self, phi: ZMap) -> LaurentPoly:
        """Send each word w to t^phi(w)."""
        out: dict[int, int] = {}
        for w, c in self.terms:
            e = phi(w)
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*[{w}]" for w, c in self.terms)


def fox_derivative(word: Word, gen: str) -> GroupRingElement:
    """Free derivative with respect to ``gen``.

    Satisfies D(uv) = D(u) + u D(v), D(g) = 1, D(g^-1) = -g^-1.
    """
    out: dict[Word, int] = {}
    prefix = Word()
    for g, sign in word.letters():
        if g == gen:
            if sign > 0:
                key = prefix
                delta = 1
            else:
                key = prefix * Word.gen(g, -1)
                delta = -1
            out[key] = out.get(key, 0) + delta
        prefix = prefix * Word.gen(g, sign)
    return GroupRingElement.from_dict(out)


# ---------------------------------------------------------------------------
# Alexander polynomial

def alexander_matrix(
    pres: Presentation, phi: ZMap
) -> list[list[LaurentPoly]]:
    """Specialized Fox Jacobian: one row per relator, one column per generator.

    Entry ``(r, g)`` equals ``fox_derivative(r, g).specialize(phi)``, built
    in one pass over the syllables of ``r`` that carries ``h``, the phi-value
    of the prefix read so far.  By the product rule a syllable ``g^e`` with
    ``v = phi(g)`` adds ``t^h + t^(h+v) + ... + t^(h+(e-1)v)`` to column
    ``g`` when ``e > 0`` and ``-(t^(h-v) + ... + t^(h+ev))`` when ``e < 0``;
    when ``v == 0`` both collapse to ``e t^h``, so a huge exponent on a
    generator of value 0 costs O(1).  Then ``h`` advances by ``e v``.
    """
    column = {g: j for j, g in enumerate(pres.generators)}
    values = {g: phi(Word.gen(g)) for g in pres.generators}
    matrix = []
    for relator in pres.relators:
        entries: list[dict[int, int]] = [{} for _ in pres.generators]
        h = 0
        for g, e in relator.syllables:
            v = values[g]
            acc = entries[column[g]]
            if v == 0:
                acc[h] = acc.get(h, 0) + e
            elif e > 0:
                for k in range(h, h + e * v, v):
                    acc[k] = acc.get(k, 0) + 1
            else:
                for k in range(h - v, h + (e - 1) * v, -v):
                    acc[k] = acc.get(k, 0) - 1
            h += e * v
        matrix.append([LaurentPoly.from_dict(acc) for acc in entries])
    return matrix


def _det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    n = len(matrix)
    if n == 0:
        return LaurentPoly.const(1)
    if n == 1:
        return matrix[0][0]
    # cofactor expansion; relator counts here are small
    total = LaurentPoly()
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero:
            continue
        minor = [
            [row[k] for k in range(n) if k != j] for row in matrix[1:]
        ]
        piece = entry * _det(minor)
        total = total + (piece if j % 2 == 0 else -piece)
    return total


def alexander_poly(pres: Presentation, phi: ZMap) -> LaurentPoly:
    """Order polynomial of the twisted abelianized kernel, normalized.

    For ``n`` generators and ``n - 1`` relators, delete one column with a
    nonzero phi-value from the specialized Fox Jacobian and take the
    determinant; the shared-row identity makes ``det * (t - 1) /
    (t^phi(g) - 1)`` independent of the deleted column, and that quotient
    is the polynomial returned.  Fewer relators leave a free summand in the
    kernel's abelianization, so the order is 0.
    """
    if not zmap_validate(phi, pres):
        raise HypothesisError("map to Z does not kill every relator")
    if phi.image_gcd() == 0:
        raise HypothesisError("map to Z is trivial on every generator")
    phi, _ = phi.normalized()
    n = len(pres.generators)
    k = len(pres.relators)
    if k > n - 1:
        raise HypothesisError(
            f"needs deficiency >= 1: {n} generators, {k} relators"
        )
    if k < n - 1:
        return LaurentPoly()

    deleted = next(
        j for j, g in enumerate(pres.generators) if phi.values[g] != 0
    )
    matrix = alexander_matrix(pres, phi)
    reduced = [
        [row[j] for j in range(n) if j != deleted] for row in matrix
    ]
    det = _det(reduced)
    weight = phi.values[pres.generators[deleted]]
    t_minus_1 = LaurentPoly.from_dict({1: 1, 0: -1})
    compensation = LaurentPoly.from_dict({weight: 1, 0: -1})
    return (det * t_minus_1).exact_div(compensation).normalize()


def monic_degree_check(delta: LaurentPoly, expected_rank: int) -> bool:
    """True iff both extreme coefficients are units and the normalized
    degree equals ``expected_rank``."""
    if delta.is_zero:
        return False
    if abs(delta.terms[0][1]) != 1 or abs(delta.terms[-1][1]) != 1:
        return False
    return delta.span == expected_rank
