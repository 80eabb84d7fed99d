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

from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .errors import HypothesisError
from .presentations import Presentation, ZMap, zmap_validate
from .words import Word

__all__ = [
    "LaurentPoly",
    "GroupRingElement",
    "fox_derivative",
    "alexander_matrix",
    "alexander_poly",
]

# the most terms the walks of ``alexander_matrix`` may add to one Jacobian
WALK_BOUND = 100_000
# the most pairs of terms the cofactor products of ``_det`` may multiply
PRODUCT_BOUND = 2_000_000
# the most terms ``LaurentPoly.exact_div`` may put in a quotient
QUOTIENT_BOUND = 200_000


class LaurentPoly(NamedTuple):
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

        Each step adds one quotient term.  Once the quotient would hold more
        than ``QUOTIENT_BOUND`` terms, the division is refused with
        ``HypothesisError``.  At the bound, (t^200000 - 1) / (t - 1) takes
        about 0.14 s and raises the peak memory of the process by about
        31 MiB, and ``fiberkit alexander`` on a relator whose order
        polynomial has 200,000 terms takes about 0.5 s and peaks at 70 MiB
        (2 cores, CPython 3.11.7).
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
            if len(quot) > QUOTIENT_BOUND:
                raise HypothesisError(
                    f"the Laurent quotient would have more than {QUOTIENT_BOUND} terms"
                )
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

class GroupRingElement(NamedTuple):
    """Finite integer combination of freely reduced words."""

    terms: tuple[tuple[Word, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[Word, int]) -> "GroupRingElement":
        items = [(w, c) for w, c in coeffs.items() if c]
        items.sort(key=lambda item: (len(item[0]), str(item[0])))
        return cls(tuple(items))

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        out = {w: c for w, c in self.terms}
        for w, c in other.terms:
            out[w] = out.get(w, 0) + c
        return GroupRingElement.from_dict(out)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(tuple((w, -c) for w, c in self.terms))

    def specialize(self, phi: ZMap) -> LaurentPoly:
        """Send each word w to t^phi(w)."""
        out: dict[int, int] = {}
        for w, c in self.terms:
            e = phi(w)
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)


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
    pres: Presentation, phi: ZMap, *, omit: str | None = None
) -> list[list[LaurentPoly]]:
    """Specialized Fox Jacobian: one row per relator, one column per generator
    other than ``omit``.

    Entry ``(r, g)`` equals ``fox_derivative(r, g).specialize(phi)``, built
    in one pass over the syllables of ``r`` that carries ``h``, the phi-value
    of the prefix read so far.  By the product rule a syllable ``g^e`` with
    ``v = phi(g)`` adds ``t^h + t^(h+v) + ... + t^(h+(e-1)v)`` to column
    ``g`` when ``e > 0`` and ``-(t^(h-v) + ... + t^(h+ev))`` when ``e < 0``;
    when ``v == 0`` both collapse to ``e t^h``, so a huge exponent on a
    generator of value 0 costs O(1).  A single letter, ``e = 1`` or
    ``e = -1``, adds its one term ``t^h`` or ``-t^(h-v)`` directly, with no
    loop.  Then ``h`` advances by ``e v``; over the syllables of ``omit`` it
    only advances, so they cost O(1) too.

    The walks of the other syllables add ``|e|`` terms each, so the
    Jacobian grows with the exponents, not with the input.  Once they would
    add more than ``WALK_BOUND`` terms in all, the matrix is refused with
    ``HypothesisError`` before the walk that crosses the bound.  At the
    bound, ``fiberkit alexander`` on ``x^2 y^-99999`` takes about 0.34 s
    and peaks at 80 MiB (2 cores, CPython 3.11.7).
    """
    kept = [g for g in pres.generators if g != omit]
    column = {g: j for j, g in enumerate(kept)}
    values = {g: phi(Word.gen(g)) for g in pres.generators}
    matrix = []
    walked = 0
    for relator in pres.relators:
        entries: list[dict[int, int]] = [{} for _ in kept]
        h = 0
        for g, e in relator.syllables:
            v = values[g]
            if g == omit:
                h += e * v
                continue
            acc = entries[column[g]]
            if v == 0 or e == 1:
                acc[h] = acc.get(h, 0) + e
            elif e == -1:
                acc[h - v] = acc.get(h - v, 0) - 1
            else:
                walked += abs(e)
                if walked > WALK_BOUND:
                    raise HypothesisError(
                        f"the Fox Jacobian would need more than {WALK_BOUND} terms"
                    )
                if e > 0:
                    for k in range(h, h + e * v, v):
                        acc[k] = acc.get(k, 0) + 1
                else:
                    for k in range(h - v, h + (e - 1) * v, -v):
                        acc[k] = acc.get(k, 0) - 1
            h += e * v
        matrix.append([LaurentPoly.from_dict(acc) for acc in entries])
    return matrix


def _det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Cofactor expansion along the first row, skipping zero entries.

    Each product ``entry * minor`` multiplies every term of one by every
    term of the other.  Once those products would multiply more than
    ``PRODUCT_BOUND`` pairs of terms in all, the determinant is refused
    with ``HypothesisError`` before the product that crosses the bound.
    """
    multiplied = 0

    def det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
        nonlocal multiplied
        n = len(matrix)
        if n == 0:
            return LaurentPoly.const(1)
        if n == 1:
            return matrix[0][0]
        total = LaurentPoly()
        for j, entry in enumerate(matrix[0]):
            if entry.is_zero:
                continue
            minor = det([[row[k] for k in range(n) if k != j] for row in matrix[1:]])
            multiplied += len(entry.terms) * len(minor.terms)
            if multiplied > PRODUCT_BOUND:
                raise HypothesisError(
                    f"the determinant would multiply more than {PRODUCT_BOUND} pairs of terms"
                )
            piece = entry * minor
            total = total + (piece if j % 2 == 0 else -piece)
        return total

    return det(matrix)


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
    phi = phi.normalized()
    n = len(pres.generators)
    k = len(pres.relators)
    if k > n - 1:
        raise HypothesisError(
            f"needs deficiency >= 1: {n} generators, {k} relators"
        )
    if k < n - 1:
        return LaurentPoly()

    deleted = next(g for g in pres.generators if phi.values[g] != 0)
    det = _det(alexander_matrix(pres, phi, omit=deleted))
    weight = phi.values[deleted]
    t_minus_1 = LaurentPoly.from_dict({1: 1, 0: -1})
    compensation = LaurentPoly.from_dict({weight: 1, 0: -1})
    return (det * t_minus_1).exact_div(compensation).normalize()

