"""Rank of the free kernel of a two-generator one-relator group.

For ``G = <x, y ; r>`` with the exponent sum of ``r`` in ``y`` nonzero,
the infinite cyclic quotient is unique and the rank of its kernel (when
finitely generated, hence free) can be chased down a chain of subgroups:
whenever every ``x``-exponent of ``r`` is divisible by ``e``, ``G`` is the
amalgam ``<x^e, y ; r> *_{x^e} <x>`` and the kernel ranks of ``G`` and of
the one-relator group on ``(x^e, y)`` are tied by an exact transfer
formula.  The base is a relator with exactly two syllables, where the rank
comes straight out of the coset graph of the obvious cyclic-edge amalgam.

``fiber_rank`` runs this recursion as one loop.  When neither the base case
nor a descent applies, it consumes a caller-supplied basis change of the
free group (a Nielsen move) and retries, and reports unknown once the hints
run out.

``invert_automorphism`` with its helpers ``_compose`` and
``_signed_basis_fix`` is not on that path: it is the heap-search oracle the
tests check ``validate_automorphism`` against, and ``LAYERS`` in
``bench/tracer.py`` names it, so moving it into the tests waits for a
change to the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from .errors import HintError, HypothesisError
from .presentations import Presentation, two_generator_relator
from .splittings import AMALGAM, free_kernel_rank
from .words import (
    Word,
    cancel_ends,
    concat,
    cyclic_reduce,
    exponent_sum,
    reduce_word,
    substitute,
)

__all__ = [
    "RelatorAnalysis",
    "analyze",
    "descend",
    "rank_transfer",
    "fiber_rank",
    "validate_automorphism",
    "invert_automorphism",
]


@dataclass(frozen=True)
class RelatorAnalysis:
    """Exponent data of a cyclically reduced relator over ``(x, y)``.

    ``p = m*a`` and ``q = m*b`` are the exponent sums, ``m = gcd(p, q)``,
    and ``e`` is the largest integer dividing every ``x``-exponent (1 when
    ``x`` does not occur), so the relator is a word in ``x^e`` and ``y``.
    """

    p: int
    q: int
    m: int
    a: int
    b: int
    e: int


def analyze(relator: Word, x: str, y: str) -> RelatorAnalysis:
    """One-pass exponent-sum analysis of a cyclically reduced relator over
    ``(x, y)``, in any rotation.

    Raises when the relator is not cyclically reduced or uses another
    generator, and when the exponent sum in ``y`` vanishes; nothing
    downstream is valid in that case.
    """
    sylls = relator.syllables
    # a reduced word is cyclically reduced unless its ends share a generator
    if len(sylls) > 1 and sylls[0][0] == sylls[-1][0]:
        raise HypothesisError(f"relator {relator} is not cyclically reduced")
    p = q = e = 0
    for g, exp in sylls:
        if g == x:
            p += exp
            e = gcd(e, exp)
        elif g == y:
            q += exp
        else:
            extra = sorted(relator.generators() - {x, y})
            raise HypothesisError(f"relator uses unexpected generators {extra}")
    if q == 0:
        raise HypothesisError(
            "exponent sum in the second generator is zero; "
            "the descent hypothesis fails"
        )
    m = gcd(p, q)
    return RelatorAnalysis(p=p, q=q, m=m, a=p // m, b=q // m, e=abs(e) or 1)


def descend(relator: Word, e: int, x: str, y: str, new_x: str) -> Word:
    """Rewrite ``r`` as a word in ``x^e`` and ``y``: divide every
    ``x``-exponent by ``e`` and rename ``x`` to ``new_x``.
    """
    if e < 1:
        raise HypothesisError("descent step must be positive")
    out = []
    for g, exp in relator.syllables:
        if g == x:
            if exp % e:
                raise HypothesisError(
                    f"exponent {exp} on {x!r} is not divisible by {e}"
                )
            out.append((new_x, exp // e))
        else:
            out.append((g, exp))
    return reduce_word(out)


def rank_transfer(ell: int, a: int, b: int, e: int) -> int:
    """Kernel rank upstairs from kernel rank ``ell`` downstairs:
    ``1 + gcd(a, e)*(ell - 1) + |b|*(e - 1)``.
    """
    if b == 0:
        raise HypothesisError("transfer needs a nonzero second exponent sum")
    if gcd(a, b) != 1:
        raise HypothesisError("transfer needs coprime reduced exponent sums")
    if e < 1:
        raise HypothesisError("transfer needs a positive descent step")
    k = 1 + gcd(a, e) * (ell - 1) + abs(b) * (e - 1)
    if k < 0:
        raise HypothesisError("inconsistent input: negative transferred rank")
    return k


# ---------------------------------------------------------------------------
# Nielsen moves

def _abelianized_determinant(images: Mapping[str, Word], x: str, y: str) -> int:
    return exponent_sum(images[x], x) * exponent_sum(images[y], y) - exponent_sum(
        images[x], y
    ) * exponent_sum(images[y], x)


def _compose(first: dict[str, Word], then: Mapping[str, Word], gens) -> dict[str, Word]:
    """Assignment for "apply ``then``, then ``first``" on each generator."""
    return {g: substitute(then[g], first) for g in gens}


def _signed_basis_fix(pair, gens) -> dict[str, Word] | None:
    """If ``pair`` is a signed permutation of the basis, return the move
    undoing it, else None."""
    seen = set()
    fix: dict[str, Word] = {}
    for g, w in zip(gens, pair):
        if len(w) != 1:
            return None
        target, sign = w.syllables[0]
        if target not in gens or target in seen:
            return None
        seen.add(target)
        fix[target] = Word.gen(g, sign)
    return fix


def invert_automorphism(
    images: Mapping[str, Word], x: str, y: str
) -> dict[str, Word] | None:
    """Invert a basis change of the free group on ``(x, y)``, or None.

    Explores elementary Nielsen moves on the image pair in order of total
    length, never letting it grow.  An image pair is a basis exactly when
    some such path lands on ``x^+-1, y^+-1`` in some order (length can
    always be brought down without climbing first), so exhausting the
    search space is a genuine "no".  Composing the moves along the
    successful path gives the inverse.
    """
    import heapq
    from itertools import count

    gens = (x, y)
    start = (images[x], images[y])
    if any(w.is_empty for w in start):
        return None

    identity = {x: Word.gen(x), y: Word.gen(y)}
    tick = count()
    heap = [(len(start[0]) + len(start[1]), next(tick), start, identity)]
    seen_states = set()
    while heap:
        total, _, pair, inv = heapq.heappop(heap)
        if pair in seen_states:
            continue
        seen_states.add(pair)

        fix = _signed_basis_fix(pair, gens)
        if fix is not None:
            return _compose(inv, fix, gens)

        for i, j in ((0, 1), (1, 0)):
            for sign in (1, -1):
                other = pair[j] if sign > 0 else pair[j].inverse()
                for left in (False, True):
                    cand = other * pair[i] if left else pair[i] * other
                    if cand.is_empty or len(cand) > len(pair[i]):
                        continue
                    new_pair = (cand, pair[j]) if i == 0 else (pair[j], cand)
                    if new_pair in seen_states:
                        continue
                    gi, gj = gens[i], gens[j]
                    tail = Word.gen(gj, sign)
                    move = {
                        gi: tail * Word.gen(gi) if left else Word.gen(gi) * tail,
                        gj: Word.gen(gj),
                    }
                    heapq.heappush(
                        heap,
                        (
                            len(new_pair[0]) + len(new_pair[1]),
                            next(tick),
                            new_pair,
                            _compose(inv, move, gens),
                        ),
                    )
    return None


def validate_automorphism(
    images: Mapping[str, Word], x: str, y: str
) -> dict[str, Word]:
    """Check a hint on ``(x, y)`` really is an automorphism; return its
    images of both generators, a generator the hint leaves out mapping to
    itself.

    Once the hint is known to move and use only ``x`` and ``y``, a
    two-stage check, linear in the length of the images: the abelianized
    2x2 matrix must have determinant +-1, then Nielsen's commutator
    criterion (J. Nielsen, Math. Ann. 78, 1917) decides whether the images
    ``(u, v)`` form a basis: they do exactly when ``u v u^-1 v^-1`` is
    conjugate to ``[x, y]`` or to its inverse ``[y, x]``.
    """
    unknown = set(images) - {x, y}
    if unknown:
        raise HintError(
            f"hint moves generators {sorted(unknown)}, expected {x!r}, {y!r}"
        )
    images = {
        x: images.get(x, Word.gen(x)),
        y: images.get(y, Word.gen(y)),
    }
    bad = (images[x].generators() | images[y].generators()) - {x, y}
    if bad:
        raise HintError(
            f"hint uses generators {sorted(bad)} outside {x!r}, {y!r}"
        )
    det = _abelianized_determinant(images, x, y)
    if det not in (1, -1):
        raise HintError(
            f"hint is not an automorphism: abelianized determinant {det}"
        )
    u, v = images[x], images[y]
    commutator = cyclic_reduce(concat(u, v, u.inverse(), v.inverse()), order=(x, y))
    # the least rotations of [x, y] = x y x^-1 y^-1 and [y, x] = y x y^-1 x^-1
    if commutator.syllables not in (
        ((x, 1), (y, 1), (x, -1), (y, -1)),
        ((x, 1), (y, -1), (x, -1), (y, 1)),
    ):
        raise HintError(
            "hint is not an automorphism: images do not form a basis"
        )
    return images


# ---------------------------------------------------------------------------
# The rank recursion

_DESCENT_NAMES = ("u", "v", "w")


def _two_syllable_rank(alpha: int, beta: int) -> int:
    """Base case ``x^alpha y^beta`` with coprime exponents.

    The group splits as an amalgam of two infinite cyclic groups over the
    cyclic subgroup generated by the relator's two halves; the kernel meets
    both factors trivially, so its rank is the free part of the coset
    graph.
    """
    a_idx, b_idx, c_idx = abs(beta), abs(alpha), abs(alpha * beta)
    return free_kernel_rank(AMALGAM, a_idx, b_idx, c_idx, 0, 0)


def fiber_rank(
    pres: Presentation,
    hints: Sequence[Mapping[str, Word]] = (),
) -> int | None:
    """Rank of the free kernel of the infinite cyclic quotient, or None.

    One loop over stages, each read off one ``analyze`` of the relator
    over the stage's generators ``(x, y)``:

    * two syllables ``x^alpha y^beta`` with coprime exponents: rank
      ``(|alpha| - 1)(|beta| - 1)`` straight from the coset graph, carried
      back up through every descent by ``rank_transfer``;
    * every ``x``-exponent divisible by ``e > 1``: descend to the relator
      in ``(x^e, y)``, with ``x`` renamed to the first of ``u, v, w`` not
      in use;
    * otherwise consume the next hint as a basis change and retry.

    The relator is kept cyclically reduced (``cancel_ends``) but never
    rotated: every step depends on it only up to conjugacy.  Each distinct
    hint is checked once per stage, against that stage's generators, when
    first consumed; the hints still pending are checked wherever the loop
    stops, at the base case or on a stage ``analyze`` refuses.

    None means the recursion ran out of rules and hints, not that the
    kernel is infinitely generated.
    """
    x, y, relator = two_generator_relator(pres)
    relator = cancel_ends(relator)
    pending = list(hints)
    descents: list[tuple[int, int, int]] = []
    checked: dict[frozenset, dict[str, Word]] = {}

    def images(hint: Mapping[str, Word]) -> dict[str, Word]:
        key = frozenset(hint.items())
        if key not in checked:
            checked[key] = validate_automorphism(hint, x, y)
        return checked[key]

    while True:
        try:
            data = analyze(relator, x, y)
        except HypothesisError:
            for hint in pending:
                images(hint)
            raise
        if len(relator.syllables) == 2 and data.m == 1:
            for hint in pending:
                images(hint)
            break
        if data.e > 1:
            descents.append((data.a, data.b, data.e))
            new_x = next(name for name in _DESCENT_NAMES if name not in (x, y))
            # descend keeps the syllable pattern, so no cancel_ends is needed
            relator = descend(relator, data.e, x, y, new_x)
            x = new_x
            checked.clear()
        elif pending:
            relator = cancel_ends(substitute(relator, images(pending.pop(0))))
        else:
            return None

    rank = _two_syllable_rank(data.p, data.q)
    for a, b, e in reversed(descents):
        rank = rank_transfer(rank, a, b, e)
    return rank
