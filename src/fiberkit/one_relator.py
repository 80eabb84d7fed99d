"""Rank of the free kernel of a two-generator one-relator group.

For ``G = <x, y ; r>`` with the exponent sum of ``r`` in ``y`` nonzero,
the infinite cyclic quotient is unique and the rank of its kernel (when
finitely generated, hence free) can be chased down a chain of subgroups:
whenever every ``x``-exponent of ``r`` is divisible by ``e``, the group
embeds the one-relator group on ``(x^e, y)`` and the two kernel ranks are
tied by an exact transfer formula.  The base of the recursion is a relator
with exactly two syllables, where the rank comes straight out of the coset
graph of the obvious cyclic-edge amalgam.

The recursion does not try to be clever: when neither the base case nor a
descent applies, it consumes a caller-supplied basis change of the free
group (a Nielsen move) and retries, and reports unknown once the hints run
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from .errors import HintError, HypothesisError
from .presentations import Presentation
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
    """Exponent-sum analysis of a cyclically reduced two-letter relator.

    Raises when the exponent sum in ``y`` vanishes; nothing downstream is
    valid in that case.
    """
    if cyclic_reduce(relator, order=(x, y)) != relator:
        raise HypothesisError(f"relator {relator} is not cyclically reduced")
    return _exponent_data(relator, x, y)


def _exponent_data(relator: Word, x: str, y: str) -> RelatorAnalysis:
    """``analyze`` for a relator its caller has just cyclically reduced."""
    p = q = e = 0
    for g, exp in relator.syllables:
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
    """Check a hint really is an automorphism; return its images of both
    generators, a generator the hint leaves out mapping to itself.

    Two-stage check, linear in the length of the images: the abelianized
    2x2 matrix must have determinant +-1, then Nielsen's commutator
    criterion (J. Nielsen, Math. Ann. 78, 1917) decides whether the images
    ``(u, v)`` form a basis: they do exactly when ``u v u^-1 v^-1`` is
    conjugate to ``[x, y]`` or to its inverse ``[y, x]``.
    """
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


def _fresh_name(taken: set[str]) -> str:
    """First unused name from u, v, w, u1, v1, w1, ...

    Descending from generators ``(x, y)`` names the new generator ``u``;
    descending again from ``(u, y)`` names it ``v``, and so on.
    """
    suffix = 0
    while True:
        for base in _DESCENT_NAMES:
            candidate = base if suffix == 0 else f"{base}{suffix}"
            if candidate not in taken:
                return candidate
        suffix += 1


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

    Recursion, on the relator over generators ``(x, y)``:

    * two syllables ``x^alpha y^beta`` with coprime exponents: rank
      ``(|alpha| - 1)(|beta| - 1)`` straight from the coset graph;
    * every ``x``-exponent divisible by ``e > 1``: descend to the relator
      in ``(x^e, y)``, recurse, and transfer the rank back up;
    * otherwise consume the next hint as a basis change and retry.

    The relator is kept cyclically reduced but not rotated to canonical
    form (``cancel_ends``, not ``cyclic_reduce``): the base case, the
    exponent data, the descent and a hint's image all depend on it only up
    to conjugacy.

    Hints are checked against the generators of the stage that meets them:
    each distinct hint once per stage, when the recursion first consumes
    it, and every hint still pending when the recursion reaches its base
    case, so a hint that is not an automorphism is refused whether or not
    it is needed.

    None means the recursion ran out of rules and hints, not that the
    kernel is infinitely generated.
    """
    if len(pres.generators) != 2 or len(pres.relators) != 1:
        raise HypothesisError(
            "rank recursion needs a two-generator one-relator presentation"
        )
    x, y = pres.generators
    relator = cancel_ends(pres.relators[0])
    pending = list(hints)
    checked: dict[frozenset, dict[str, Word]] = {}

    while True:
        sylls = relator.syllables
        if len(sylls) == 2 and {sylls[0][0], sylls[1][0]} == {x, y}:
            alpha = exponent_sum(relator, x)
            beta = exponent_sum(relator, y)
            if gcd(alpha, beta) == 1:
                for hint in pending:
                    _checked_hint(hint, x, y, checked)
                return _two_syllable_rank(alpha, beta)

        data = _exponent_data(relator, x, y)
        if data.e > 1:
            new_x = _fresh_name({x, y})
            # the recursive call cyclically reduces the descended relator
            descended = descend(relator, data.e, x, y, new_x)
            sub = fiber_rank(Presentation((new_x, y), (descended,)), pending)
            if sub is None:
                return None
            return rank_transfer(sub, data.a, data.b, data.e)

        if not pending:
            return None
        full = _checked_hint(pending.pop(0), x, y, checked)
        relator = cancel_ends(substitute(relator, full))


def _checked_hint(
    hint: Mapping[str, Word], x: str, y: str, checked: dict
) -> dict[str, Word]:
    """The image map of ``hint`` on ``(x, y)``, validated the first time this
    stage meets the hint and looked up in ``checked`` after that."""
    key = frozenset(hint.items())
    full = checked.get(key)
    if full is None:
        unknown = set(hint) - {x, y}
        if unknown:
            raise HintError(
                f"hint moves generators {sorted(unknown)}, expected {x!r}, {y!r}"
            )
        full = checked[key] = validate_automorphism(hint, x, y)
    return full
