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
run out.  It reads the exponent sums once, from the presentation, and
carries them through each hint and descent.  A reduced word on two
generators alternates between them, so the loop keeps the relator as its
exponents and the slot, ``x`` or ``y``, of the first, and applies an
elementary Nielsen move to that list in closed form (``_nielsen``).  A
hint is checked in one place, ``_checked``, which returns its images, its
abelianized matrix and, for an elementary move, the move ``_nielsen``
applies; ``validate_automorphism`` is its public face.

``invert_automorphism`` with its helpers ``_compose`` and
``_signed_basis_fix`` is not on that path: it is the heap-search oracle the
tests check ``validate_automorphism`` against, and ``LAYERS`` in
``bench/tracer.py`` names it, so moving it into the tests waits for a
change to the benchmark.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from . import words
from .errors import HintError, HypothesisError
from .presentations import Presentation, two_generator_relator
from .words import (
    Word,
    cancel_ends,
    concat,
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


class RelatorAnalysis(NamedTuple):
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
    """Exponent-sum analysis of a cyclically reduced relator over
    ``(x, y)``, in any rotation: the plain tuple of ``_analysis`` as a
    ``RelatorAnalysis``.

    Raises when the relator is not cyclically reduced or uses another
    generator, and when the exponent sum in ``y`` vanishes; nothing
    downstream is valid in that case.
    """
    sylls = relator.syllables
    # a reduced word is cyclically reduced unless its ends share a generator
    if len(sylls) > 1 and sylls[0][0] == sylls[-1][0]:
        raise HypothesisError(f"relator {relator} is not cyclically reduced")
    extra = relator.generators() - {x, y}
    if extra:
        raise HypothesisError(f"relator uses unexpected generators {sorted(extra)}")
    start, exps = _encoded(relator, x)
    return RelatorAnalysis(*_analysis(sum(exps[start::2]), sum(exps[start ^ 1 :: 2]),
                                      _x_divisor(exps, start)))


def _analysis(p: int, q: int, e: int) -> tuple[int, int, int, int, int, int]:
    """The plain tuple ``(p, q, m, a, b, e)`` of the exponent sums ``p, q``
    and the ``x``-divisor ``e``, refusing ``q = 0``: ``analyze`` wraps it in
    ``RelatorAnalysis``, and no stage of ``fiber_rank`` builds one."""
    if q == 0:
        raise HypothesisError(
            "exponent sum in the second generator is zero; "
            "the descent hypothesis fails"
        )
    m = gcd(p, q)
    return p, q, m, p // m, q // m, e


def _encoded(word: Word, x: str) -> tuple[int, list[int]]:
    """A reduced word on ``x`` = slot 0 and another generator = slot 1 as
    the slot of its first syllable and its exponents, which alternate."""
    sylls = word.syllables
    return int(bool(sylls) and sylls[0][0] != x), list(map(itemgetter(1), sylls))


def _x_divisor(exps: list[int], start: int) -> int:
    """The ``e`` of ``analyze``: the gcd of the ``x``-exponents of
    ``(start, exps)``, 1 when ``x`` does not occur."""
    return gcd(*exps[start::2]) or 1


def descend(relator: Word, e: int, x: str, y: str, new_x: str) -> Word:
    """Rewrite ``r`` as a word in ``x^e`` and ``y``: divide every
    ``x``-exponent by ``e`` and rename ``x`` to ``new_x``.  The ``Word``
    form of the descent ``fiber_rank`` makes on its exponent list.
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

_Matrix = tuple[int, int, int, int]


def _abelianized(images: Mapping[str, Word], x: str, y: str) -> _Matrix:
    """The abelianized 2x2 matrix of ``x -> u, y -> v`` as
    ``(eps_x(u), eps_y(u), eps_x(v), eps_y(v))``, ``eps_g`` the exponent sum
    in ``g``: a relator's sums ``(p, q)`` become
    ``(p eps_x(u) + q eps_x(v), p eps_y(u) + q eps_y(v))``."""
    u, v = images[x], images[y]
    return (exponent_sum(u, x), exponent_sum(u, y),
            exponent_sum(v, x), exponent_sum(v, y))


def _commutator_rotations(x: str, y: str) -> frozenset:
    """The eight rotations of ``[x, y]`` and ``[y, x]`` as syllable tuples,
    built for each hint that is not an elementary move."""
    # [x, y] = x y x^-1 y^-1 and [y, x] = y x y^-1 x^-1, each twice over so
    # that its four rotations are the windows of length 4
    xyxy = ((x, 1), (y, 1), (x, -1), (y, -1)) * 2
    yxyx = ((y, 1), (x, 1), (y, -1), (x, -1)) * 2
    return frozenset(w[i : i + 4] for w in (xyxy, yxyx) for i in range(4))


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
    if not all(start):
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
                    if not cand or len(cand) > len(pair[i]):
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

    Once the hint is known to move only ``x`` and ``y``, a shape test
    settles the elementary moves: one generator ``g`` fixed and the
    other ``h`` sent to ``a h^+-1 b`` with ``a``, ``b`` powers of ``g`` is
    an automorphism by construction, of determinant +-1.  Every other hint
    must have an abelianized 2x2 matrix of determinant +-1, and then goes
    through Nielsen's commutator criterion (J. Nielsen, Math. Ann. 78,
    1917), linear in the length of the images: ``(u, v)`` is a basis
    exactly when ``u v u^-1 v^-1`` is conjugate to ``[x, y]`` or to its
    inverse ``[y, x]``.  A cyclically reduced conjugate of a cyclically
    reduced word is one of its rotations, so the check is a lookup of the
    commutator, cancelled across its ends, among the eight rotations of
    the two.
    """
    return _checked(images, x, y)[0]


def _checked(images: Mapping[str, Word], x: str, y: str
             ) -> tuple[dict[str, Word], _Matrix, tuple | None]:
    """``validate_automorphism`` with what ``fiber_rank`` keeps of a checked
    hint: its images, its abelianized matrix and, for an elementary move,
    the ``(moved slot, i, s, j)`` of ``_nielsen``, whose matrix is read off
    the shape.  The shape test may precede the check for generators outside
    ``x, y``: an elementary shape names only ``x`` and ``y``, and every
    other hint meets that check before its determinant."""
    unknown = set(images) - {x, y}
    if unknown:
        raise HintError(
            f"hint moves generators {sorted(unknown)}, expected {x!r}, {y!r}"
        )
    u = images[x] if x in images else words._word(((x, 1),))
    v = images[y] if y in images else words._word(((y, 1),))
    images = {x: u, y: v}
    for moved, (g, h) in enumerate(((y, x), (x, y))):
        shape = _elementary(images[g], images[h], g, h)
        if shape:
            i, s, j = shape
            return images, ((s, i + j, 0, 1), (1, 0, i + j, s))[moved], (moved, i, s, j)
    bad = (u.generators() | v.generators()) - {x, y}
    if bad:
        raise HintError(
            f"hint uses generators {sorted(bad)} outside {x!r}, {y!r}"
        )
    matrix = ux, uy, vx, vy = _abelianized(images, x, y)
    det = ux * vy - uy * vx
    if det not in (1, -1):
        raise HintError(
            f"hint is not an automorphism: abelianized determinant {det}"
        )
    commutator = cancel_ends(concat(u, v, u.inverse(), v.inverse())).syllables
    if commutator not in _commutator_rotations(x, y):
        raise HintError(
            "hint is not an automorphism: images do not form a basis"
        )
    return images, matrix, None


def _elementary(fixed: Word, moved: Word, g: str, h: str) -> tuple[int, int, int] | None:
    """``(i, s, j)`` when ``fixed`` is ``g`` and ``moved`` is
    ``g^i h^s g^j`` with ``s`` = +-1, else None.  A reduced word on ``g``
    and ``h`` alternates between them, so it has that shape exactly when
    ``h`` occurs in one syllable, of exponent +-1.  Only ``g`` may stand
    beside that syllable, so an image on any other generator fails."""
    sylls = moved.syllables
    if fixed.syllables != ((g, 1),) or not sylls:
        return None
    i = sylls[0][1] if sylls[0][0] == g else 0
    j = sylls[-1][1] if len(sylls) > 1 and sylls[-1][0] == g else 0
    if len(sylls) != 1 + (i != 0) + (j != 0):
        return None
    k, s = sylls[i != 0]
    return (i, s, j) if k == h and s in (1, -1) else None


def _nielsen(start: int, exps: list[int], moved: int, i: int, s: int, j: int
             ) -> tuple[int, list[int]]:
    """The cyclically reduced relator ``(start, exps)`` under the
    elementary move ``h -> g^i h^s g^j``, ``h`` in slot ``moved``.

    ``h^a`` goes to ``g^i (h^s g^(i+j))^(a-1) h^s g^j`` (for ``a < 0``,
    with ``(-j, -s, -i)`` for ``(i, s, j)``).  Every ``h``-letter
    survives: between letters of opposite sign the move leaves the
    relator's own ``g``-exponent, so a ``g``-exponent that vanishes only
    merges two ``h``-syllables of one sign, and nothing cancels further.
    For ``i = -j`` the move conjugates ``h`` by ``g^i``, which cancels
    around each ``g``-syllable of a cyclic word: only the signs of the
    ``h``-exponents change.  Refused, before any image is built, exactly
    when ``substitute`` refuses it.
    """
    o = start ^ moved
    hs = exps[o::2]
    if not hs:
        return start, exps
    size, step = 1 + (i != 0) + (j != 0), 2 * (i + j != 0)
    longest = max(map(abs, hs))
    if step:
        words._check_growth(size * (longest - 1))  # as Word.__pow__
    # while every power is at most this long, the powers keep inside the
    # bound, so only a longer one needs the count substitute makes
    if size + step * (longest - 1) > words.SYLLABLE_BOUND // len(exps) + 1:
        words._check_growth(len(hs) * (size - 1) + step * (sum(map(abs, hs)) - len(hs)))
    if not step:
        out = exps[:]
        out[o::2] = [s * a for a in hs]
        return start, out
    # each h-exponent with the g-exponent after it, cyclically
    after = (exps[1::2] or [0]) if o == 0 else exps[2::2] + exps[:1]
    # out holds (g, h) pairs; a g-exponent adds up in carry until the next h
    forward, backward = (i, s, j), (-j, -s, -i)
    out, carry = [], 0
    for a, b in zip(hs, after):
        first, t, last = forward if a > 0 else backward
        v = carry + first
        carry = b + last
        if v or not out:
            out += (v, t)
        else:
            out[-1] += t
        if a != 1 and a != -1:
            out += (first + last, t) * (abs(a) - 1)
    out[0] += carry
    if out[0]:
        return moved ^ 1, out
    # the g-exponent that closes the cycle vanished: merge the h at the ends
    if len(out) > 2:
        out[1] += out.pop()
    return moved, out[1:]


# ---------------------------------------------------------------------------
# The rank recursion

_DESCENT_NAMES = ("u", "v", "w")


def fiber_rank(
    pres: Presentation,
    hints: Sequence[Mapping[str, Word]] = (),
) -> int | None:
    """Rank of the free kernel of the infinite cyclic quotient, or None.

    One loop over stages, each decided by the exponent sums ``p, q`` of
    the relator over the stage's generators ``(x, y)`` and its
    ``x``-divisor ``e``, the data ``analyze`` reads off a relator:

    * two syllables ``x^alpha y^beta`` with coprime exponents: rank
      ``(|alpha| - 1)(|beta| - 1)`` straight from the coset graph, carried
      back up through every descent by ``rank_transfer``;
    * every ``x``-exponent divisible by ``e > 1``: descend to the relator
      in ``(x^e, y)``, with ``x`` renamed to the first of ``u, v, w`` not
      in use;
    * otherwise consume the next hint as a basis change and retry.

    ``p, q`` are read off the presentation's exponent-sum rows and then
    carried: a hint maps them through its abelianized matrix, which
    ``_checked`` returns beside its images and, for an elementary move, the
    move of ``_nielsen``; a descent by ``e`` divides ``p`` by ``e``.  The
    relator is kept as its exponents and the slot of the first: ``e`` is
    the gcd of the ``x``-slot entries, which a descent divides by ``e``
    (the new name only meets the hints).  A hint that is not elementary
    goes through ``substitute`` on a ``Word``.  The relator stays
    cyclically reduced, which keeps the exponent sums, but is never
    rotated: every step depends on it only up to conjugacy.  Each distinct
    hint is checked once per stage, against that stage's generators, when
    first consumed, and the stage keeps the result of that one check; the
    hints still pending are checked wherever the loop stops, at the base
    case or on a stage with a zero ``y``-sum, which is refused with the
    message of ``analyze``.

    None means the recursion ran out of rules and hints, not that the
    kernel is infinitely generated.
    """
    x, y, relator = two_generator_relator(pres)
    start, exps = _encoded(cancel_ends(relator), x)
    p, q = pres.exponent_matrix()[0]
    pending = list(hints)
    descents: list[tuple[int, int, int]] = []
    checked: dict[frozenset, tuple] = {}

    def check(hint: Mapping[str, Word]) -> tuple:
        key = frozenset(hint.items())
        if key not in checked:
            checked[key] = _checked(hint, x, y)
        return checked[key]

    while True:
        e = _x_divisor(exps, start)
        try:
            _, _, m, a, b, _ = _analysis(p, q, e)
        except HypothesisError:
            for hint in pending:
                check(hint)
            raise
        if len(exps) == 2 and m == 1:
            for hint in pending:
                check(hint)
            break
        if e > 1:
            descents.append((a, b, e))
            x = next(name for name in _DESCENT_NAMES if name not in (x, y))
            exps[start::2] = [a // e for a in exps[start::2]]
            p //= e
            checked.clear()
        elif pending:
            full, (ux, uy, vx, vy), move = check(pending.pop(0))
            if move:
                start, exps = _nielsen(start, exps, *move)
            else:
                word = Word(tuple(((x, y)[start ^ k & 1], a) for k, a in enumerate(exps)))
                start, exps = _encoded(cancel_ends(substitute(word, full)), x)
            p, q = p * ux + q * vx, p * uy + q * vy
        else:
            return None

    # x^p y^q is <x> *_{x^p = y^-q} <y>, whose kernel meets both factors
    # trivially: rank 1 - chi with indices |q|, |p| and |p q|
    rank = (abs(p) - 1) * (abs(q) - 1)
    for a, b, e in reversed(descents):
        rank = rank_transfer(rank, a, b, e)
    return rank
