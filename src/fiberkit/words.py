"""Freely reduced words in a free group.

A word is stored as a tuple of syllables ``(generator, exponent)`` with
nonzero exponents and distinct adjacent generators.  Words are immutable
and hashable, so they can serve as keys in group-ring elements.

``_Value`` is the one home of the immutable-value protocol that ``Word``,
``Presentation`` and ``Splitting`` share: equality by class and compared
fields, hash, refused assignment and deletion, copy and pickle, and repr.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import HypothesisError

__all__ = [
    "Word",
    "reduce_word",
    "concat",
    "exponent_sum",
    "substitute",
    "cancel_ends",
    "cyclic_reduce",
]

Syllable = tuple[str, int]

SYLLABLE_BOUND = 500_000
"""The most syllables a power or a substitution may put together before
free reduction beyond the syllables of its word; past it they raise
``HypothesisError``, so a word that is already long is not refused for
its own length.  At the bound, a power takes about 0.085 s and a process
peaks at about 57 MiB of resident memory, from 15 MiB before (CPython
3.11.7, 2 cores)."""


class _Value:
    """An immutable value.  A subclass names its compared fields in
    ``_fields`` and returns them as a tuple from ``_key``, which its
    constructor takes positionally in the same order.  It is equal only to
    its own class with an equal key, hashed as the key, rebuilt by copy and
    pickle from the key, and shown as ``Class(field=value, ...)``.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key()))
        return f"{self.__class__.__name__}({fields})"


class Word(_Value):
    """A freely reduced word.

    >>> Word.of(("x", 2), ("y", -1))
    Word('x^2 y^-1')
    >>> Word.of(("x", 1), ("x", 1))
    Word('x^2')
    """

    __slots__ = _fields = ("syllables",)

    def __init__(self, syllables: tuple[Syllable, ...] = ()):
        for i, (gen, exp) in enumerate(syllables):
            if exp == 0:
                raise ValueError(f"zero exponent on generator {gen!r}")
            if i > 0 and syllables[i - 1][0] == gen:
                raise ValueError(f"word not freely reduced at syllable {i}")
        object.__setattr__(self, "syllables", syllables)

    def _key(self) -> tuple:
        return (self.syllables,)

    @classmethod
    def of(cls, *syllables: Syllable) -> "Word":
        return reduce_word(syllables)

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        return cls(((name, exp),)) if exp else cls()

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, n: int) -> "Word":
        """The word itself for ``n = 1`` and its inverse for ``n = -1``.
        Otherwise linear in the result: split ``self = u c u^-1`` where
        ``c`` does not start and end with inverse syllables, then emit
        ``u c^n u^-1``.  Copies of ``c`` merge at most one syllable pair
        per seam, and a one-syllable ``c = g^e`` collapses to ``g^(e n)``.
        A power whose ``c^n`` would put together more than
        ``SYLLABLE_BOUND`` syllables beyond those of ``c`` is refused
        before it is built.
        """
        if n == 1:
            return self
        if n < 0:
            return self.inverse() if n == -1 else self.inverse() ** (-n)
        s = self.syllables
        k = _conjugate_depth(s)
        core = s[k : len(s) - k]
        if len(core) == 1:
            core = ((core[0][0], core[0][1] * n),)
        else:
            _check_growth(len(core) * (n - 1))
            core = core * n
        return reduce_word(s[:k] + core + s[len(s) - k :])

    def inverse(self) -> "Word":
        return _word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __len__(self) -> int:
        """Letter length, i.e. the sum of absolute exponents."""
        return sum(abs(e) for _, e in self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def generators(self) -> set[str]:
        return {g for g, _ in self.syllables}

    def letters(self) -> list[tuple[str, int]]:
        """Expand to single letters ``(gen, +1)`` / ``(gen, -1)``."""
        out = []
        for g, e in self.syllables:
            step = 1 if e > 0 else -1
            out.extend([(g, step)] * abs(e))
        return out

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def _word(syllables: tuple[Syllable, ...]) -> Word:
    """A ``Word`` on syllables its caller built freely reduced, unchecked."""
    word = object.__new__(Word)
    object.__setattr__(word, "syllables", syllables)
    return word


def _conjugate_depth(s: tuple[Syllable, ...]) -> int:
    """The syllable length of ``u`` in the split ``u c u^-1`` of
    ``Word.__pow__``."""
    k = 0
    while 2 * k + 1 < len(s) and s[k] == (s[-1 - k][0], -s[-1 - k][1]):
        k += 1
    return k


def _check_growth(syllables: int) -> None:
    if syllables > SYLLABLE_BOUND:
        raise HypothesisError(
            f"the word would grow by more than {SYLLABLE_BOUND} syllables"
        )


def reduce_word(syllables: Iterable[Syllable]) -> Word:
    """Freely reduce a raw syllable sequence.

    Idempotent, and never lengthens: merges adjacent syllables on the same
    generator and drops anything with exponent zero.  Linear: each
    syllable is pushed on the stack and popped from it at most once.

    >>> str(reduce_word([("x", 1), ("x", 1), ("y", -1), ("y", 1)]))
    'x^2'
    """
    stack: list[Syllable] = []
    for gen, exp in syllables:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    return _word(tuple(stack))


def concat(*words: Word) -> Word:
    pieces: list[Syllable] = []
    for w in words:
        pieces.extend(w.syllables)
    return reduce_word(pieces)


def exponent_sum(word: Word, gen: str) -> int:
    """Total exponent of ``gen`` in ``word``; additive under concatenation."""
    return sum(e for g, e in word.syllables if g == gen)


def substitute(word: Word, images: Mapping[str, Word]) -> Word:
    """Apply a generator assignment and freely reduce the image.

    Every generator occurring in ``word`` must have an image.  A syllable
    ``g^e`` contributes ``images[g] ** e``, bounded as ``Word.__pow__``
    bounds it.  Before any power is built, the powers are counted
    (``_substituted_size``), and the substitution is refused when they
    would put together more than ``SYLLABLE_BOUND`` syllables beyond the
    syllables of ``word``.  ``one_relator.fiber_rank`` calls it only for a
    hint that is not an elementary Nielsen move; ``one_relator._nielsen``
    applies those, and refuses exactly what this refuses.
    """
    sylls = word.syllables
    _check_growth(_substituted_size(sylls, images) - len(sylls))
    pieces: list[Syllable] = []
    for g, e in sylls:
        if g not in images:
            raise ValueError(f"no image given for generator {g!r}")
        pieces.extend((images[g] ** e).syllables)
    return reduce_word(pieces)


def _substituted_size(syllables: Sequence[Syllable], images: Mapping[str, Word]) -> int:
    """How many syllables ``substitute`` puts together before its last
    reduction, counted without building a power.  ``images[g] ** e`` with
    the image split as ``u c u^-1`` and ``|e| > 1`` has ``2 len(u) +
    |e| len(c)`` syllables, less one for each of the ``|e| - 1`` seams
    when ``c`` starts and ends on one generator; a one-syllable ``c`` and
    ``|e| = 1`` leave as many as the image."""
    shapes = {}
    for g, image in images.items():
        s = image.syllables
        k = _conjugate_depth(s)
        core = len(s) - 2 * k
        shapes[g] = (len(s), core, core - (core > 1 and s[k][0] == s[-1 - k][0]))
    total = 0
    for g, e in syllables:
        if g in shapes:
            size, core, step = shapes[g]
            total += size if core < 2 else size + step * (abs(e) - 1)
    return total


def _least_rotation(keys: Sequence) -> int:
    """Start of the lexicographically least rotation of ``keys``.

    Compares the rotations at candidate starts ``i < j`` key by key.  If
    they first differ after ``k`` equal keys, neither the larger one's
    start nor the ``k`` starts after it can be least, and the scan moves
    past them: ``i + j``, below ``2 n``, grows by at least the ``k + 1``
    keys compared, so the scan is linear.  After ``n`` equal keys the keys
    have period ``j - i``, and ``i`` is least.
    """
    n = len(keys)
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = keys[(i + k) % n], keys[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return i


def cancel_ends(word: Word) -> Word:
    """A cyclically reduced conjugate of ``word``, in no canonical rotation.

    Cancels across the ends until the first and last syllables live on
    different generators, in time linear in the number of syllables.  A
    syllable merged across the ends comes first.

    >>> str(cancel_ends(Word.of(("y", 3), ("x", 1), ("y", -1))))
    'y^2 x'
    >>> str(cancel_ends(Word.of(("x", 1), ("y", 1), ("x", -1))))
    'y'
    """
    s = word.syllables
    i, j = 0, len(s) - 1
    while i < j and s[i][0] == s[j][0]:
        exp = s[i][1] + s[j][1]
        if exp:
            # the middle is reduced, so neither of its ends is on this generator
            return _word(((s[i][0], exp),) + s[i + 1 : j])
        i, j = i + 1, j - 1
    return _word(s[i : j + 1]) if i else word


def cyclic_reduce(word: Word, order: Sequence[str] | None = None) -> Word:
    """Shortest cyclic conjugate of ``word`` in a canonical rotation.

    First cancels across the ends (``cancel_ends``), then picks the
    lexicographically least letter rotation (generator precedence given by
    ``order``, alphabetical when omitted; positive letters precede negative
    ones).

    With two or more syllables left, the least letter rotation starts at a
    syllable boundary, so it is found in time linear in the number of
    syllables, whatever the exponents.  Syllable ``(g, e)`` has letter type
    ``t = (rank of g, 0 if e > 0 else 1)``; when the type of the cyclically
    next syllable is below ``t`` its key is ``(t, 0, |e|)``, else
    ``(t, 1, -|e|)``.  Comparing key sequences orders syllable rotations
    exactly as comparing their letter expansions does, and
    ``_least_rotation`` finds the least rotation of the key sequence; a key
    names its syllable, so every least start gives the same word.

    >>> str(cyclic_reduce(Word.of(("u", 1), ("y", 3), ("u", 1))))
    'u^2 y^3'
    >>> str(cyclic_reduce(Word.of(("x", 1), ("y", 1), ("x", -1))))
    'y'
    """
    word = cancel_ends(word)
    s = word.syllables
    if len(s) <= 1:
        return word

    if order is None:
        order = sorted({g for g, _ in s})
    # letter type (rank, sign) packed as 2 * rank + sign
    rank = {g: 2 * r for r, g in enumerate(order)}
    types = [rank[g] + (e < 0) for g, e in s]
    keys = [
        (t, 0, abs(e)) if nxt < t else (t, 1, -abs(e))
        for t, nxt, (_, e) in zip(types, types[1:] + types[:1], s)
    ]
    start = _least_rotation(keys)
    return _word(s[start:] + s[:start]) if start else word
