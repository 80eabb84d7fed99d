"""Freely reduced words in a free group.

A word is stored as a tuple of syllables ``(generator, exponent)`` with
nonzero exponents and distinct adjacent generators.  Words are immutable
and hashable, so they can serve as keys in group-ring elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Word",
    "reduce_word",
    "concat",
    "exponent_sum",
    "substitute",
    "cyclic_reduce",
]

Syllable = tuple[str, int]


@dataclass(frozen=True)
class Word:
    """A freely reduced word.

    >>> Word.of(("x", 2), ("y", -1))
    Word('x^2 y^-1')
    >>> Word.of(("x", 1), ("x", 1))
    Word('x^2')
    """

    syllables: tuple[Syllable, ...] = ()

    def __post_init__(self):
        for i, (gen, exp) in enumerate(self.syllables):
            if exp == 0:
                raise ValueError(f"zero exponent on generator {gen!r}")
            if i > 0 and self.syllables[i - 1][0] == gen:
                raise ValueError(f"word not freely reduced at syllable {i}")

    @classmethod
    def of(cls, *syllables: Syllable) -> "Word":
        return reduce_word(syllables)

    @classmethod
    def gen(cls, name: str, exp: int = 1) -> "Word":
        return cls(((name, exp),)) if exp else cls()

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __pow__(self, n: int) -> "Word":
        """Linear in the result: split ``self = u c u^-1`` where ``c`` does
        not start and end with inverse syllables, then emit ``u c^n u^-1``.
        Copies of ``c`` merge at most one syllable pair per seam, and a
        one-syllable ``c = g^e`` collapses to ``g^(e n)``.
        """
        if n < 0:
            return self.inverse() ** (-n)
        s = self.syllables
        k = 0
        while 2 * k + 1 < len(s) and s[k] == (s[-1 - k][0], -s[-1 - k][1]):
            k += 1
        core = s[k : len(s) - k]
        if len(core) == 1:
            core = ((core[0][0], core[0][1] * n),)
        else:
            core = core * n
        return reduce_word(s[:k] + core + s[len(s) - k :])

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __len__(self) -> int:
        """Letter length, i.e. the sum of absolute exponents."""
        return sum(abs(e) for _, e in self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    @property
    def is_empty(self) -> bool:
        return not self.syllables

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


def reduce_word(syllables: Iterable[Syllable]) -> Word:
    """Freely reduce a raw syllable sequence.

    Idempotent, and never lengthens: merges adjacent syllables on the same
    generator and drops anything with exponent zero.

    >>> str(reduce_word([("x", 1), ("x", 1), ("y", -1), ("y", 1)]))
    'x^2'
    """
    stack: list[list] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return Word(tuple((g, e) for g, e in stack))


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

    Every generator occurring in ``word`` must have an image.
    """
    pieces: list[Syllable] = []
    for g, e in word.syllables:
        if g not in images:
            raise ValueError(f"no image given for generator {g!r}")
        img = images[g] if e > 0 else images[g].inverse()
        for _ in range(abs(e)):
            pieces.extend(img.syllables)
    return reduce_word(pieces)


def _rotation_key(letters: Sequence[tuple[str, int]], order: Sequence[str]):
    rank = {g: i for i, g in enumerate(order)}
    # positive letters sort before negative ones on the same generator
    return [(rank[g], 0 if s > 0 else 1) for g, s in letters]


def cyclic_reduce(word: Word, order: Sequence[str] | None = None) -> Word:
    """Shortest cyclic conjugate of ``word`` in a canonical rotation.

    First cancels across the ends until the first and last syllables live on
    different generators, then picks the lexicographically least letter
    rotation (generator precedence given by ``order``, alphabetical when
    omitted; positive letters precede negative ones).

    >>> str(cyclic_reduce(Word.of(("u", 1), ("y", 3), ("u", 1))))
    'u^2 y^3'
    >>> str(cyclic_reduce(Word.of(("x", 1), ("y", 1), ("x", -1))))
    'y'
    """
    sylls = list(word.syllables)
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        gen = sylls[0][0]
        exp = sylls[0][1] + sylls[-1][1]
        middle = sylls[1:-1]
        sylls = ([(gen, exp)] if exp else []) + middle
        # the middle was reduced, so only the new ends can interact further
    reduced = reduce_word(sylls)
    if len(reduced.syllables) <= 1:
        return reduced

    letters = reduced.letters()
    if order is None:
        order = sorted(reduced.generators())
    n = len(letters)
    best = min(
        range(n),
        key=lambda i: _rotation_key(letters[i:] + letters[:i], order),
    )
    rotated = letters[best:] + letters[:best]
    return reduce_word(rotated)
