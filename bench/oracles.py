"""Independent oracles for the benchmark's output checks.

Nothing here imports fiberkit.  Polynomials are plain coefficient lists
(index = exponent) over the integers, and every closed form is reached by
exact division only, so a wrong answer from the Fox pipeline cannot leak
into the value it is checked against.
"""

from __future__ import annotations

from math import gcd


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def poly_exact_div(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials; raises unless it divides exactly."""
    num = list(num)
    lead = den[-1]
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        coeff, rem = divmod(num[i + len(den) - 1], lead)
        if rem:
            raise ArithmeticError("division leaves a fractional coefficient")
        quot[i] = coeff
        for k, d in enumerate(den):
            num[i + k] -= coeff * d
    if any(num):
        raise ArithmeticError("division leaves a remainder")
    return _trim(quot)


def _trim(p: list[int]) -> list[int]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def t_power_minus_one(n: int) -> list[int]:
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(p: int, q: int) -> list[int]:
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)); equals 1 when p or q is 1."""
    num = poly_mul(t_power_minus_one(p * q), t_power_minus_one(1))
    return poly_exact_div(poly_exact_div(num, t_power_minus_one(p)), t_power_minus_one(q))


def substitute_power(p: list[int], q: int) -> list[int]:
    """p(t^q)."""
    out = [0] * ((len(p) - 1) * q + 1)
    for i, c in enumerate(p):
        out[i * q] = c
    return out


def cable_alexander(base: tuple[int, int], cables) -> list[int]:
    """Alexander polynomial of iterated cables of the torus knot ``base``.

    A ``(p, q)`` cable winds ``q`` times around its companion ``K``, so
    Delta = Delta_K(t^q) * Delta_T(p,q)(t).
    """
    delta = torus_alexander(*base)
    for p, q in cables:
        delta = poly_mul(substitute_power(delta, q), torus_alexander(p, q))
    return delta


def format_poly(p: list[int]) -> str:
    """Ascending text form, e.g. ``1 - t + t^2``; normalized so the lowest
    exponent is 0 and the top coefficient is positive."""
    lo = next(i for i, c in enumerate(p) if c)
    p = p[lo:]
    if p[-1] < 0:
        p = [-c for c in p]
    parts = []
    for e, c in enumerate(p):
        if not c:
            continue
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


def poly_span(p: list[int]) -> int:
    nonzero = [i for i, c in enumerate(p) if c]
    return nonzero[-1] - nonzero[0]


def base_case_rank(alpha: int, beta: int) -> int:
    """Kernel rank of <x, y | x^alpha y^beta> for coprime exponents."""
    if gcd(alpha, beta) != 1:
        raise ValueError("exponents must be coprime")
    return (abs(alpha) - 1) * (abs(beta) - 1)


# ---------------------------------------------------------------------------
# Words as syllable lists, for building Nielsen-scrambled relators

def cyclic_free_reduce(syllables) -> list[tuple[str, int]]:
    """Freely and cyclically reduce a syllable list (rotation untouched)."""
    stack: list[tuple[str, int]] = []
    for gen, exp in syllables:
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged:
                stack.append((gen, merged))
        elif exp:
            stack.append((gen, exp))
    while len(stack) >= 2 and stack[0][0] == stack[-1][0]:
        gen, exp = stack[0][0], stack[0][1] + stack[-1][1]
        stack = ([(gen, exp)] if exp else []) + stack[1:-1]
    return stack


def inverse(word):
    return [(g, -e) for g, e in reversed(word)]


def substitute(word, images) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for gen, exp in word:
        image = images[gen] if exp > 0 else inverse(images[gen])
        out.extend(image * abs(exp))
    return cyclic_free_reduce(out)


def letters(word) -> int:
    return sum(abs(e) for _, e in word)


def format_word(word) -> str:
    return " ".join(g if e == 1 else f"{g}^{e}" for g, e in word) or "1"


def _elementary_moves():
    """Each elementary Nielsen move on (x, y) with the move undoing it."""
    moves = []
    for a, b in (("x", "y"), ("y", "x")):
        for s in (1, -1):
            moves.append(({a: [(a, 1), (b, s)], b: [(b, 1)]}, (a, [(a, 1), (b, -s)])))
            moves.append(({a: [(b, s), (a, 1)], b: [(b, 1)]}, (a, [(b, -s), (a, 1)])))
    return moves


MOVES = _elementary_moves()


def _rank_recursion_applies_early(word) -> bool:
    """True when the rank recursion would stop or descend on ``word``
    before consuming the remaining hints: two syllables, a vanishing
    second exponent sum, or a common divisor of the x-exponents."""
    if len(word) <= 2:
        return True
    if sum(e for g, e in word if g == "y") == 0:
        return True
    divisor = 0
    for g, e in word:
        if g == "x":
            divisor = gcd(divisor, e)
    return divisor != 1


def scrambled_relator(rng, target: int, growth: float = 1.3):
    """Draw ``x^alpha y^beta`` and lengthen it by random elementary Nielsen
    moves until it has at least ``target`` letters.

    Returns ``(alpha, beta, relator, hints)`` where ``hints`` are the undoing
    moves ``(generator, image)`` in the order the rank recursion consumes
    them.  Every move grows
    the relator by ``growth`` when some move can, so the per-stage lengths
    and hence the cost of undoing them depend mostly on ``target``; the last
    move is chosen to overshoot ``target`` as little as it can.
    """
    while True:
        alpha, beta = rng.choice((2, 3, 4, 5, 7)), rng.choice((2, 3, 4, 5, 7))
        if gcd(alpha, beta) == 1:
            break
    alpha *= rng.choice((1, -1))
    beta *= rng.choice((1, -1))
    word = [("x", alpha), ("y", beta)]
    undo = []
    while letters(word) < target:
        candidates = []
        for forward, back in MOVES:
            image = substitute(word, forward)
            if letters(image) > letters(word) and not _rank_recursion_applies_early(image):
                candidates.append((image, back))
        if not candidates:
            return scrambled_relator(rng, target, growth)
        short = [c for c in candidates if letters(c[0]) < target]
        if short:
            steep = [c for c in short if letters(c[0]) >= growth * letters(word)]
            word, back = rng.choice(steep or short)
        else:
            word, back = min(candidates, key=lambda c: letters(c[0]))
        undo.append(back)
    return alpha, beta, word, list(reversed(undo))


def relabelled(rng, word, hints):
    """The same scrambled relator under a random length-preserving symmetry:
    generator inversions, inversion of the relator and a rotation.

    Every stage of the rank recursion then sees a relator of exactly the
    same length as before, so the op costs the same while the input
    differs.  Hints ``g -> w`` are conjugated by the generator inversions.
    """
    signs = {"x": rng.choice((1, -1)), "y": rng.choice((1, -1))}

    def flip(w):
        return [(g, signs[g] * e) for g, e in w]

    word = flip(word)
    if rng.random() < 0.5:
        word = inverse(word)
    turn = rng.randrange(len(word))
    word = word[turn:] + word[:turn]
    image = [(g, flip(w) if signs[g] > 0 else inverse(flip(w))) for g, w in hints]
    return word, [f"{g}->{format_word(w)}" for g, w in image]
