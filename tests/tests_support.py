"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the torus
closed form is divided out by sympy, never by ``LaurentPoly.exact_div``,
the rational-function reference below never touches the Fox machinery,
the rotation reference compares every letter rotation in full, the
connectivity reference walks the explicit coset graph edges, the rank
recursion reference rotates to canonical form at every stage and checks
every hint by heap search, the Alexander reference takes sympy
determinants of Fox derivatives read off the letters, the word parser
reference matches and checks every token, repeated or not, the free
reduction reference merges syllables in place on a stack of lists, the
substitution reference takes the full power of every image, the
exponent data reference makes one pass per quantity, the class check
reference applies phi to every relator syllable by syllable, and the Smith
normal form oracle takes the gcd of every k x k minor by Bareiss
elimination.  The small predicates after it (``known``, ``implies``,
``is_trivial``, ``cable_fibered`` and the like) are read only by tests,
so they live here rather than in the library.
"""

import math
import re
from itertools import combinations

import sympy

from fiberkit.corpus import (
    showcase_descended,
    showcase_presentation,
    torus_knot_data,
    unknot_data,
)
from fiberkit.errors import HypothesisError, ParseError
from fiberkit.fox import LaurentPoly
from fiberkit.inference import FLAG_NAMES, FgPremises
from fiberkit.links import cable_group
from fiberkit.one_relator import (
    RelatorAnalysis,
    analyze,
    descend,
    invert_automorphism,
    rank_transfer,
)
from fiberkit.presentations import Presentation, ZMap, canonical_zmap
from fiberkit.splittings import AMALGAM, Splitting
from fiberkit.textfmt import parse_word
from fiberkit.words import Word, cyclic_reduce, exponent_sum, reduce_word, substitute


def int_det(matrix):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    a = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[i], a[k] = a[k], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def minor_gcd(matrix, k):
    """The k-th determinantal divisor: the gcd of every k x k minor, each
    taken by ``int_det``; 0 when every minor vanishes."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = 0
    for picked_rows in combinations(range(rows), k):
        for picked_cols in combinations(range(cols), k):
            minor = [[matrix[i][j] for j in picked_cols] for i in picked_rows]
            d = math.gcd(d, int_det(minor))
    return d


def evaluate_at_one(poly):
    """A Laurent polynomial's value at ``t = 1``."""
    return sum(c for _, c in poly.terms)


def known(conclusions):
    """The definite flags of an inference closure, by attribute name."""
    return {
        attr: value
        for attr, value in zip(FLAG_NAMES, conclusions.flags)
        if value is not None
    }


def as_premises(conclusions):
    """A closure's definite flags fed back in as premises."""
    return FgPremises(**known(conclusions))


def implies(weak, strong):
    """Every definite flag of ``weak`` is also definite, and equal, in
    ``strong``."""
    return all(v is None or v == w for v, w in zip(weak.flags, strong.flags))


def is_trivial(abelianization):
    return abelianization.free_rank == 0 and not abelianization.torsion_coefficients


def is_infinite_cyclic(abelianization):
    return abelianization.free_rank == 1 and not abelianization.torsion_coefficients


def cable_fibered(base_fibered, p, q):
    """A cable fibers exactly when its companion does; building the cable
    of the unknot checks the framing ``(p, q)``."""
    cable_group(unknot_data(), p, q)
    return base_fibered


def reference_reduce_word(syllables):
    """Reference for ``words.reduce_word``: merge each syllable into the top
    of a stack of mutable ``[gen, exp]`` pairs, then copy them out through
    the checked constructor."""
    stack = []
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


def reference_substitute(word, images):
    """Reference for ``words.substitute``: ``images[g] ** e`` for every
    syllable ``g^e``, repeated or not, concatenated and then reduced by
    ``reference_reduce_word``."""
    return reference_reduce_word(
        [s for g, e in word.syllables for s in (images[g] ** e).syllables]
    )


def reference_exponent_data(relator, x, y):
    """Reference for the exponent pass of ``one_relator.analyze``: one pass
    for the extra generators, one per exponent sum and one for the
    ``x``-exponent gcd, with the same checks, in the same order."""
    extra = relator.generators() - {x, y}
    if extra:
        raise HypothesisError(f"relator uses unexpected generators {sorted(extra)}")
    p = exponent_sum(relator, x)
    q = exponent_sum(relator, y)
    if q == 0:
        raise HypothesisError(
            "exponent sum in the second generator is zero; "
            "the descent hypothesis fails"
        )
    m = math.gcd(p, q)
    e = 0
    for g, exp in relator.syllables:
        if g == x:
            e = math.gcd(e, exp)
    return RelatorAnalysis(p=p, q=q, m=m, a=p // m, b=q // m, e=abs(e) or 1)


def reference_zmap_validate(phi, pres):
    """Reference for ``presentations.zmap_validate``: phi is defined on every
    generator and ``phi(r)``, summed over the syllables of ``r``, is 0 for
    every relator."""
    if any(g not in phi.values for g in pres.generators):
        return False
    return all(phi(r) == 0 for r in pres.relators)


def quadratic_cyclic_reduce(word, order=None):
    """Reference for ``words.cyclic_reduce``: cancel across the ends, then
    take the ``min`` over every letter rotation, each expanded in full."""
    sylls = list(word.syllables)
    while len(sylls) >= 2 and sylls[0][0] == sylls[-1][0]:
        gen = sylls[0][0]
        exp = sylls[0][1] + sylls[-1][1]
        sylls = ([(gen, exp)] if exp else []) + sylls[1:-1]
    reduced = reduce_word(sylls)
    if len(reduced.syllables) <= 1:
        return reduced
    letters = reduced.letters()
    if order is None:
        order = sorted(reduced.generators())
    rank = {g: i for i, g in enumerate(order)}

    def key(start):
        rotation = letters[start:] + letters[:start]
        # positive letters sort before negative ones on the same generator
        return [(rank[g], 0 if s > 0 else 1) for g, s in rotation]

    best = min(range(len(letters)), key=key)
    return reduce_word(letters[best:] + letters[:best])


def _elementary_nielsen_moves():
    """``(generator, image, undoing image)`` for each elementary move on
    ``(x, y)``: ``a -> a b^s`` and ``a -> b^s a``."""
    moves = []
    for a, b in (("x", "y"), ("y", "x")):
        for s in (1, -1):
            moves.append((a, Word.of((a, 1), (b, s)), Word.of((a, 1), (b, -s))))
            moves.append((a, Word.of((b, s), (a, 1)), Word.of((b, -s), (a, 1))))
    return moves


def _rank_recursion_stops(relator):
    """True when ``fiber_rank`` would hit its base case or descend on the
    cyclically reduced ``relator`` before consuming a hint."""
    if len(relator.syllables) <= 2 or exponent_sum(relator, "y") == 0:
        return True
    divisor = 0
    for g, e in relator.syllables:
        if g == "x":
            divisor = math.gcd(divisor, e)
    return divisor != 1


def scrambled_torus_relator(rng, target):
    """``x^alpha y^beta`` lengthened by random elementary Nielsen moves to at
    least ``target`` letters.

    Returns ``(alpha, beta, relator, hints)``: ``hints`` are the undoing
    moves as ``--nielsen`` strings, in the order the rank recursion consumes
    them, and the kernel rank is ``(|alpha| - 1)(|beta| - 1)``.
    """
    alpha, beta = rng.choice(((2, 3), (2, 5), (3, 4), (3, 5), (4, 5)))
    alpha *= rng.choice((1, -1))
    beta *= rng.choice((1, -1))
    relator = Word.of(("x", alpha), ("y", beta))
    moves = _elementary_nielsen_moves()
    hints = []
    while len(relator) < target:
        rng.shuffle(moves)
        for a, image, undo in moves:
            full = {"x": Word.gen("x"), "y": Word.gen("y"), a: image}
            moved = cyclic_reduce(substitute(relator, full), order=("x", "y"))
            if 4 * len(moved) >= 5 * len(relator) and not _rank_recursion_stops(moved):
                break
        else:
            raise AssertionError("no elementary move lengthens the relator")
        relator = moved
        hints.append(f"{a}->{undo}")
    return alpha, beta, relator, hints[::-1]


_REFERENCE_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)(?:\^(-?\d+))?$")


def reference_parse_word(text, generators=None):
    """Reference for ``textfmt.parse_word``: one regex match and the same
    checks, in the same order, for every token."""
    text = text.strip()
    if not text or text == "1":
        return Word()
    declared = None if generators is None else set(generators)
    syllables = []
    for token in text.split():
        match = _REFERENCE_TOKEN.match(token)
        if not match:
            raise ParseError(f"bad word token {token!r}")
        gen, exp_text = match.groups()
        exp = int(exp_text) if exp_text is not None else 1
        if exp == 0:
            raise ParseError(f"zero exponent in token {token!r}")
        if declared is not None and gen not in declared:
            raise ParseError(f"undeclared generator {gen!r}")
        syllables.append((gen, exp))
    return reduce_word(syllables)


def parse_hint(text):
    """A ``--nielsen`` string ``gen->word`` as a one-generator image map."""
    gen, _, image = text.partition("->")
    return {gen.strip(): parse_word(image, None)}


def reference_fiber_rank(pres, hints=()):
    """Reference for ``one_relator.fiber_rank``: the same recursion with the
    relator rotated to canonical form by ``cyclic_reduce`` at every stage,
    checked by ``analyze``, and every hint, repeated or not, validated by
    the heap search of ``invert_automorphism`` plus a substitution round
    trip; the hints left over where the recursion stops, at the base case
    or on a relator ``analyze`` refuses, are validated too."""
    x, y = pres.generators

    def validated(hint):
        if set(hint) - {x, y}:
            raise HypothesisError("hint moves other generators")
        full = {x: hint.get(x, Word.gen(x)), y: hint.get(y, Word.gen(y))}
        inverse = invert_automorphism(full, x, y)
        if inverse is None or any(
            substitute(substitute(Word.gen(g), full), inverse) != Word.gen(g)
            for g in (x, y)
        ):
            raise HypothesisError("hint is not an automorphism")
        return full

    relator = cyclic_reduce(pres.relators[0], order=(x, y))
    pending = list(hints)
    while True:
        sylls = relator.syllables
        if len(sylls) == 2 and {g for g, _ in sylls} == {x, y}:
            alpha, beta = exponent_sum(relator, x), exponent_sum(relator, y)
            if math.gcd(alpha, beta) == 1:
                for hint in pending:
                    validated(hint)
                return (abs(alpha) - 1) * (abs(beta) - 1)
        try:
            data = analyze(relator, x, y)
        except HypothesisError:
            for hint in pending:
                validated(hint)
            raise
        if data.e > 1:
            new_x = next(name for name in ("u", "v", "w") if name not in (x, y))
            down = Presentation((new_x, y), (descend(relator, data.e, x, y, new_x),))
            sub = reference_fiber_rank(down, pending)
            return None if sub is None else rank_transfer(sub, data.a, data.b, data.e)
        if not pending:
            return None
        full = validated(pending.pop(0))
        relator = cyclic_reduce(substitute(relator, full), order=(x, y))


def sympy_alexander_polys(pres, phi):
    """Order polynomial through each column that phi does not kill, as a
    normalized ``{exponent: coefficient}`` dict, for ``n`` generators and
    ``n - 1`` relators.

    Fox derivatives are read off the letters with sympy powers of ``t``
    (never through ``fiberkit.fox``); the minor deleting column ``g`` has
    its determinant taken by sympy, times ``(t - 1) / (t^phi(g) - 1)``.
    """
    t = sympy.Symbol("t")
    gens = pres.generators
    rows = []
    for relator in pres.relators:
        row = dict.fromkeys(gens, sympy.Integer(0))
        h = 0
        for g, sign in relator.letters():
            if sign > 0:
                row[g] += t ** h
                h += phi.values[g]
            else:
                h -= phi.values[g]
                row[g] -= t ** h
        rows.append(row)
    polys = []
    for deleted in gens:
        weight = phi.values[deleted]
        if weight == 0:
            continue
        minor = sympy.Matrix([[row[g] for g in gens if g != deleted] for row in rows])
        quotient = sympy.cancel(minor.det() * (t - 1) / (t ** weight - 1))
        if quotient == 0:
            polys.append({})
            continue
        num, den = (sympy.Poly(part, t) for part in sympy.fraction(quotient))
        assert len(den.terms()) == 1, "the quotient is not a Laurent polynomial"
        ((shift,), scale) = den.terms()[0]
        coeffs = {e - shift: c / scale for (e,), c in num.terms()}
        assert all(c.is_integer for c in coeffs.values())
        low = min(coeffs)
        sign = 1 if coeffs[max(coeffs)] > 0 else -1
        polys.append({e - low: sign * int(c) for e, c in coeffs.items()})
    return polys


def torus_splitting_with_phi(p, q):
    """``<x> *_{x^p = y^q} <y>`` plus the class killing the edge relation."""
    split = Splitting(
        AMALGAM,
        Presentation(("x",)),
        Presentation(("y",)),
        (Word.gen("x", p),),
        (Word.gen("y", q),),
    )
    return split, ZMap({"x": q, "y": p})


def t_power_minus_one(n):
    if n == 0:
        return LaurentPoly()
    return LaurentPoly.from_dict({n: 1, 0: -1})


def torus_alexander_closed_form(p, q):
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), divided out by sympy
    with a zero remainder asserted."""
    t = sympy.Symbol("t")
    numerator = sympy.Poly((t ** (p * q) - 1) * (t - 1), t)
    denominator = sympy.Poly((t ** p - 1) * (t ** q - 1), t)
    quotient, remainder = sympy.div(numerator, denominator)
    assert remainder.is_zero
    coeffs = {e: int(c) for (e,), c in quotient.terms()}
    return LaurentPoly.from_dict(coeffs).normalize()


def vertices(graph):
    """Every vertex of a coset graph: the A residues, then the B residues."""
    verts = [("A", i) for i in range(graph.a_idx)]
    if graph.kind == AMALGAM:
        verts += [("B", j) for j in range(graph.b_idx)]
    return tuple(verts)


def is_connected(graph):
    """Depth-first search over the explicit edges of a coset graph, the
    oracle for the gcd test ``coset_graph`` makes instead."""
    verts = set(vertices(graph))
    adjacency = {v: set() for v in verts}
    for _, u, v in graph.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = set()
    stack = [next(iter(verts))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v] - seen)
    return seen == verts


def random_realizable_splitting(rng):
    """A random splitting plus a valid class, built class-first so every
    index triple is realizable."""
    from fiberkit.splittings import HNN

    if rng.random() < 0.5:
        u = rng.choice([i for i in range(-9, 10) if i])
        v = rng.choice([i for i in range(-9, 10) if i])
        k = rng.randint(1, 3)
        d = math.gcd(u, v)
        split = Splitting(
            AMALGAM,
            Presentation(("x",)),
            Presentation(("y",)),
            (Word.gen("x", k * v // d),),
            (Word.gen("y", k * u // d),),
        )
        return split, ZMap({"x": u, "y": v})
    j = rng.randint(1, 6)
    x_val = rng.choice([i for i in range(-6, 7) if i])
    t_val = rng.randint(-6, 6)
    split = Splitting(
        HNN,
        Presentation(("x",)),
        None,
        (Word.gen("x", j),),
        (Word.gen("x", j),),
        stable_letter="t",
    )
    return split, ZMap({"x": x_val, "t": t_val})


def corpus_presentations() -> list[tuple[str, Presentation, ZMap]]:
    """Named presentations with valid classes, for corpus-wide property
    sweeps."""
    out: list[tuple[str, Presentation, ZMap]] = []
    unknot = unknot_data()
    out.append(("unknot", unknot.presentation, unknot.phi))
    for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (5, 7)):
        data = torus_knot_data(p, q)
        out.append((data.name, data.presentation, data.phi))
    showcase = showcase_presentation()
    out.append(("showcase", showcase, canonical_zmap(showcase)))
    descended = showcase_descended()
    out.append(("showcase-H", descended, canonical_zmap(descended)))
    straightened = Presentation(("u", "y"), (Word.of(("u", 2), ("y", 3)),))
    out.append(("u2y3", straightened, canonical_zmap(straightened)))
    cyclic = Presentation(("v", "y"), (Word.of(("v", 1), ("y", 3)),))
    out.append(("vy3", cyclic, canonical_zmap(cyclic)))
    torsion = Presentation(("x", "y"), (Word.of(("x", 2), ("y", -4)),))
    out.append(("torsion-2", torsion, canonical_zmap(torsion)))
    commutator = Presentation(
        ("x", "y"), (Word.of(("x", 1), ("y", 1), ("x", -1), ("y", -1)),)
    )
    out.append(("free-abelian", commutator, ZMap({"x": 1, "y": 0})))
    return out
