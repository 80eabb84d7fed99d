"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the torus
closed form is divided out by sympy, never by ``LaurentPoly.exact_div``,
the rational-function reference below never touches the Fox machinery,
the rotation reference compares every letter rotation in full, the
connectivity reference walks the explicit coset graph edges, the amalgam
and HNN closed forms check ``free_kernel_rank`` term for term, the rank
recursion reference rotates to canonical form at every stage and checks
every hint by heap search, the Alexander reference takes sympy
determinants of Fox derivatives read off the letters, the word parser
reference matches and checks every token, repeated or not, the free
reduction reference merges syllables in place on a stack of lists, the
substitution references take the full power of every image or expand
every letter, the hint reference checks every hint by the commutator
criterion, the exponent data reference makes one pass per quantity, the
class check reference applies phi to every relator syllable by syllable,
the inference reference is the closure with nested ``assign``/``record``
helpers that checks every derived literal for a clash, and the Smith
normal form oracle takes the gcd of every k x k minor by Bareiss
elimination.  The small predicates after it (``monic_degree_check``,
``known``, ``implies``, ``is_trivial``, ``cable_fibered`` and the like)
are read only by tests, so they live here rather than in the library.
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
from fiberkit.errors import ContradictionError, HintError, HypothesisError, ParseError
from fiberkit.fox import LaurentPoly
from fiberkit.inference import (
    _BITS,
    AMALGAM,
    HNN,
    _RULES,
    DISPLAY,
    FLAG_NAMES,
    FgConclusions,
    FgPremises,
    _literals,
)
from fiberkit.links import cable_group
from fiberkit.one_relator import (
    RelatorAnalysis,
    analyze,
    descend,
    invert_automorphism,
    rank_transfer,
)
from fiberkit.presentations import Presentation, ZMap, canonical_zmap
from fiberkit.splittings import CosetGraph, Edge, Splitting, vertex_name
from fiberkit.textfmt import parse_word
from fiberkit.words import (
    Word,
    cancel_ends,
    concat,
    cyclic_reduce,
    exponent_sum,
    reduce_word,
    substitute,
)


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


def monic_degree_check(delta, expected_rank):
    """True iff both extreme coefficients are units and the normalized
    degree equals ``expected_rank``."""
    if delta.is_zero:
        return False
    if abs(delta.terms[0][1]) != 1 or abs(delta.terms[-1][1]) != 1:
        return False
    return delta.span == expected_rank


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


def _one_literal(lit_yes, lit_no):
    lits = lit_yes | lit_no
    return lits & (lits - 1) == 0


def reference_fg_inference(kind, premises, *, nontrivial_decomposition=True):
    """``fg_inference`` as nested ``assign``/``record`` helpers that check
    every derived literal against the established flags.  It reads the
    compiled rule masks but not their single-alternative field."""
    if kind not in (AMALGAM, HNN):
        raise ValueError(f"unknown splitting kind {kind!r}")
    if kind == AMALGAM and not nontrivial_decomposition:
        raise HypothesisError(
            "amalgam inference requires the nontriviality assertion A != C != B"
        )
    yes = no = 0
    for bit, attr in zip(_BITS, FLAG_NAMES):
        value = getattr(premises, attr)
        if value:
            yes |= bit
        elif value is not None:
            no |= bit
    # unresolved clauses, each a (yes, no) pair of literal masks of which at
    # least one holds; a dict is a set that keeps insertion order
    clauses = {}
    changed = True

    def assign(lit_yes, lit_no, rule):
        """Set one literal unless its opposite is established."""
        nonlocal yes, no, changed
        if lit_yes & no or lit_no & yes:
            flag = FLAG_NAMES[(lit_yes | lit_no).bit_length() - 1]
            raise ContradictionError(
                f"rule {rule!r} derives "
                f"{DISPLAY[flag]} = {'yes' if lit_yes else 'no'} "
                f"against the established opposite",
                rule=rule,
            )
        if lit_yes & ~yes or lit_no & ~no:
            yes |= lit_yes
            no |= lit_no
            changed = True

    def record(lit_yes, lit_no, rule):
        """One of these open literals holds: assign a lone one, else keep
        the clause."""
        nonlocal changed
        if _one_literal(lit_yes, lit_no):
            assign(lit_yes, lit_no, rule)
        elif (lit_yes, lit_no) not in clauses:
            clauses[lit_yes, lit_no] = None
            changed = True

    while changed:
        changed = False
        for name, need_yes, need_no, alt_yes, alt_no, _ in _RULES[kind]:
            if need_yes & no or need_no & yes:
                continue  # an antecedent fails
            open_yes, open_no = need_yes & ~yes, need_no & ~no
            if open_yes or open_no:
                if (alt_yes & no or alt_no & yes) and _one_literal(alt_yes, alt_no):
                    # contrapositive: some open antecedent must fail
                    record(open_no, open_yes, name + " (contrapositive)")
            elif _one_literal(alt_yes, alt_no):
                assign(alt_yes, alt_no, name)
            elif not (alt_yes & yes or alt_no & no):
                free_yes, free_no = alt_yes & ~no, alt_no & ~yes
                if not (free_yes or free_no):
                    raise ContradictionError(
                        f"rule {name!r} has both alternatives refuted",
                        rule=name,
                    )
                record(free_yes, free_no, name)

        for lit_yes, lit_no in list(clauses):
            open_yes, open_no = lit_yes & ~no, lit_no & ~yes
            if lit_yes & yes or lit_no & no:
                del clauses[lit_yes, lit_no]
                changed = True
            elif not (open_yes or open_no):
                raise ContradictionError(
                    "a recorded disjunction lost all of its alternatives",
                    rule="clause-propagation",
                )
            elif _one_literal(open_yes, open_no):
                del clauses[lit_yes, lit_no]
                assign(open_yes, open_no, "clause-propagation")

    flags = tuple([True if yes & bit else False if no & bit else None for bit in _BITS])
    named = [_literals(*clause) for clause in clauses]
    # drop clauses subsumed by smaller ones
    minimal = frozenset(c for c in named if not any(o < c for o in named))
    return FgConclusions(flags=flags, disjunctions=minimal)


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


def letter_substitute(word, images):
    """Reference for ``words.substitute`` that takes no power: each letter
    ``g^+-1`` of ``word`` contributes the letters of ``images[g]`` or of its
    inverse, and ``reduce_word`` reduces the whole expansion."""
    letters = []
    for g, sign in word.letters():
        image = images[g].letters()
        letters.extend(image if sign > 0 else [(h, -s) for h, s in reversed(image)])
    return reduce_word(letters)


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


def reference_validate_automorphism(images, x, y):
    """Reference for ``one_relator.validate_automorphism``: the same
    generator and determinant checks, then Nielsen's commutator criterion
    for every hint, elementary or not, with the rotations of ``[x, y]``
    and ``[y, x]`` listed in full."""
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
    u, v = images[x], images[y]
    det = exponent_sum(u, x) * exponent_sum(v, y) - exponent_sum(u, y) * exponent_sum(v, x)
    if det not in (1, -1):
        raise HintError(
            f"hint is not an automorphism: abelianized determinant {det}"
        )
    commutator = cancel_ends(concat(u, v, u.inverse(), v.inverse())).syllables
    rotations = set()
    for a, b in ((x, y), (y, x)):
        letters = ((a, 1), (b, 1), (a, -1), (b, -1))
        rotations.update(letters[i:] + letters[:i] for i in range(4))
    if commutator not in rotations:
        raise HintError(
            "hint is not an automorphism: images do not form a basis"
        )
    return images


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
    return amalgam_splitting(Word.gen("x", p), Word.gen("y", q)), ZMap({"x": q, "y": p})


def amalgam_splitting(u, v, factor_b=Presentation(("y",))):
    """``<x> *_{u = v} factor_b``, one edge word on each side."""
    return Splitting((Presentation(("x",)), factor_b), (Edge(0, 1, (u,), (v,)),))


def hnn_splitting(u, v, factor=Presentation(("x",)), stable="t"):
    """``factor *_{stable u stable^-1 = v}``, one loop at one vertex."""
    return Splitting((factor,), (Edge(0, 0, (u,), (v,), stable),))


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
    """Every vertex of a coset graph: each vertex's residues in turn."""
    return tuple(
        (vertex_name(v), r) for v, index in enumerate(graph.vertex_indices)
        for r in range(index)
    )


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


def amalgam_graph(a, b, c):
    """The coset graph of an amalgam with indices ``a``, ``b`` and ``c``."""
    return CosetGraph((a, b), (c,), ((0, 1, 0),), a + b - c)


def hnn_graph(a, c, step=1):
    """The coset graph of an HNN extension with indices ``a`` and ``c``."""
    return CosetGraph((a,), (c,), ((0, 0, step),), a - c)


def amalgam_rank(a, b, c, rank_a, rank_b):
    """The amalgam's closed form, the oracle for ``free_kernel_rank``."""
    return a * rank_a + b * rank_b + 1 + c - a - b


def hnn_rank(a, c, rank_a):
    """The HNN extension's closed form, the oracle for ``free_kernel_rank``."""
    return a * rank_a + 1 + c - a


def assembled(split):
    """The presentation of the whole group of a splitting: its generators,
    then the vertex relators and ``t u t^-1 v^-1`` for each pair of edge
    words ``u, v``, where ``t`` is the edge's stable letter or empty on a
    tree edge.  The oracle for the class check of ``kernel_indices``, which
    never assembles the group."""
    rels = [r for pres in split.vertices for r in pres.relators]
    for e in split.edges:
        t = Word() if e.stable is None else Word.gen(e.stable)
        for u, v in zip(e.words_src, e.words_dst):
            rels.append(concat(t, u, t.inverse(), v.inverse()))
    return Presentation(split.generators, tuple(rels))


def random_coset_graph(rng):
    """A coset graph on 1-4 vertices, possibly disconnected: a random
    spanning tree of tree edges plus up to two edges with a step, each
    edge index a multiple of the lcm of its ends' indices.  Half of the
    graphs scale every vertex index and step by 2 or 3."""
    scale = rng.choice((1, 1, 2, 3))
    n = rng.randint(1, 4)
    vertex_indices = tuple(scale * rng.randint(1, 6) for _ in range(n))
    ends = [(rng.randrange(v), v, 0) for v in range(1, n)]
    ends += [
        (rng.randrange(n), rng.randrange(n), scale * rng.randint(-5, 5))
        for _ in range(rng.randint(0, 2))
    ]
    rng.shuffle(ends)
    edge_indices = tuple(
        math.lcm(vertex_indices[src], vertex_indices[dst]) * rng.randint(1, 3)
        for src, dst, _ in ends
    )
    chi = sum(vertex_indices) - sum(edge_indices)
    return CosetGraph(vertex_indices, edge_indices, tuple(ends), chi)


def random_realizable_splitting(rng):
    """A random splitting plus a valid class, built class-first so every
    index triple is realizable."""
    if rng.random() < 0.5:
        u = rng.choice([i for i in range(-9, 10) if i])
        v = rng.choice([i for i in range(-9, 10) if i])
        k = rng.randint(1, 3)
        d = math.gcd(u, v)
        split = amalgam_splitting(Word.gen("x", k * v // d), Word.gen("y", k * u // d))
        return split, ZMap({"x": u, "y": v})
    j = rng.randint(1, 6)
    x_val = rng.choice([i for i in range(-6, 7) if i])
    t_val = rng.randint(-6, 6)
    split = hnn_splitting(Word.gen("x", j), Word.gen("x", j))
    return split, ZMap({"x": x_val, "t": t_val})


def random_graph_of_groups(rng):
    """A splitting of 1-4 infinite cyclic vertex groups ``<x0>, <x1>, ...``
    along a random spanning tree, plus up to two edges with stable letters,
    and a class that is onto: each edge identifies the powers of its ends'
    generators with equal phi-values."""
    n = rng.randint(1, 4)
    values = [rng.choice([i for i in range(-6, 7) if i]) for _ in range(n)]
    ends = [(rng.randrange(v), v, None) for v in range(1, n)]
    ends += [(rng.randrange(n), rng.randrange(n), f"t{i}") for i in range(rng.randint(0, 2))]
    edges = []
    for src, dst, stable in ends:
        d = math.gcd(values[src], values[dst])
        k = rng.randint(1, 3)
        u = Word.gen(f"x{src}", k * values[dst] // d)
        v = Word.gen(f"x{dst}", k * values[src] // d)
        edges.append(Edge(src, dst, (u,), (v,), stable))
    split = Splitting(tuple(Presentation((f"x{v}",)) for v in range(n)), tuple(edges))
    phi = {f"x{v}": values[v] for v in range(n)}
    phi.update({e.stable: rng.randint(-6, 6) for e in edges if e.stable})
    return split, ZMap(phi)


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
