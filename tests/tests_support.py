"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the torus
closed form is divided out by sympy, never by ``LaurentPoly.exact_div``,
and the rational-function reference below never touches the Fox machinery.
"""

import sympy

from fiberkit.corpus import (
    showcase_descended,
    showcase_presentation,
    torus_knot_data,
    unknot_data,
)
from fiberkit.fox import LaurentPoly
from fiberkit.presentations import Presentation, ZMap, canonical_zmap
from fiberkit.splittings import AMALGAM, Splitting
from fiberkit.words import Word


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


def mat_mul(a, b):
    """Integer matrix product."""
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


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


def random_realizable_splitting(rng):
    """A random splitting plus a valid class, built class-first so every
    index triple is realizable."""
    import math

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
