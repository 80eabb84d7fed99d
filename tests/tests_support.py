"""Shared helpers and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: the torus
closed form is divided out by sympy, never by ``LaurentPoly.exact_div``,
and the rational-function reference below never touches the Fox machinery.
"""

import sympy

from fiberkit.fox import LaurentPoly
from fiberkit.presentations import Presentation, ZMap
from fiberkit.splittings import AMALGAM, Splitting
from fiberkit.words import Word


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
