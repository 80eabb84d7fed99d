"""Built-in example groups and the bundled corpus.

The groups are the unknot, the torus knots, and the two-generator
one-relator showcase group, with their standard classes and peripheral
words.  ``corpus_files`` renders them, with the rank, Alexander, report and
splice results computed from them, into the files ``fiberkit corpus``
writes.  The test suite leans on the same groups; everything is
constructed, never read from disk.
"""

from __future__ import annotations

from dataclasses import replace
from math import gcd

from .errors import HypothesisError
from .fox import alexander_poly
from .links import fibered_splice, splice, stallings_report
from .one_relator import fiber_rank
from .presentations import GroupFile, Presentation, ZMap, abelianize, canonical_zmap
from .snf import xgcd
from .splittings import AMALGAM, Splitting
from .textfmt import format_group
from .words import Word

__all__ = [
    "unknot_data",
    "torus_knot_data",
    "trefoil_data",
    "showcase_presentation",
    "showcase_descended",
    "showcase_hint",
    "torus_knot_splitting",
    "corpus_files",
]


def unknot_data() -> GroupFile:
    """Infinite cyclic group; the meridian generates and the longitude
    bounds a disk, so it is the empty word."""
    pres = Presentation(("u",))
    return GroupFile(
        presentation=pres,
        meridian=Word.gen("u"),
        longitude=Word(),
        phi=ZMap({"u": 1}),
        name="unknot",
    )


def torus_knot_data(p: int, q: int) -> GroupFile:
    """Group ``<x, y | x^p = y^q>`` with class x -> q, y -> p.

    The meridian is ``x^s y^r`` for a Bezout pair ``s*q + r*p = 1``; the
    longitude is the central element ``x^p`` undone by ``meridian^(p*q)``,
    written out as ``x^p (y^-r x^-s)^(pq)``.  With ``p, q >= 2`` neither
    ``r`` nor ``s`` is 0, so both words are freely reduced as written.
    """
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise HypothesisError("torus knot needs coprime p, q >= 2")
    relator = Word.of(("x", p), ("y", -q))
    pres = Presentation(("x", "y"), (relator,))
    phi = ZMap({"x": q, "y": p})
    _, s, r = xgcd(q, p)
    meridian = Word((("x", s), ("y", r)))
    longitude = Word((("x", p),) + (("y", -r), ("x", -s)) * (p * q))
    return GroupFile(
        presentation=pres,
        meridian=meridian,
        longitude=longitude,
        phi=phi,
        name=f"T({p},{q})",
    )


def trefoil_data() -> GroupFile:
    return replace(torus_knot_data(2, 3), name="trefoil")


def showcase_presentation() -> Presentation:
    """``<x, y | x^2 y^2 x^2 y^-1>``, the running two-generator example."""
    return Presentation(
        ("x", "y"), (Word.of(("x", 2), ("y", 2), ("x", 2), ("y", -1)),)
    )


def showcase_descended() -> Presentation:
    """``<u, y | u y^2 u y^-1>``, the same group one descent down."""
    return Presentation(
        ("u", "y"), (Word.of(("u", 1), ("y", 2), ("u", 1), ("y", -1)),)
    )


def showcase_hint() -> dict[str, Word]:
    """The basis change u -> u y that straightens the descended relator."""
    return {"u": Word.of(("u", 1), ("y", 1))}


def torus_knot_splitting(p: int, q: int) -> tuple[Splitting, ZMap]:
    """``<x> *_{x^p = y^q} <y>`` with the standard class."""
    split = Splitting(
        AMALGAM,
        Presentation(("x",)),
        Presentation(("y",)),
        (Word.gen("x", p),),
        (Word.gen("y", q),),
    )
    return split, ZMap({"x": q, "y": p})


def corpus_files() -> list[tuple[str, str]]:
    """The files of ``fiberkit corpus`` as ``(filename, text)`` pairs, in
    the order they are written; the texts are deterministic."""
    trefoil = trefoil_data()
    knots = [("unknot.grp", unknot_data()), ("trefoil.grp", trefoil)]
    knots += [
        (f"torus_{p}_{q}.grp", torus_knot_data(p, q))
        for p in range(2, 7)
        for q in range(p + 1, 8)
        if gcd(p, q) == 1
    ]
    files = [(name, format_group(data)) for name, data in knots]

    showcase = showcase_presentation()
    descended = showcase_descended()
    zero = replace(trefoil, phi=ZMap({g: 0 for g in trefoil.presentation.generators}))
    spliced = splice(zero, zero)
    verdict = fibered_splice(True, True, False, True)
    files += [
        ("showcase.grp",
         format_group(GroupFile("showcase", showcase, canonical_zmap(showcase)))),
        ("showcase_descended.grp",
         format_group(GroupFile("showcase-H", descended, canonical_zmap(descended)))),
        ("showcase.rank.txt", f"rank = {fiber_rank(showcase, [showcase_hint()])}\n"),
        ("trefoil.alexander.txt", f"{alexander_poly(trefoil.presentation, trefoil.phi)}\n"),
        ("trefoil.report.txt",
         stallings_report(trefoil.presentation, trefoil.phi).render() + "\n"),
        ("showcase.report.txt",
         stallings_report(showcase, canonical_zmap(showcase), [showcase_hint()]).render()
         + "\n"),
        ("splice_trefoil_trefoil.grp", format_group(spliced)),
        ("splice_trefoil_trefoil.homology.txt",
         f"abelianization = {abelianize(spliced.presentation)}\n"),
        ("splice_without_incompressibility.txt",
         "scenario: fibered exterior spliced with an unknot inside a ball\n"
         "first_fibered = yes\nsecond_fibered = yes\n"
         "first_incompressible = not asserted\nsecond_incompressible = asserted\n"
         f"fibered_splice = {verdict}\n"),
    ]
    return files
