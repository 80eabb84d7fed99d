"""Group-level splice sums, cables, and fiberedness bookkeeping.

Everything here happens at the level of presentations with distinguished
peripheral words: a knot exterior group is a ``GroupFile`` with a class and
both peripheral words, which ``splice`` and ``cable_group`` check in one
place before they glue.  Geometric hypotheses that the group cannot see, such
as incompressibility of the splicing tori, are arguments of
``fibered_splice`` that its caller asserts; without them it refuses to
answer rather than silently assuming them.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import HintError, HypothesisError
from .fox import LaurentPoly, alexander_poly
from .one_relator import fiber_rank
from .presentations import (
    AbelianizationResult,
    GroupFile,
    Presentation,
    ZMap,
    abelianize,
    zmap_validate,
)
from .snf import xgcd
from .words import Word, concat

__all__ = [
    "splice",
    "cable_group",
    "fibered_splice",
    "stallings_report",
    "StallingsReport",
    "NOT_APPLICABLE",
]

NOT_APPLICABLE = "not applicable"


def _peripheral_system(knot: GroupFile) -> tuple[Word, Word]:
    """The meridian and longitude of ``knot``, once its class exists and
    kills every relator and both words exist and are over its generators;
    splicing and cabling need all of that."""
    if knot.phi is None:
        raise HypothesisError(f"missing class on {knot.name}")
    if not zmap_validate(knot.phi, knot.presentation):
        raise HypothesisError("the class does not kill every relator")
    if knot.meridian is None or knot.longitude is None:
        raise HypothesisError(f"missing peripheral data on {knot.name}")
    gens = set(knot.presentation.generators)
    for label, w in (("meridian", knot.meridian), ("longitude", knot.longitude)):
        if not w.generators() <= gens:
            raise ValueError(f"{label} is not a word in the group generators")
    return knot.meridian, knot.longitude


def _freshen(generators, taken: set[str]) -> dict[str, str]:
    """Rename colliding generator names deterministically (x -> x_2, ...)."""
    renaming = {}
    for g in generators:
        candidate = g
        counter = 2
        while candidate in taken:
            candidate = f"{g}_{counter}"
            counter += 1
        renaming[g] = candidate
        taken.add(candidate)
    return renaming


def _rename_word(w: Word, renaming: dict[str, str]) -> Word:
    return Word(tuple((renaming[g], e) for g, e in w.syllables))


def splice(first: GroupFile, second: GroupFile) -> GroupFile:
    """Glue two knot exteriors along their boundary tori, exchanging
    meridian and longitude.

    The result, named ``first+second``, keeps all generators and relators
    (second's renamed away from collisions) and adds the two exchange
    relators; it has no peripheral words.  The classes must agree across
    the gluing: first's meridian value must equal second's longitude value
    and vice versa; otherwise no combined class restricts to both and the
    construction refuses.
    """
    first_meridian, first_longitude = _peripheral_system(first)
    second_meridian, second_longitude = _peripheral_system(second)
    m1, l1 = first.phi(first_meridian), first.phi(first_longitude)
    m2, l2 = second.phi(second_meridian), second.phi(second_longitude)
    if m1 != l2 or l1 != m2:
        raise HypothesisError(
            "classes are incompatible across the gluing: need "
            f"phi(m')={m1} == phi(l'')={l2} and phi(l')={l1} == phi(m'')={m2}"
        )

    taken = set(first.presentation.generators)
    renaming = _freshen(second.presentation.generators, taken)
    second_rels = tuple(
        _rename_word(r, renaming) for r in second.presentation.relators
    )
    second_meridian = _rename_word(second_meridian, renaming)
    second_longitude = _rename_word(second_longitude, renaming)

    gens = first.presentation.generators + tuple(
        renaming[g] for g in second.presentation.generators
    )
    relators = (
        first.presentation.relators
        + second_rels
        + (
            concat(first_meridian, second_longitude.inverse()),
            concat(first_longitude, second_meridian.inverse()),
        )
    )
    values = dict(first.phi.values)
    for g, v in second.phi.values.items():
        values[renaming[g]] = v
    return GroupFile(
        f"{first.name}+{second.name}", Presentation(gens, relators), ZMap(values)
    )


def cable_group(knot: GroupFile, p: int, q: int) -> GroupFile:
    """Group of the cable knot running ``p`` times around the meridian and
    ``q`` times along the longitude of ``knot``.

    Presentation: the knot's, plus one new generator ``t`` (the core of the
    companion solid torus) and the relator ``meridian^p longitude^q =
    t^q``.  The class scales by ``q`` on the old generators and sends ``t``
    to ``p*phi(meridian) + q*phi(longitude)``, which kills the new relator
    and restricts to the original class up to the rescaling.

    The emitted peripheral system is chosen by class values: the new
    meridian is ``meridian^s t^r`` with value 1 (extended gcd), the new
    longitude is ``meridian^p longitude^q`` corrected by a meridian power
    to value 0.
    """
    meridian, longitude = _peripheral_system(knot)
    if q == 0:
        raise HypothesisError("cable needs q != 0")
    if gcd(p, q) != 1:
        raise HypothesisError(f"cable needs coprime framing, gcd({p}, {q}) != 1")

    taken = set(knot.presentation.generators)
    t_name = "t"
    while t_name in taken:
        t_name += "t"
    t = Word.gen(t_name)

    cable_relator = concat(meridian ** p, longitude ** q, t ** (-q))
    pres = Presentation(
        knot.presentation.generators + (t_name,),
        knot.presentation.relators + (cable_relator,),
    )
    phi_m, phi_l = knot.phi(meridian), knot.phi(longitude)
    values = {g: q * v for g, v in knot.phi.values.items()}
    values[t_name] = p * phi_m + q * phi_l
    phi = ZMap(values)

    # peripheral words by class value: s*q*phi(m') + r*(p*phi(m') + q*phi(l'))
    # hits gcd = 1 when the input system is standard (phi(m') = 1,
    # phi(l') = 0, so the gcd is gcd(p, q)); the longitude correction is
    # integral either way
    unit, s, r = xgcd(q * phi_m, p * phi_m + q * phi_l)
    if unit == 0:
        raise HypothesisError("cable class is trivial; no peripheral system")
    new_meridian = concat(meridian ** s, t ** r)
    core = concat(meridian ** p, longitude ** q)
    new_longitude = concat(core, new_meridian ** (-(phi(core) // unit)))

    return GroupFile(
        presentation=pres,
        meridian=new_meridian,
        longitude=new_longitude,
        phi=phi,
        name=f"{knot.name}({p},{q})",
    )


def fibered_splice(
    first_fibered: bool,
    second_fibered: bool,
    first_incompressible: bool,
    second_incompressible: bool,
):
    """Fiberedness of a splice sum from its two sides.

    Valid in both directions only when both splicing tori are asserted
    incompressible; without that the answer can genuinely go either way
    (splicing in an unknot split off by a sphere breaks it), so the
    result is the string ``"not applicable"``.
    """
    if not (first_incompressible and second_incompressible):
        return NOT_APPLICABLE
    return first_fibered and second_fibered


# ---------------------------------------------------------------------------
# Consistency report

class StallingsReport(NamedTuple):
    """Everything the group can say about whether the class fibers."""

    image_gcd: int
    abelianization: AbelianizationResult
    alexander: LaurentPoly | None
    alexander_monic: bool | None
    alexander_degree: int | None
    fiber_rank: int | None
    verdict: str
    diagnostics: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"image = {self.image_gcd}Z" if self.image_gcd else "image = 0"]
        lines.append(f"abelianization = {self.abelianization}")
        if self.alexander is not None:
            lines.append(f"alexander = {self.alexander}")
            lines.append(f"monic = {'yes' if self.alexander_monic else 'no'}")
            lines.append(f"degree = {self.alexander_degree}")
        else:
            lines.append("alexander = unavailable")
        if self.fiber_rank is not None:
            lines.append(f"fiber-rank = {self.fiber_rank}")
        for note in self.diagnostics:
            lines.append(f"note: {note}")
        lines.append(f"verdict = {self.verdict}")
        return "\n".join(lines)


def stallings_report(
    pres: Presentation,
    phi: ZMap,
    hints=(),
) -> StallingsReport:
    """Collect the computable fibering evidence for ``(pres, phi)``.

    Verdicts: "consistent with fibered" when the order polynomial is monic
    (and matches the kernel rank when one is computable), "not fibered"
    when it is not monic (a fibering would force a unit leading
    coefficient), "inconclusive" otherwise.  A rank recursion that cannot
    run is a diagnostic; a hint that is not an automorphism raises
    ``HintError``, as it does in ``fiber_rank``, and so do hints for a
    group that is not two-generator one-relator.
    """
    if not zmap_validate(phi, pres):
        raise HypothesisError("map to Z does not kill every relator")
    diagnostics: list[str] = []
    ab = abelianize(pres)
    d = phi.image_gcd()

    rank: int | None = None
    two_gen_one_rel = len(pres.generators) == 2 and len(pres.relators) == 1
    if hints and not two_gen_one_rel:
        raise HintError(
            "hints need a two-generator one-relator presentation, got "
            f"{len(pres.generators)} generators and {len(pres.relators)} relators"
        )
    # <x, y ; r> abelianizes to Z^2 exactly when both exponent sums vanish
    m_zero = two_gen_one_rel and ab.free_rank == 2
    if m_zero:
        diagnostics.append("m = 0: both exponent sums vanish, no torsion number")

    delta = None
    monic = None
    degree = None
    if d == 0:
        diagnostics.append("class is trivial; quotient is not infinite cyclic")
    else:
        if d > 1:
            diagnostics.append(f"class rescaled by {d} to become onto")
        try:
            delta = alexander_poly(pres, phi)
        except HypothesisError as exc:
            diagnostics.append(f"order polynomial unavailable: {exc}")
        else:
            terms = delta.terms
            degree = delta.span if terms else None
            monic = bool(terms) and abs(terms[0][1]) == abs(terms[-1][1]) == 1

    if two_gen_one_rel:
        try:
            rank = fiber_rank(pres, hints)
        except HintError:
            raise
        except HypothesisError as exc:
            # with m = 0 the recursion always stops at q = 0, noted above
            if not m_zero:
                diagnostics.append(f"rank recursion unavailable: {exc}")

    if d == 0 or m_zero:
        verdict = "inconclusive"
    elif delta is not None and monic is False:
        verdict = "not fibered"
    elif delta is not None and monic:
        if rank is not None and rank != degree:
            diagnostics.append(
                f"rank {rank} disagrees with degree {degree}"
            )
            verdict = "inconclusive"
        else:
            verdict = "consistent with fibered"
    else:
        verdict = "inconclusive"

    return StallingsReport(
        image_gcd=d,
        abelianization=ab,
        alexander=delta,
        alexander_monic=monic,
        alexander_degree=degree,
        fiber_rank=rank,
        verdict=verdict,
        diagnostics=tuple(diagnostics),
    )
