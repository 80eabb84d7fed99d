"""Group-level splice sums, cables, and fiberedness bookkeeping.

Everything here happens at the level of presentations with distinguished
peripheral words.  Geometric inputs that the group cannot see, namely
irreducibility of the exterior and incompressibility of the splicing
torus, travel as caller-asserted flags; the predicates that need them
refuse to answer rather than silently assuming them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import HypothesisError
from .fox import LaurentPoly, alexander_poly, monic_degree_check
from .one_relator import fiber_rank
from .presentations import (
    AbelianizationResult,
    Presentation,
    ZMap,
    abelianize,
    torsion_number,
    zmap_validate,
)
from .snf import xgcd
from .words import Word, concat

__all__ = [
    "LinkData",
    "KnotGroupData",
    "multiplicity_class",
    "splice",
    "cable_group",
    "fibered_splice",
    "cable_fibered",
    "stallings_report",
    "StallingsReport",
    "NOT_APPLICABLE",
]

NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class LinkData:
    """Multilink bookkeeping: oriented components, pairwise linking
    numbers, and one integer multiplicity per component.

    A component listed with orientation -1 is stored re-oriented, negating
    its multiplicity and its row and column of the linking matrix, so two
    descriptions of the same multilink normalize identically.
    """

    components: tuple[str, ...]
    linking_matrix: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]
    orientations: tuple[int, ...] = ()

    def __post_init__(self):
        n = len(self.components)
        orientations = self.orientations or tuple([1] * n)
        if len(orientations) != n or len(self.multiplicities) != n:
            raise ValueError("component, orientation, multiplicity counts differ")
        if any(o not in (1, -1) for o in orientations):
            raise ValueError("orientations must be +-1")
        matrix = [list(row) for row in self.linking_matrix]
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("linking matrix must be n x n")
        for i in range(n):
            for j in range(n):
                if i != j and matrix[i][j] != matrix[j][i]:
                    raise ValueError("linking matrix must be symmetric")
        mults = list(self.multiplicities)
        for i, o in enumerate(orientations):
            if o == -1:
                mults[i] = -mults[i]
                for j in range(n):
                    matrix[i][j] = -matrix[i][j]
                    matrix[j][i] = -matrix[j][i]
        object.__setattr__(self, "orientations", tuple([1] * n))
        object.__setattr__(self, "multiplicities", tuple(mults))
        object.__setattr__(
            self, "linking_matrix", tuple(tuple(row) for row in matrix)
        )

    def index_of(self, component: str) -> int:
        return self.components.index(component)


def multiplicity_class(link: LinkData, cycle: dict[tuple[str, str], int]) -> int:
    """Evaluate the multiplicity class on a 1-cycle.

    The cycle is an integer combination of meridians ``("M", name)`` and
    components ``("S", name)``.  A meridian of component i evaluates to its
    multiplicity; a component evaluates through its linking numbers with
    everything else.  Linear in both the cycle and the multiplicities.
    """
    total = 0
    for (kind, name), coeff in cycle.items():
        i = link.index_of(name)
        if kind == "M":
            total += coeff * link.multiplicities[i]
        elif kind == "S":
            total += coeff * sum(
                link.multiplicities[j] * link.linking_matrix[i][j]
                for j in range(len(link.components))
                if j != i
            )
        else:
            raise ValueError(f"cycle basis element kind {kind!r} unknown")
    return total


@dataclass(frozen=True)
class KnotGroupData:
    """A knot exterior group with its peripheral words and class to Z.

    The empty word is a legitimate longitude (an unknot bounds a disk);
    None means the peripheral word is genuinely missing, which blocks
    splicing and cabling.  ``irreducible`` and ``boundary_incompressible``
    are assertions supplied by the caller about the underlying space;
    nothing here computes them.
    """

    presentation: Presentation
    meridian: Word | None
    longitude: Word | None
    phi: ZMap
    irreducible: bool = False
    boundary_incompressible: bool = False
    name: str = "K"

    def __post_init__(self):
        gens = set(self.presentation.generators)
        for label, w in (("meridian", self.meridian), ("longitude", self.longitude)):
            if w is not None and not w.generators() <= gens:
                raise ValueError(f"{label} is not a word in the group generators")
        if not zmap_validate(self.phi, self.presentation):
            raise HypothesisError("the class does not kill every relator")

    def require_peripheral(self) -> tuple[Word, Word]:
        if self.meridian is None or self.longitude is None:
            raise HypothesisError(f"missing peripheral data on {self.name}")
        return self.meridian, self.longitude

    def phi_meridian(self) -> int:
        meridian, _ = self.require_peripheral()
        return self.phi(meridian)

    def phi_longitude(self) -> int:
        _, longitude = self.require_peripheral()
        return self.phi(longitude)


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


def splice(first: KnotGroupData, second: KnotGroupData) -> tuple[Presentation, ZMap]:
    """Glue two knot exteriors along their boundary tori, exchanging
    meridian and longitude.

    The result keeps all generators and relators (second's renamed away
    from collisions) and adds the two exchange relators.  The classes must
    agree across the gluing: first's meridian value must equal second's
    longitude value and vice versa; otherwise no combined class restricts
    to both and the construction refuses.
    """
    first_meridian, first_longitude = first.require_peripheral()
    second.require_peripheral()
    if first.phi_meridian() != second.phi_longitude() or first.phi_longitude() != second.phi_meridian():
        raise HypothesisError(
            "classes are incompatible across the gluing: need "
            f"phi(m')={first.phi_meridian()} == phi(l'')={second.phi_longitude()} and "
            f"phi(l')={first.phi_longitude()} == phi(m'')={second.phi_meridian()}"
        )

    taken = set(first.presentation.generators)
    renaming = _freshen(second.presentation.generators, taken)
    second_rels = tuple(
        _rename_word(r, renaming) for r in second.presentation.relators
    )
    second_meridian = _rename_word(second.meridian, renaming)
    second_longitude = _rename_word(second.longitude, renaming)

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
    return Presentation(gens, relators), ZMap(values)


def _require_cable_framing(p: int, q: int):
    if q == 0:
        raise HypothesisError("cable needs q != 0")
    if gcd(p, q) != 1:
        raise HypothesisError(f"cable needs coprime framing, gcd({p}, {q}) != 1")


def cable_group(knot: KnotGroupData, p: int, q: int) -> KnotGroupData:
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
    _require_cable_framing(p, q)
    meridian, longitude = knot.require_peripheral()

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
    phi_m = knot.phi_meridian()
    phi_l = knot.phi_longitude()
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

    return KnotGroupData(
        presentation=pres,
        meridian=new_meridian,
        longitude=new_longitude,
        phi=phi,
        irreducible=knot.irreducible,
        boundary_incompressible=knot.boundary_incompressible,
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


def cable_fibered(base_fibered: bool, p: int, q: int) -> bool:
    """A cable fibers exactly when its companion does."""
    _require_cable_framing(p, q)
    return base_fibered


# ---------------------------------------------------------------------------
# Consistency report

@dataclass(frozen=True)
class StallingsReport:
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
    coefficient), "inconclusive" otherwise.
    """
    if not zmap_validate(phi, pres):
        raise HypothesisError("map to Z does not kill every relator")
    diagnostics: list[str] = []
    ab = abelianize(pres)
    d = phi.image_gcd()

    rank: int | None = None
    two_gen_one_rel = (
        len(pres.generators) == 2 and len(pres.relators) == 1
    )
    m_zero = False
    if two_gen_one_rel:
        try:
            torsion_number(pres)
        except HypothesisError:
            m_zero = True
            diagnostics.append(
                "m = 0: both exponent sums vanish, no torsion number"
            )

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
            degree = None if delta.is_zero else delta.span
            # a polynomial always has its own degree, so this is the unit test
            monic = monic_degree_check(delta, degree)

    if two_gen_one_rel and not m_zero:
        try:
            rank = fiber_rank(pres, hints)
        except HypothesisError as exc:
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
