"""Three-valued inference for finite generation of a normal subgroup.

Premise and conclusion flags about ``N``, a normal subgroup of ``G`` split
as an amalgam ``A *_C B`` or HNN extension ``A *_C``, take values yes /
no / unknown (True / False / None).  The engine closes a premise set under
a fixed list of implications; it never speculates beyond them.  Adding
premises never removes conclusions, and running the closure twice changes
nothing.

The rules are one table, expanded over the factor sides: A and B for an
amalgam, A alone for an HNN extension.  The closure keeps the flags on two
ints, a yes-mask and a no-mask, with bit ``i`` for ``FLAG_NAMES[i]``.

When a rule's conclusion is refuted but more than one of its antecedents
is still open, the contrapositive cannot pick a culprit; the engine then
records a disjunction clause ("at least one of these literals holds")
instead of guessing.

Every rule's outcome reaches one point of the rule loop as "one of these
open literals holds": a lone literal sets its flag there, more are kept as
a clause.  That is the only point that sets a derived flag, and
``FgConclusions.provenance`` (ROADMAP item 8, not built) would record the
rule's name there.  Only a forward implication can clash with an
established flag, so it is the one rule outcome checked for a clash: a
contrapositive names antecedents that are still open, and the dichotomy
(while none of its alternatives holds) those not refuted, so neither names
a flag that is already set.

The closure repeats passes of the rule loop until a pass sets no flag.
Flags are only ever added, so comparing ``yes | no`` before and after a
pass is exact.  Recording a clause sets no flag, and every rule reads only
the flags, so after a pass that set none the next pass would re-derive
only clauses already kept.  Clauses are settled once, after that last
pass: a clause that some flag now satisfies is dropped, and the rest are
reported.

A clause is named as ``(flag, value)`` literals once per process: its
literal set is a subset of two or more negated antecedents of one
implication, or the dichotomy's pair, so the table allows at most 30
clause masks over both kinds and bounds the ``_literals`` cache.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import NamedTuple, Optional

from .errors import ContradictionError, HypothesisError

__all__ = [
    "AMALGAM",
    "HNN",
    "FgPremises",
    "FgConclusions",
    "fg_inference",
    "FLAG_NAMES",
]

# the kinds of splitting the rules speak about, as premise files name them
AMALGAM = "amalgam"
HNN = "hnn"

# flag index -> (attribute, display name)
_FLAGS: tuple[tuple[str, str], ...] = (
    ("n_fg", "N fg"),
    ("n_in_c", "N in C"),
    ("nc_finite_index", "NC finite index"),
    ("n_and_a_fg", "N^A fg"),
    ("n_and_b_fg", "N^B fg"),
    ("n_and_c_fg", "N^C fg"),
    ("c_over_n_finite", "C/N^C finite"),
    ("n_and_c_trivial", "N^C trivial"),
    ("n_and_a_free", "N^A free"),
    ("n_and_b_free", "N^B free"),
    ("factors_have_no_fg_normal", "factors have no fg nontrivial normal subgroup of infinite index"),
    ("c_free_abelian", "C free abelian of finite rank"),
    ("n_nontrivial", "N nontrivial"),
    ("g_over_n_finite", "G/N finite"),
    ("n_free", "N free"),
)

FLAG_NAMES = tuple(attr for attr, _ in _FLAGS)
_INDEX = {attr: i for i, (attr, _) in enumerate(_FLAGS)}
DISPLAY = {attr: name for attr, name in _FLAGS}

_BITS = tuple(1 << i for i in range(len(_FLAGS)))

TriBool = Optional[bool]


class FgPremises(NamedTuple):
    """Caller-asserted flags; None means unknown.

    The structural flags ``factors_have_no_fg_normal``, ``c_free_abelian``
    and ``n_nontrivial`` gate the deeper rules; the conclusion-vocabulary
    flags ``g_over_n_finite`` / ``n_free`` may also be asserted when known,
    so a conclusion set can be fed back in unchanged.
    """

    n_fg: TriBool = None
    n_in_c: TriBool = None
    nc_finite_index: TriBool = None
    n_and_a_fg: TriBool = None
    n_and_b_fg: TriBool = None
    n_and_c_fg: TriBool = None
    c_over_n_finite: TriBool = None
    n_and_c_trivial: TriBool = None
    n_and_a_free: TriBool = None
    n_and_b_free: TriBool = None
    factors_have_no_fg_normal: TriBool = None
    c_free_abelian: TriBool = None
    n_nontrivial: TriBool = None
    g_over_n_finite: TriBool = None
    n_free: TriBool = None


class FgConclusions(NamedTuple):
    """Closure of a premise set: definite flags plus disjunction clauses.

    Each clause is a frozenset of ``(attribute, bool)`` literals, meaning at
    least one of them holds; clauses appear only where the rules force a
    disjunction they cannot resolve.
    """

    flags: tuple[TriBool, ...]
    disjunctions: frozenset[frozenset[tuple[str, bool]]]

    def __getitem__(self, attr: str) -> TriBool:
        return self.flags[_INDEX[attr]]


# One row per rule: (name, antecedents, alternatives).  A literal is a flag
# name, negated by a "not " prefix.  "{s}" in a flag stands for a factor
# side, "{S}" in a name for its capital.  A row whose alternative names a
# side is repeated once per side, A then B, in place; an antecedent that
# names a side is required on every side.  A row with one alternative is an
# implication, also applied contrapositively; the dichotomy comes last and
# is applied forward only.  Names and order show in contradiction errors.
_TABLE = (
    ("fg-off-edge-forces-finite-index", "n_fg, not n_in_c", "nc_finite_index"),
    ("fg-off-edge-with-fg-edge-kernel-forces-{S}-part-fg",
     "n_fg, not n_in_c, n_and_c_fg", "n_and_{s}_fg"),
    ("finite-index-forces-off-edge", "nc_finite_index", "not n_in_c"),
    ("finite-index-with-fg-parts-forces-fg", "nc_finite_index, n_and_{s}_fg", "n_fg"),
    # finite quotient transfer: with NC of finite index, G/N finite <=> C/N^C finite
    ("finite-quotient-transfer-up",
     "nc_finite_index, c_over_n_finite", "g_over_n_finite"),
    ("finite-quotient-transfer-down",
     "nc_finite_index, g_over_n_finite", "c_over_n_finite"),
    ("infinite-quotient-transfer-up",
     "nc_finite_index, not c_over_n_finite", "not g_over_n_finite"),
    ("infinite-quotient-transfer-down",
     "nc_finite_index, not g_over_n_finite", "not c_over_n_finite"),
    # trivial edge intersection: freeness and finite generation pass between
    # N and its factor parts
    ("trivial-edge-free-parts-force-free",
     "n_nontrivial, n_and_c_trivial, n_and_{s}_free", "n_free"),
    ("trivial-edge-free-forces-{S}-part-free",
     "n_nontrivial, n_and_c_trivial, n_free", "n_and_{s}_free"),
    ("trivial-edge-fg-forces-finite-index",
     "n_nontrivial, n_and_c_trivial, n_fg", "nc_finite_index"),
    ("trivial-edge-fg-forces-{S}-part-fg",
     "n_nontrivial, n_and_c_trivial, n_fg", "n_and_{s}_fg"),
    # free abelian edge group + tame factors + fg off-edge N forces the
    # unresolved alternative: finite quotient or free kernel
    ("abelian-edge-tame-factors-dichotomy",
     "c_free_abelian, factors_have_no_fg_normal, n_fg, not n_in_c",
     "g_over_n_finite, n_free"),
)


def _masks(literals: str) -> tuple[int, int]:
    """Yes-mask and no-mask of a comma-separated list of literals."""
    yes = no = 0
    for literal in literals.split(", "):
        flag = literal.removeprefix("not ")
        if flag == literal:
            yes |= 1 << _INDEX[flag]
        else:
            no |= 1 << _INDEX[flag]
    return yes, no


def _compile(kind: str) -> tuple[tuple[str, int, int, int, int, bool], ...]:
    """The table expanded over the kind's sides, each rule as
    ``(name, need_yes, need_no, alt_yes, alt_no, single)``, where ``single``
    marks a rule with one alternative: an implication."""
    all_sides = ("a", "b") if kind == AMALGAM else ("a",)
    rules = []
    for name, ants, alts in _TABLE:
        mirrored = "{s}" in alts
        for side in all_sides if mirrored else ("",):
            sides = (side,) if mirrored else all_sides
            need = _masks(", ".join(ants.format(s=s) for s in sides))
            alt_yes, alt_no = _masks(alts.format(s=side))
            lits = alt_yes | alt_no
            single = lits & (lits - 1) == 0
            rules.append((name.format(S=side.upper()), *need, alt_yes, alt_no, single))
    return tuple(rules)


_RULES = {AMALGAM: _compile(AMALGAM), HNN: _compile(HNN)}

# every premise value, in flag order
_PREMISES = attrgetter(*FLAG_NAMES)

# the values of five consecutive flags, indexed by their yes-bits | no-bits << 5
_FIVE_FLAGS = tuple(
    tuple(True if y >> i & 1 else False if n >> i & 1 else None for i in range(5))
    for n in range(32)
    for y in range(32)
)


_NO_CLAUSES: frozenset[frozenset[tuple[str, bool]]] = frozenset()


@cache
def _literals(lit_yes: int, lit_no: int) -> frozenset[tuple[str, bool]]:
    """A clause's ``(flag, value)`` literals."""
    return frozenset(
        (attr, bool(lit_yes & bit))
        for bit, attr in zip(_BITS, FLAG_NAMES)
        if (lit_yes | lit_no) & bit
    )


def fg_inference(
    kind: str,
    premises,
    *,
    nontrivial_decomposition: bool = True,
) -> FgConclusions:
    """Close a premise set under the finite-generation rules.

    ``kind`` is ``"amalgam"`` or ``"hnn"``.  The amalgam rules are only
    sound for a nontrivial decomposition (A != C != B), which the caller
    must assert; passing ``nontrivial_decomposition=False`` for an amalgam
    is an error rather than a silently weaker closure.  Raises
    ContradictionError when a derivation clashes with a known flag.
    """
    if kind not in (AMALGAM, HNN):
        raise ValueError(f"unknown splitting kind {kind!r}")
    if kind == AMALGAM and not nontrivial_decomposition:
        raise HypothesisError(
            "amalgam inference requires the nontriviality assertion A != C != B"
        )
    yes = no = 0
    for bit, value in zip(_BITS, _PREMISES(premises)):
        if value:
            yes |= bit
        elif value is not None:
            no |= bit
    # unresolved clauses, each a (yes, no) pair of literal masks of which at
    # least one holds; a dict is a set that keeps insertion order
    clauses: dict[tuple[int, int], None] = {}
    rules = _RULES[kind]
    while True:
        known = yes | no
        for name, need_yes, need_no, alt_yes, alt_no, single in rules:
            if need_yes & no or need_no & yes:
                continue  # an antecedent fails
            open_yes, open_no = need_yes & ~yes, need_no & ~no
            if open_yes or open_no:
                if not (single and (alt_yes & no or alt_no & yes)):
                    continue
                # contrapositive: some open antecedent must fail
                lit_yes, lit_no = open_no, open_yes
            elif single:
                if alt_yes & no or alt_no & yes:
                    flag = FLAG_NAMES[(alt_yes | alt_no).bit_length() - 1]
                    raise ContradictionError(
                        f"rule {name!r} derives "
                        f"{DISPLAY[flag]} = {'yes' if alt_yes else 'no'} "
                        f"against the established opposite",
                        rule=name,
                    )
                if not (alt_yes & ~yes or alt_no & ~no):
                    continue  # already established
                lit_yes, lit_no = alt_yes, alt_no
            elif alt_yes & yes or alt_no & no:
                continue  # the dichotomy already holds
            else:
                lit_yes, lit_no = alt_yes & ~no, alt_no & ~yes
                if not (lit_yes or lit_no):
                    raise ContradictionError(
                        f"rule {name!r} has both alternatives refuted",
                        rule=name,
                    )
            # one of these open literals holds: set a lone one, else keep
            # the clause
            lits = lit_yes | lit_no
            if lits & (lits - 1) == 0:
                yes |= lit_yes
                no |= lit_no
            else:
                clauses[lit_yes, lit_no] = None
        if yes | no == known:
            break  # a pass that set no flag: the next would see the same

    # three five-flag blocks cover the 15 flags
    flags = (
        _FIVE_FLAGS[yes & 31 | (no & 31) << 5]
        + _FIVE_FLAGS[yes >> 5 & 31 | (no >> 5 & 31) << 5]
        + _FIVE_FLAGS[yes >> 10 | no >> 10 << 5]
    )
    if clauses:
        # Settle the clauses: drop those that some flag satisfies.  None of
        # the rest has lost all of its literals.  Each is the negated open
        # antecedents of an implication whose conclusion is refuted, or the
        # dichotomy's unrefuted alternatives, recorded while the rule's
        # other antecedents held; were all its literals refuted, its rule
        # would have raised in the last pass, which runs every rule.
        clauses = [(y, n) for y, n in clauses if not (y & yes or n & no)]
    if not clauses:
        return FgConclusions(flags, _NO_CLAUSES)
    named = [_literals(*clause) for clause in clauses]
    # drop clauses subsumed by smaller ones
    minimal = frozenset(c for c in named if not any(o < c for o in named))
    return FgConclusions(flags, minimal)
