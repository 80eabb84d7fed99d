import hashlib
import random
from itertools import islice, product

import pytest

from fiberkit import inference
from fiberkit.errors import ContradictionError, HypothesisError
from fiberkit.inference import FLAG_NAMES, FgPremises, fg_inference
from tests_support import as_premises, implies, known, reference_fg_inference


class TestForwardRules:
    def test_fg_off_edge_forces_finite_index(self):
        c = fg_inference("amalgam", FgPremises(n_fg=True, n_in_c=False))
        assert c["nc_finite_index"] is True

    def test_converse_with_fg_parts(self):
        c = fg_inference(
            "amalgam",
            FgPremises(nc_finite_index=True, n_and_a_fg=True, n_and_b_fg=True),
        )
        assert c["n_fg"] is True

    def test_hnn_converse_needs_only_a_side(self):
        c = fg_inference(
            "hnn", FgPremises(nc_finite_index=True, n_and_a_fg=True)
        )
        assert c["n_fg"] is True

    def test_amalgam_converse_waits_for_b_side(self):
        c = fg_inference(
            "amalgam", FgPremises(nc_finite_index=True, n_and_a_fg=True)
        )
        assert c["n_fg"] is None

    def test_finite_index_forces_off_edge(self):
        c = fg_inference("amalgam", FgPremises(nc_finite_index=True))
        assert c["n_in_c"] is False

    def test_fg_edge_kernel_gives_fg_parts(self):
        c = fg_inference(
            "amalgam",
            FgPremises(n_fg=True, n_in_c=False, n_and_c_fg=True),
        )
        assert c["n_and_a_fg"] is True
        assert c["n_and_b_fg"] is True

    def test_finite_quotient_transfer(self):
        c = fg_inference(
            "amalgam",
            FgPremises(nc_finite_index=True, c_over_n_finite=True),
        )
        assert c["g_over_n_finite"] is True
        c = fg_inference(
            "amalgam",
            FgPremises(nc_finite_index=True, c_over_n_finite=False),
        )
        assert c["g_over_n_finite"] is False
        c = fg_inference(
            "amalgam",
            FgPremises(nc_finite_index=True, g_over_n_finite=True),
        )
        assert c["c_over_n_finite"] is True


class TestTrivialEdgeRules:
    BASE = dict(n_nontrivial=True, n_and_c_trivial=True)

    def test_free_transfer_up(self):
        c = fg_inference(
            "amalgam",
            FgPremises(**self.BASE, n_and_a_free=True, n_and_b_free=True),
        )
        assert c["n_free"] is True

    def test_free_transfer_down(self):
        c = fg_inference("amalgam", FgPremises(**self.BASE, n_free=True))
        assert c["n_and_a_free"] is True
        assert c["n_and_b_free"] is True

    def test_fg_gives_finite_index_and_parts(self):
        c = fg_inference("amalgam", FgPremises(**self.BASE, n_fg=True))
        assert c["nc_finite_index"] is True
        assert c["n_and_a_fg"] is True
        assert c["n_and_b_fg"] is True

    def test_gated_on_nontrivial_kernel(self):
        c = fg_inference(
            "amalgam", FgPremises(n_and_c_trivial=True, n_free=True)
        )
        assert c["n_and_a_free"] is None

    def test_contrapositive_not_free(self):
        c = fg_inference(
            "amalgam",
            FgPremises(**self.BASE, n_free=False, n_and_a_free=True),
        )
        assert c["n_and_b_free"] is False


class TestDichotomy:
    PREMISES = dict(
        c_free_abelian=True,
        factors_have_no_fg_normal=True,
        n_fg=True,
        n_in_c=False,
    )

    def test_unresolved_disjunction(self):
        c = fg_inference("amalgam", FgPremises(**self.PREMISES))
        assert frozenset(
            {("g_over_n_finite", True), ("n_free", True)}
        ) in c.disjunctions

    def test_resolves_when_one_side_fails(self):
        c = fg_inference(
            "amalgam", FgPremises(**self.PREMISES, g_over_n_finite=False)
        )
        assert c["n_free"] is True
        assert not c.disjunctions

    def test_gated_on_structure_flags(self):
        c = fg_inference("amalgam", FgPremises(n_fg=True, n_in_c=False))
        assert frozenset(
            {("g_over_n_finite", True), ("n_free", True)}
        ) not in c.disjunctions


class TestContrapositives:
    def test_infinite_index_disjunction(self):
        c = fg_inference("amalgam", FgPremises(nc_finite_index=False))
        assert known(c) == {"nc_finite_index": False}
        assert frozenset({("n_fg", False), ("n_in_c", True)}) in c.disjunctions

    def test_disjunction_resolves_by_unit_propagation(self):
        c = fg_inference(
            "amalgam", FgPremises(nc_finite_index=False, n_fg=True)
        )
        assert c["n_in_c"] is True

    def test_unit_clause_is_set_at_the_end_of_its_pass(self, monkeypatch):
        """On a four-rule table, a clause left with one open literal sets it
        before the next pass, so the forward rule that comes first in that
        pass names the clash.  Left to the rule that recorded the clause,
        the literal would be set later and the clash named after that rule."""
        table = (
            ("free-forces-fg", "n_free", "n_fg"),
            ("fg-in-edge-forces-finite-index", "n_fg, n_in_c", "nc_finite_index"),
            ("nontrivial-forces-in-edge", "n_nontrivial", "n_in_c"),
            ("in-edge-forces-free", "n_in_c", "n_free"),
        )
        monkeypatch.setattr(inference, "_TABLE", table)
        monkeypatch.setitem(inference._RULES, "hnn", inference._compile("hnn"))
        premises = FgPremises(nc_finite_index=False, n_nontrivial=True)
        for closure in (fg_inference, reference_fg_inference):
            with pytest.raises(ContradictionError) as info:
                closure("hnn", premises)
            assert info.value.rule == "free-forces-fg"


class TestContradictions:
    def test_in_edge_with_finite_index(self):
        with pytest.raises(ContradictionError) as info:
            fg_inference(
                "amalgam", FgPremises(nc_finite_index=True, n_in_c=True)
            )
        assert info.value.rule == "finite-index-forces-off-edge"

    def test_fg_off_edge_with_infinite_index(self):
        with pytest.raises(ContradictionError):
            fg_inference(
                "amalgam",
                FgPremises(n_fg=True, n_in_c=False, nc_finite_index=False),
            )


class TestClosureShape:
    def test_monotone_on_examples(self):
        weak = fg_inference("amalgam", FgPremises(n_fg=True, n_in_c=False))
        strong = fg_inference(
            "amalgam",
            FgPremises(n_fg=True, n_in_c=False, n_and_c_fg=True),
        )
        assert implies(weak, strong)

    def test_idempotent_on_examples(self):
        for premises in (
            FgPremises(n_fg=True, n_in_c=False),
            FgPremises(nc_finite_index=True, c_over_n_finite=True),
            FgPremises(
                n_nontrivial=True, n_and_c_trivial=True, n_free=True
            ),
        ):
            once = fg_inference("amalgam", premises)
            twice = fg_inference("amalgam", as_premises(once))
            assert once.flags == twice.flags

    def test_amalgam_needs_nontriviality_assertion(self):
        with pytest.raises(HypothesisError):
            fg_inference(
                "amalgam",
                FgPremises(n_fg=True),
                nontrivial_decomposition=False,
            )

    def test_hnn_ignores_decomposition_flag(self):
        c = fg_inference(
            "hnn",
            FgPremises(n_fg=True, n_in_c=False),
            nontrivial_decomposition=False,
        )
        assert c["nc_finite_index"] is True

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fg_inference("graph", FgPremises())

    @pytest.mark.parametrize("kind", ["amalgam", "hnn"])
    def test_premise_values_read_by_truth(self, kind):
        """1 and 0 close exactly like True and False."""
        ints = fg_inference(kind, FgPremises(n_fg=1, n_in_c=0))
        bools = fg_inference(kind, FgPremises(n_fg=True, n_in_c=False))
        assert ints.flags[:3] == (True, False, True)
        assert ints == bools

    def test_flag_vocabulary(self):
        assert len(FLAG_NAMES) == 15
        assert FLAG_NAMES[:11] == (
            "n_fg",
            "n_in_c",
            "nc_finite_index",
            "n_and_a_fg",
            "n_and_b_fg",
            "n_and_c_fg",
            "c_over_n_finite",
            "n_and_c_trivial",
            "n_and_a_free",
            "n_and_b_free",
            "factors_have_no_fg_normal",
        )


AMALGAM_RULES = (
    "fg-off-edge-forces-finite-index",
    "fg-off-edge-with-fg-edge-kernel-forces-A-part-fg",
    "fg-off-edge-with-fg-edge-kernel-forces-B-part-fg",
    "finite-index-forces-off-edge",
    "finite-index-with-fg-parts-forces-fg",
    "finite-quotient-transfer-up",
    "finite-quotient-transfer-down",
    "infinite-quotient-transfer-up",
    "infinite-quotient-transfer-down",
    "trivial-edge-free-parts-force-free",
    "trivial-edge-free-forces-A-part-free",
    "trivial-edge-free-forces-B-part-free",
    "trivial-edge-fg-forces-finite-index",
    "trivial-edge-fg-forces-A-part-fg",
    "trivial-edge-fg-forces-B-part-fg",
    "abelian-edge-tame-factors-dichotomy",
)


def _entry(kind, premises):
    """One truth-table entry in the benchmark sweep's form (yes/no masks
    and sorted clauses, or the clashing rule), plus the error message."""
    try:
        conclusions = fg_inference(kind, premises)
    except ContradictionError as exc:
        return f"contradiction {exc.rule} {exc}"
    yes = no = 0
    for i, value in enumerate(conclusions.flags):
        if value is True:
            yes |= 1 << i
        elif value is False:
            no |= 1 << i
    clauses = sorted(sorted(clause) for clause in conclusions.disjunctions)
    return f"{yes} {no} {clauses}"


class TestPinnedEngine:
    """Pins the closure's observable behaviour, rule order included: the
    expanded order decides which rule a contradiction names."""

    @pytest.mark.parametrize("kind, count", [("amalgam", 16), ("hnn", 13)])
    def test_expanded_rule_names_in_order(self, kind, count):
        wanted = [
            name for name in AMALGAM_RULES
            if kind == "amalgam" or "-B-" not in name
        ]
        assert len(wanted) == count
        assert [rule[0] for rule in inference._RULES[kind]] == wanted

    # frozen before the rules became one table, as an independent reference
    DIGESTS = {
        "amalgam": "df242bd05408192b9d93f847d02986fa0917288cabe6398b6129833943442b39",
        "hnn": "bd64167738de819af143f1fbbd33b9ea7aaeffa6aeed652b0fce37269f9c4c26",
    }

    @pytest.mark.parametrize("kind", ["amalgam", "hnn"])
    def test_random_states_digest(self, kind):
        """20,000 seeded random states over all 15 flags, each flag
        unknown, yes or no with equal odds."""
        rng = random.Random(910_0267)
        hasher = hashlib.sha256()
        for _ in range(20_000):
            code = rng.randrange(3 ** len(FLAG_NAMES))
            values = []
            for _ in FLAG_NAMES:
                code, digit = divmod(code, 3)
                values.append((None, True, False)[digit])
            premises = FgPremises(**dict(zip(FLAG_NAMES, values)))
            hasher.update(_entry(kind, premises).encode() + b"\n")
        assert hasher.hexdigest() == self.DIGESTS[kind]


def _outcome(closure, kind, premises):
    """Flags and clauses of a closure, or the rule and message it raised."""
    try:
        conclusions = closure(kind, premises)
    except ContradictionError as exc:
        return exc.rule, str(exc)
    return conclusions.flags, conclusions.disjunctions


class TestReferenceClosure:
    """``fg_inference`` against ``tests_support.reference_fg_inference``,
    the closure with nested helpers that checks every derived literal."""

    SWEEP_FLAGS = {
        "amalgam": FLAG_NAMES[:11],
        "hnn": tuple(
            f for f in FLAG_NAMES[:11] if f not in ("n_and_b_fg", "n_and_b_free")
        ),
    }

    @pytest.mark.parametrize("kind, step", [("amalgam", 9), ("hnn", 1)])
    def test_sweep_states(self, kind, step):
        """Every ``step``-th state of the benchmark sweep space: 3^11 for an
        amalgam, 3^9 for an HNN extension, two structure flags pinned."""
        flags = self.SWEEP_FLAGS[kind]
        combos = product((None, True, False), repeat=len(flags))
        for combo in islice(combos, 0, None, step):
            premises = FgPremises(
                **dict(zip(flags, combo)), c_free_abelian=True, n_nontrivial=True
            )
            assert _outcome(fg_inference, kind, premises) == _outcome(
                reference_fg_inference, kind, premises
            ), combo

    @pytest.mark.parametrize("kind", ["amalgam", "hnn"])
    def test_random_states(self, kind):
        """20,000 seeded random states over all 15 flags, with ints as well
        as bools for the definite values."""
        rng = random.Random(20261019)
        for _ in range(20_000):
            values = [rng.choice((None, True, False, 0, 1)) for _ in FLAG_NAMES]
            premises = FgPremises(**dict(zip(FLAG_NAMES, values)))
            assert _outcome(fg_inference, kind, premises) == _outcome(
                reference_fg_inference, kind, premises
            ), values
