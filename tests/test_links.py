import random
from math import gcd

import pytest

from fiberkit.corpus import (
    showcase_hint,
    showcase_presentation,
    torus_knot_data,
    trefoil_data,
    unknot_data,
)
from fiberkit.errors import HypothesisError
from fiberkit.fox import alexander_poly
from fiberkit.links import (
    NOT_APPLICABLE,
    cable_group,
    fibered_splice,
    splice,
    stallings_report,
)
from fiberkit.presentations import (
    GroupFile,
    Presentation,
    ZMap,
    abelianize,
    canonical_zmap,
)
from fiberkit.snf import xgcd
from fiberkit.words import Word, concat
from tests_support import (
    brown_finitely_generated,
    cable_fibered,
    is_infinite_cyclic,
    is_trivial,
    torus_alexander_closed_form,
)


def w(*sylls):
    return Word.of(*sylls)


def zero_class(data: GroupFile) -> GroupFile:
    return data._replace(phi=ZMap({g: 0 for g in data.presentation.generators}))


# knots that splice and cable refuse, with the error each raises
UNUSABLE_KNOTS = [
    (GroupFile("stray", Presentation(("z",)), ZMap({"z": 0}), Word.gen("y"), Word()),
     ValueError, "meridian is not a word in the group generators"),
    (GroupFile("stray", Presentation(("z",)), ZMap({"z": 0}), Word(), Word.gen("y")),
     ValueError, "longitude is not a word in the group generators"),
    (GroupFile("classless", Presentation(("z",)), None, Word.gen("z"), Word()),
     HypothesisError, "missing class on classless"),
]


class TestSplice:
    def test_generator_and_relator_counts(self):
        first = zero_class(trefoil_data())
        second = zero_class(torus_knot_data(2, 5))
        spliced = splice(first, second)
        assert len(spliced.presentation.generators) == 4
        assert len(spliced.presentation.relators) == 4
        assert set(spliced.phi.values) == set(spliced.presentation.generators)

    def test_renaming_on_collision(self):
        spliced = splice(zero_class(trefoil_data()), zero_class(trefoil_data()))
        assert spliced.presentation.generators == ("x", "y", "x_2", "y_2")

    def test_trefoil_trefoil_homology_trivial(self):
        spliced = splice(zero_class(trefoil_data()), zero_class(trefoil_data()))
        assert is_trivial(abelianize(spliced.presentation))

    def test_trefoil_cinqfoil_homology_trivial(self):
        spliced = splice(zero_class(trefoil_data()), zero_class(torus_knot_data(2, 5)))
        assert is_trivial(abelianize(spliced.presentation))

    def test_homology_trivial_for_corpus_pairs(self):
        knots = [
            trefoil_data(),
            torus_knot_data(2, 5),
            torus_knot_data(3, 4),
            unknot_data(),
        ]
        for first in knots:
            for second in knots:
                spliced = splice(zero_class(first), zero_class(second))
                assert is_trivial(abelianize(spliced.presentation)), (first.name, second.name)

    def test_unknot_splice_forces_meridian(self):
        trefoil = zero_class(trefoil_data())
        unknot = zero_class(unknot_data())
        spliced = splice(trefoil, unknot)
        # the exchange relator identifies the trefoil meridian with the
        # empty longitude, literally killing it
        assert trefoil.meridian in spliced.presentation.relators

    def test_class_incompatibility_rejected(self):
        with pytest.raises(HypothesisError, match="incompatible"):
            splice(trefoil_data(), trefoil_data())

    def test_missing_peripheral_rejected(self):
        bare = GroupFile("bare", Presentation(("z",)), ZMap({"z": 0}))
        with pytest.raises(HypothesisError, match="peripheral"):
            splice(bare, zero_class(unknot_data()))

    @pytest.mark.parametrize("knot, error, message", UNUSABLE_KNOTS)
    def test_unusable_knot_rejected(self, knot, error, message):
        unknot = zero_class(unknot_data())
        for first, second in ((knot, unknot), (unknot, knot)):
            with pytest.raises(error) as info:
                splice(first, second)
            assert str(info.value) == message

    def test_compatible_classes_restrict(self):
        first = zero_class(trefoil_data())
        second = zero_class(unknot_data())
        spliced = splice(first, second)
        for g, v in first.phi.values.items():
            assert spliced.phi.values[g] == v

    def test_result_is_named_and_has_no_peripheral_words(self):
        spliced = splice(zero_class(trefoil_data()), zero_class(torus_knot_data(2, 5)))
        assert spliced.name == "trefoil+T(2,5)"
        assert (spliced.meridian, spliced.longitude) == (None, None)


class TestTorusKnotData:
    def test_peripheral_words_match_concat_reference(self):
        # reference: the meridian x^s y^r through concat, and the longitude
        # as x^p times the (-pq)th power of that meridian
        for p in range(2, 25):
            for q in range(2, 25):
                if gcd(p, q) != 1:
                    continue
                data = torus_knot_data(p, q)
                _, s, r = xgcd(q, p)
                meridian = concat(Word.gen("x", s), Word.gen("y", r))
                longitude = concat(Word.gen("x", p), meridian ** (-p * q))
                assert (data.meridian, data.longitude) == (meridian, longitude), (p, q)


class TestCableGroup:
    def test_unknot_cable_is_torus_group(self):
        cab = cable_group(unknot_data(), 2, 3)
        assert cab.presentation.generators == ("u", "t")
        assert cab.presentation.relators == (w(("u", 2), ("t", -3)),)
        assert cab.phi.values == {"u": 3, "t": 2}

    def test_zero_p_reproduces_the_knot(self):
        base = trefoil_data()
        cab = cable_group(base, 0, 1)
        # the added relator reads t = longitude: a redundant generator
        assert cab.presentation.relators[-1] == base.longitude * Word.gen("t", -1)
        assert is_infinite_cyclic(abelianize(cab.presentation))
        assert cab.phi.values["t"] == 0
        unknot_cable = cable_group(unknot_data(), 0, 1)
        assert unknot_cable.presentation.relators == (Word.gen("t", -1),)

    def test_abelianization_infinite_cyclic(self):
        for base in (unknot_data(), trefoil_data(), torus_knot_data(2, 5)):
            for p, q in ((2, 3), (3, 2), (1, 2), (5, 2), (-2, 3)):
                cab = cable_group(base, p, q)
                assert is_infinite_cyclic(abelianize(cab.presentation)), (base.name, p, q)

    def test_peripheral_classes(self):
        for p, q in ((2, 3), (3, 5), (1, 2)):
            cab = cable_group(trefoil_data(), p, q)
            assert cab.phi(cab.meridian) == 1
            assert cab.phi(cab.longitude) == 0

    def test_torus_sweep_alexander(self):
        for p in range(2, 8):
            for q in range(p + 1, 8):
                if gcd(p, q) != 1:
                    continue
                cab = cable_group(unknot_data(), p, q)
                delta = alexander_poly(cab.presentation, cab.phi)
                assert delta == torus_alexander_closed_form(p, q)

    def test_iterated_cable_still_infinite_cyclic(self):
        first = cable_group(unknot_data(), 2, 3)
        second = cable_group(first, 3, 2)
        assert is_infinite_cyclic(abelianize(second.presentation))
        assert second.phi(second.meridian) == 1

    def test_rejects_common_factor(self):
        with pytest.raises(HypothesisError, match="coprime"):
            cable_group(unknot_data(), 2, 4)

    def test_rejects_zero_q(self):
        with pytest.raises(HypothesisError, match="q != 0"):
            cable_group(unknot_data(), 1, 0)

    def test_requires_peripheral(self):
        bare = GroupFile("K", Presentation(("z",)), ZMap({"z": 1}))
        with pytest.raises(HypothesisError, match="peripheral"):
            cable_group(bare, 2, 3)

    @pytest.mark.parametrize("knot, error, message", UNUSABLE_KNOTS)
    def test_unusable_knot_rejected(self, knot, error, message):
        with pytest.raises(error) as info:
            cable_group(knot, 2, 3)
        assert str(info.value) == message


class TestFiberedPredicates:
    def test_both_asserted(self):
        assert fibered_splice(True, True, True, True) is True
        assert fibered_splice(False, True, True, True) is False
        assert fibered_splice(True, False, True, True) is False

    def test_missing_incompressibility(self):
        assert fibered_splice(True, True, False, True) == NOT_APPLICABLE
        assert fibered_splice(True, True, True, False) == NOT_APPLICABLE
        assert fibered_splice(True, True, False, False) == NOT_APPLICABLE

    def test_cable_fibered(self):
        assert cable_fibered(True, 2, 3) is True
        assert cable_fibered(True, 1, 2) is True
        assert cable_fibered(False, 4, 7) is False

    def test_cable_fibered_guards(self):
        with pytest.raises(HypothesisError):
            cable_fibered(True, 2, 0)
        with pytest.raises(HypothesisError):
            cable_fibered(True, 2, 4)

    def test_cable_chain_preserves_verdict(self):
        for base in (True, False):
            verdict = base
            for p, q in ((2, 3), (3, 5), (1, 2), (5, 4)):
                verdict = cable_fibered(verdict, p, q)
            assert verdict is base


class TestStallingsReport:
    def test_trefoil_consistent(self):
        data = trefoil_data()
        report = stallings_report(data.presentation, data.phi)
        assert report.verdict == "consistent with fibered"
        assert report.alexander_degree == 2
        assert report.fiber_rank == 2
        assert report.alexander_monic

    def test_showcase_consistent_degree_four(self):
        pres = showcase_presentation()
        report = stallings_report(pres, canonical_zmap(pres), [showcase_hint()])
        assert report.verdict == "consistent with fibered"
        assert report.alexander_degree == 4
        assert report.fiber_rank == 4

    def test_rank_that_disagrees_with_degree_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr("fiberkit.links.fiber_rank", lambda pres, hints: 99)
        pres = showcase_presentation()
        report = stallings_report(pres, canonical_zmap(pres), [showcase_hint()])
        assert report.render().endswith(
            "degree = 4\nfiber-rank = 99\n"
            "note: rank 99 disagrees with degree 4\nverdict = inconclusive"
        )

    def test_commutator_inconclusive_with_diagnostic(self):
        pres = Presentation(
            ("x", "y"), (w(("x", 1), ("y", 1), ("x", -1), ("y", -1)),)
        )
        report = stallings_report(pres, ZMap({"x": 1, "y": 0}))
        assert report.verdict == "inconclusive"
        assert any("m = 0" in note for note in report.diagnostics)

    def test_ascending_extension_not_fibered(self):
        # x y x^-1 = y^2 has order polynomial t - 2: not monic, so the
        # kernel of the class cannot be finitely generated free
        pres = Presentation(
            ("x", "y"), (w(("x", 1), ("y", 1), ("x", -1), ("y", -2)),)
        )
        report = stallings_report(pres, canonical_zmap(pres))
        assert report.alexander is not None
        assert not report.alexander_monic
        assert report.verdict == "not fibered"

    def test_m_zero_keeps_a_non_monic_obstruction(self):
        pres = Presentation(("x", "y"), (w(
            ("x", 2), ("y", 1), ("x", -2), ("y", 3), ("x", -2), ("y", -3), ("x", 2), ("y", -1),
        ),))
        report = stallings_report(pres, ZMap({"x": -3, "y": -2}))
        assert report.render().endswith(
            "monic = no\ndegree = 8\n"
            "note: m = 0: both exponent sums vanish, no torsion number\n"
            "verdict = not fibered"
        )

    def test_m_zero_non_monic_classes_are_not_finitely_generated(self):
        # seeded relators of alternating x and y syllables whose exponent
        # sums both vanish, over the primitive classes nonzero on both
        # generators; Brown's criterion is the oracle
        rng = random.Random(7)
        classes = [ZMap({"x": a, "y": b})
                   for a in range(-4, 5) for b in range(-4, 5) if a and b and gcd(a, b) == 1]
        assert len(classes) == 44
        relators = set()
        while len(relators) < 200:
            sylls = [(g, rng.choice((-3, -2, -1, 1, 2, 3)))
                     for g in "xy" * rng.randint(1, 4)]
            if sum(e for g, e in sylls if g == "x") == sum(e for g, e in sylls if g == "y") == 0:
                relators.add(w(*sylls))
        non_monic = 0
        for relator in sorted(relators, key=str):
            pres = Presentation(("x", "y"), (relator,))
            for phi in classes:
                delta = alexander_poly(pres, phi)
                terms = delta.terms
                if terms and abs(terms[0][1]) == abs(terms[-1][1]) == 1:
                    continue
                non_monic += 1
                assert stallings_report(pres, phi).verdict == "not fibered", (relator, phi)
                assert not brown_finitely_generated(relator, phi), (relator, phi)
        assert non_monic == 460

    def test_trivial_class_inconclusive(self):
        report = stallings_report(
            Presentation(("x",)), ZMap({"x": 0})
        )
        assert report.verdict == "inconclusive"

    def test_render_is_deterministic(self):
        data = trefoil_data()
        first = stallings_report(data.presentation, data.phi).render()
        second = stallings_report(data.presentation, data.phi).render()
        assert first == second
        assert "verdict = consistent with fibered" in first
