import pytest

from fiberkit.corpus import (
    showcase_hint,
    showcase_presentation,
    torus_knot_data,
    trefoil_data,
    unknot_data,
)
from fiberkit.errors import HypothesisError
from fiberkit.fox import alexander_poly, monic_degree_check
from fiberkit.links import (
    KnotGroupData,
    NOT_APPLICABLE,
    cable_fibered,
    cable_group,
    fibered_splice,
    splice,
    stallings_report,
)
from fiberkit.presentations import Presentation, ZMap, abelianize, canonical_zmap
from fiberkit.words import Word
from tests_support import torus_alexander_closed_form


def w(*sylls):
    return Word.of(*sylls)


def zero_class(data: KnotGroupData) -> KnotGroupData:
    return KnotGroupData(
        presentation=data.presentation,
        meridian=data.meridian,
        longitude=data.longitude,
        phi=ZMap({g: 0 for g in data.presentation.generators}),
        name=data.name,
    )


class TestSplice:
    def test_generator_and_relator_counts(self):
        first = zero_class(trefoil_data())
        second = zero_class(torus_knot_data(2, 5))
        pres, phi = splice(first, second)
        assert len(pres.generators) == 4
        assert len(pres.relators) == 4
        assert set(phi.values) == set(pres.generators)

    def test_renaming_on_collision(self):
        pres, _ = splice(zero_class(trefoil_data()), zero_class(trefoil_data()))
        assert pres.generators == ("x", "y", "x_2", "y_2")

    def test_trefoil_trefoil_homology_trivial(self):
        pres, _ = splice(zero_class(trefoil_data()), zero_class(trefoil_data()))
        assert abelianize(pres).is_trivial

    def test_trefoil_cinqfoil_homology_trivial(self):
        pres, _ = splice(zero_class(trefoil_data()), zero_class(torus_knot_data(2, 5)))
        assert abelianize(pres).is_trivial

    def test_homology_trivial_for_corpus_pairs(self):
        knots = [
            trefoil_data(),
            torus_knot_data(2, 5),
            torus_knot_data(3, 4),
            unknot_data(),
        ]
        for first in knots:
            for second in knots:
                pres, _ = splice(zero_class(first), zero_class(second))
                assert abelianize(pres).is_trivial, (first.name, second.name)

    def test_unknot_splice_forces_meridian(self):
        trefoil = zero_class(trefoil_data())
        unknot = zero_class(unknot_data())
        pres, _ = splice(trefoil, unknot)
        # the exchange relator identifies the trefoil meridian with the
        # empty longitude, literally killing it
        assert trefoil.meridian in pres.relators

    def test_class_incompatibility_rejected(self):
        with pytest.raises(HypothesisError, match="incompatible"):
            splice(trefoil_data(), trefoil_data())

    def test_missing_peripheral_rejected(self):
        bare = KnotGroupData(
            presentation=Presentation(("z",)),
            meridian=None,
            longitude=None,
            phi=ZMap({"z": 0}),
            name="bare",
        )
        with pytest.raises(HypothesisError, match="peripheral"):
            splice(bare, zero_class(unknot_data()))

    def test_compatible_classes_restrict(self):
        first = zero_class(trefoil_data())
        second = zero_class(unknot_data())
        _, phi = splice(first, second)
        for g, v in first.phi.values.items():
            assert phi.values[g] == v


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
        assert abelianize(cab.presentation).is_infinite_cyclic
        assert cab.phi.values["t"] == 0
        unknot_cable = cable_group(unknot_data(), 0, 1)
        assert unknot_cable.presentation.relators == (Word.gen("t", -1),)

    def test_abelianization_infinite_cyclic(self):
        for base in (unknot_data(), trefoil_data(), torus_knot_data(2, 5)):
            for p, q in ((2, 3), (3, 2), (1, 2), (5, 2), (-2, 3)):
                cab = cable_group(base, p, q)
                assert abelianize(cab.presentation).is_infinite_cyclic, (base.name, p, q)

    def test_peripheral_classes(self):
        for p, q in ((2, 3), (3, 5), (1, 2)):
            cab = cable_group(trefoil_data(), p, q)
            assert cab.phi(cab.meridian) == 1
            assert cab.phi(cab.longitude) == 0

    def test_torus_sweep_alexander(self):
        from math import gcd

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
        assert abelianize(second.presentation).is_infinite_cyclic
        assert second.phi(second.meridian) == 1

    def test_rejects_common_factor(self):
        with pytest.raises(HypothesisError, match="coprime"):
            cable_group(unknot_data(), 2, 4)

    def test_rejects_zero_q(self):
        with pytest.raises(HypothesisError, match="q != 0"):
            cable_group(unknot_data(), 1, 0)

    def test_requires_peripheral(self):
        bare = KnotGroupData(
            presentation=Presentation(("z",)),
            meridian=None,
            longitude=None,
            phi=ZMap({"z": 1}),
        )
        with pytest.raises(HypothesisError, match="peripheral"):
            cable_group(bare, 2, 3)


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
