import copy
import pickle
from math import gcd

import pytest
from hypothesis import given, strategies as st

from fiberkit.errors import HypothesisError
from fiberkit.presentations import (
    Presentation,
    ZMap,
    abelianize,
    canonical_zmap,
    torsion_number,
    zmap_validate,
)
from fiberkit.snf import smith_normal_form
from fiberkit.words import Word, exponent_sum, reduce_word
from tests_support import (
    is_infinite_cyclic,
    is_trivial,
    minor_gcd,
    reference_zmap_validate,
)


def two_gen(relator_sylls):
    return Presentation(("x", "y"), (Word.of(*relator_sylls),))


SHOWCASE = two_gen((("x", 2), ("y", 2), ("x", 2), ("y", -1)))
TREFOIL = two_gen((("x", 2), ("y", -3)))
COMMUTATOR = two_gen((("x", 1), ("y", 1), ("x", -1), ("y", -1)))


class TestPresentation:
    def test_rejects_duplicate_generators(self):
        with pytest.raises(ValueError):
            Presentation(("x", "x"))

    def test_rejects_undeclared_relator(self):
        with pytest.raises(ValueError):
            Presentation(("x",), (Word.gen("y"),))

    def test_undeclared_message_names_every_generator(self):
        relator = Word.of(("x", 1), ("z", 2), ("y", -1))
        with pytest.raises(ValueError) as info:
            Presentation(("x",), (Word.gen("x"), relator))
        assert str(info.value) == (
            "relator x z^2 y^-1 uses undeclared generators ['y', 'z']"
        )

    def test_exponent_matrix(self):
        assert SHOWCASE.exponent_matrix() == [[4, 1]]
        assert TREFOIL.exponent_matrix() == [[2, -3]]

    def test_exponent_matrix_is_a_fresh_copy(self):
        matrix = SHOWCASE.exponent_matrix()
        matrix[0][0] = 99
        assert SHOWCASE.exponent_matrix() == [[4, 1]]

    @given(st.lists(st.lists(st.tuples(st.sampled_from(("a", "b", "c")),
                                       st.integers(-5, 5).filter(bool)), max_size=8),
                    max_size=4))
    def test_exponent_matrix_matches_exponent_sum(self, relators):
        gens = ("a", "b", "c")
        pres = Presentation(gens, tuple(reduce_word(r) for r in relators))
        assert pres.exponent_matrix() == [
            [exponent_sum(r, g) for g in gens] for r in pres.relators
        ]


class TestPresentationValueContract:
    """Equal by class, generators and relators; the exponent-sum rows built
    at construction take no part in equality, hash or repr."""

    @pytest.mark.parametrize("generators, message", [
        (("x", ""), "empty generator name"),
        (("x", "y", "x"), "duplicate generator 'x'"),
    ])
    def test_constructor_messages(self, generators, message):
        with pytest.raises(ValueError) as info:
            Presentation(generators)
        assert str(info.value) == message

    def test_assignment_and_deletion_raise(self):
        for attr in ("generators", "relators", "_rows", "extra"):
            with pytest.raises(AttributeError):
                setattr(TREFOIL, attr, ())
        for attr in ("generators", "relators", "_rows"):
            with pytest.raises(AttributeError):
                delattr(TREFOIL, attr)
        assert TREFOIL.exponent_matrix() == [[2, -3]]

    def test_hash_is_hash_of_compared_fields(self):
        for pres in (SHOWCASE, TREFOIL, COMMUTATOR, Presentation(("x",))):
            assert hash(pres) == hash((pres.generators, pres.relators))

    def test_equality_ignores_rows(self):
        twin = two_gen((("x", 2), ("y", -3)))
        object.__setattr__(twin, "_rows", ((0, 0),))
        assert twin == TREFOIL
        assert hash(twin) == hash(TREFOIL)
        assert TREFOIL != two_gen((("x", 3), ("y", -2)))
        assert TREFOIL != (TREFOIL.generators, TREFOIL.relators)

    def test_repr(self):
        assert repr(TREFOIL) == (
            "Presentation(generators=('x', 'y'), relators=(Word('x^2 y^-3'),))"
        )

    def test_copy_and_pickle_rebuild_the_rows(self):
        for twin in (copy.copy(SHOWCASE), copy.deepcopy(SHOWCASE),
                     pickle.loads(pickle.dumps(SHOWCASE))):
            assert twin == SHOWCASE
            assert twin.exponent_matrix() == [[4, 1]]


class TestAbelianize:
    def test_showcase_is_infinite_cyclic(self):
        result = abelianize(SHOWCASE)
        assert result.free_rank == 1
        assert result.torsion_coefficients == ()
        assert is_infinite_cyclic(result)

    def test_trefoil_is_infinite_cyclic(self):
        # oracle: 1x2 Smith form of (2, -3) has the single entry gcd(2,3)=1
        result = abelianize(TREFOIL)
        assert result.free_rank == 1
        assert result.torsion_coefficients == ()

    def test_free_group(self):
        result = abelianize(Presentation(("x",)))
        assert result.free_rank == 1
        assert str(result) == "Z"

    def test_torsion(self):
        result = abelianize(two_gen((("x", 2), ("y", -4))))
        assert result.torsion_coefficients == (2,)
        assert result.free_rank == 1
        assert str(result) == "Z/2 + Z"

    def test_trivial(self):
        pres = Presentation(
            ("x", "y"), (Word.of(("x", 1)), Word.of(("y", 1)))
        )
        assert is_trivial(abelianize(pres))
        assert str(abelianize(pres)) == "trivial"

    def test_diagonal_is_gcd_of_exponent_sums(self):
        # oracle: the one 1x2 row (4, 1) has determinantal divisor gcd(4, 1)
        matrix = SHOWCASE.exponent_matrix()
        assert smith_normal_form(matrix) == [minor_gcd(matrix, 1)] == [1]
        assert is_infinite_cyclic(abelianize(SHOWCASE))


class TestTorsionNumber:
    def test_showcase(self):
        assert torsion_number(SHOWCASE) == 1

    def test_trefoil(self):
        assert torsion_number(TREFOIL) == 1

    def test_even(self):
        assert torsion_number(two_gen((("x", 2), ("y", 4)))) == 2

    def test_commutator_relator_fails(self):
        with pytest.raises(HypothesisError, match="m = 0"):
            torsion_number(COMMUTATOR)

    def test_needs_two_generators(self):
        with pytest.raises(HypothesisError):
            torsion_number(Presentation(("x",)))


class TestCanonicalZmap:
    def test_showcase(self):
        phi = canonical_zmap(SHOWCASE)
        assert phi.values == {"x": -1, "y": 4}

    def test_trefoil(self):
        phi = canonical_zmap(TREFOIL)
        assert phi.values == {"x": 3, "y": 2}
        assert phi(TREFOIL.relators[0]) == 0

    def test_two_letter(self):
        # p = 1, q = -1, so m = 1, a = 1, b = -1 and the map is (1, 1)
        pres = two_gen((("x", 1), ("y", -1)))
        phi = canonical_zmap(pres)
        assert phi.values == {"x": 1, "y": 1}
        assert phi(pres.relators[0]) == 0

    def test_commutator_fails(self):
        with pytest.raises(HypothesisError):
            canonical_zmap(COMMUTATOR)

    @given(
        st.lists(
            st.tuples(st.sampled_from(("x", "y")), st.integers(-4, 4).filter(bool)),
            min_size=1,
            max_size=8,
        )
    )
    def test_always_valid_and_onto(self, sylls):
        relator = reduce_word(sylls)
        pres = Presentation(("x", "y"), (relator,))
        try:
            phi = canonical_zmap(pres)
        except HypothesisError:
            from fiberkit.words import exponent_sum

            assert exponent_sum(relator, "x") == 0
            assert exponent_sum(relator, "y") == 0
            return
        assert zmap_validate(phi, pres)
        assert gcd(*phi.values.values()) == 1


GENS = ("a", "b", "c")


@st.composite
def classes_on_relators(draw):
    """A presentation on ``GENS`` and a class that may miss generators or
    name extra ones; some relators have every exponent sum 0, so that
    classes defined everywhere kill them."""
    syllable = st.tuples(st.sampled_from(GENS), st.integers(-4, 4).filter(bool))
    relators = []
    for sylls in draw(st.lists(st.lists(syllable, max_size=6), max_size=4)):
        if draw(st.booleans()):
            sylls = sylls + [(g, -e) for g, e in draw(st.permutations(sylls))]
        relators.append(reduce_word(sylls))
    values = {g: draw(st.integers(-2, 2)) for g in GENS}
    for g in draw(st.sets(st.sampled_from(GENS), max_size=1)):
        del values[g]
    values.update(draw(st.dictionaries(st.sampled_from(("z", "w")), st.integers(-2, 2))))
    return Presentation(GENS, tuple(relators)), ZMap(values)


class TestZmapValidate:
    @given(classes_on_relators())
    def test_matches_syllable_reference(self, case):
        pres, phi = case
        assert zmap_validate(phi, pres) == reference_zmap_validate(phi, pres)

    def test_showcase_map(self):
        assert zmap_validate(ZMap({"x": -1, "y": 4}), SHOWCASE)

    def test_wrong_map(self):
        assert not zmap_validate(ZMap({"x": 1, "y": 0}), TREFOIL)

    def test_no_relators(self):
        assert zmap_validate(ZMap({"x": 7}), Presentation(("x",)))

    def test_missing_generator(self):
        assert not zmap_validate(ZMap({"x": 1}), TREFOIL)


class TestZmapNormalization:
    def test_rescale(self):
        phi = ZMap({"x": 4, "y": 6})
        scaled = phi.normalized()
        assert scaled.values == {"x": 2, "y": 3}
        assert phi.image_gcd() == 2 and scaled.image_gcd() == 1

    def test_trivial_rejected(self):
        with pytest.raises(HypothesisError):
            ZMap({"x": 0}).normalized()
