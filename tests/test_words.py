import copy
import itertools
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from fiberkit import words as words_module
from fiberkit.errors import HypothesisError
from fiberkit.words import (
    Word,
    cancel_ends,
    concat,
    cyclic_reduce,
    exponent_sum,
    reduce_word,
    substitute,
)

from tests_support import (
    letter_substitute,
    quadratic_cyclic_reduce,
    reference_reduce_word,
    reference_substitute,
)

GENS = ("x", "y", "z")

syllable = st.tuples(st.sampled_from(GENS), st.integers(-5, 5).filter(bool))
raw_syllables = st.lists(syllable, max_size=12)
words = raw_syllables.map(reduce_word)
# u c u^-1 with u nonempty: the first and last syllables are inverse
conjugated = st.tuples(words.filter(bool), words.filter(bool)).map(
    lambda uc: uc[0] * uc[1] * uc[0].inverse()
)
# images of two or more syllables, conjugated ones among them
long_images = (words | conjugated).filter(lambda word: len(word.syllables) > 1)
# words whose exponents are +-1 and +-2 only
small_exponent_words = st.lists(
    st.tuples(st.sampled_from(GENS), st.sampled_from((-2, -1, 1, 2))), max_size=12
).map(reduce_word)


def w(*sylls):
    return Word.of(*sylls)


class TestReduce:
    def test_forced_cancellation(self):
        assert reduce_word([("x", 1), ("x", 1), ("y", -1), ("y", 1)]) == w(("x", 2))

    def test_empty(self):
        assert reduce_word([]) == Word()

    def test_already_reduced_relator_unchanged(self):
        sylls = (("x", 2), ("y", 2), ("x", 2), ("y", -1))
        assert reduce_word(sylls).syllables == sylls

    def test_zero_exponents_dropped(self):
        assert reduce_word([("x", 0), ("y", 2)]) == w(("y", 2))

    @given(raw_syllables)
    def test_idempotent(self, sylls):
        once = reduce_word(sylls)
        assert reduce_word(once.syllables) == once

    @given(words, words)
    def test_length_subadditive(self, u, v):
        assert len(u * v) <= len(u) + len(v)

    def test_cascading_cancellation_of_list_pairs(self):
        raw = [["x", 1], ("y", 2), ["z", 0], ["y", -2], ("x", -1), ("x", 0)]
        assert reduce_word(raw) == Word()
        assert reduce_word(raw[:3] + [("y", 1)]) == w(("x", 1), ("y", 3))

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_the_list_stack_reference(self, data):
        # zero exponents, a tail that cancels back through the head, and
        # pairs given as lists as well as tuples
        raw_syllable = st.tuples(st.sampled_from(GENS), st.integers(-3, 3))
        head = data.draw(st.lists(raw_syllable, max_size=8))
        middle = data.draw(st.lists(raw_syllable, max_size=3))
        tail = [(g, -e) for g, e in reversed(head)] if data.draw(st.booleans()) else []
        raw = [
            list(pair) if data.draw(st.booleans()) else pair
            for pair in head + middle + tail
        ]
        assert reduce_word(raw) == reference_reduce_word(raw)

    def test_unreduced_constructor_rejected(self):
        with pytest.raises(ValueError):
            Word((("x", 1), ("x", 2)))
        with pytest.raises(ValueError):
            Word((("x", 0),))


class TestInverse:
    @given(words)
    def test_inverse_cancels(self, u):
        assert u * u.inverse() == Word()
        assert u.inverse() * u == Word()

    @given(words)
    def test_involution(self, u):
        assert u.inverse().inverse() == u


class TestExponentSum:
    def test_relator_sums(self):
        r = w(("x", 2), ("y", 2), ("x", 2), ("y", -1))
        assert exponent_sum(r, "x") == 4
        assert exponent_sum(r, "y") == 1

    def test_empty(self):
        assert exponent_sum(Word(), "x") == 0

    @given(words, words, st.sampled_from(GENS))
    def test_additive_under_concat(self, u, v, g):
        assert exponent_sum(u * v, g) == exponent_sum(u, g) + exponent_sum(v, g)


class TestSubstitute:
    def test_straightening_move(self):
        word = w(("u", 1), ("y", 2), ("u", 1), ("y", -1))
        images = {"u": w(("u", 1), ("y", 1)), "y": Word.gen("y")}
        assert substitute(word, images) == w(("u", 1), ("y", 3), ("u", 1))

    @given(words)
    def test_identity_assignment(self, word):
        images = {g: Word.gen(g) for g in GENS}
        assert substitute(word, images) == word

    def test_inversion_twice(self):
        images = {"x": Word.gen("x", -1)}
        assert substitute(substitute(Word.gen("x"), images), images) == Word.gen("x")

    def test_missing_image(self):
        with pytest.raises(ValueError):
            substitute(Word.gen("x"), {"y": Word.gen("y")})

    @settings(max_examples=200)
    @given(words, st.fixed_dictionaries({g: st.one_of(
        st.just(Word()),
        st.tuples(st.sampled_from(GENS), st.integers(-4, 4).filter(bool))
        .map(lambda s: Word((s,))),
        words,
    ) for g in GENS}))
    def test_matches_the_power_reference(self, word, images):
        # images empty, of one syllable or longer, on the same generator or
        # on another one
        assert substitute(word, images) == reference_substitute(word, images)

    @settings(max_examples=200)
    @given(small_exponent_words, st.fixed_dictionaries({g: long_images for g in GENS}))
    @example(
        w(("x", 1), ("y", -1), ("x", 2), ("z", -2)),
        {"x": w(("y", 1), ("z", 2), ("y", -1)), "y": w(("x", 1), ("z", 1)),
         "z": w(("z", -1), ("x", 1), ("y", 1), ("z", 1))},
    )
    def test_matches_the_letter_expansion(self, word, images):
        # multi-syllable images at exponents +-1 and +-2
        assert substitute(word, images) == letter_substitute(word, images)

    @given(words, st.fixed_dictionaries({g: words | conjugated for g in GENS}))
    def test_count_is_what_substitute_puts_together(self, word, images):
        pieces = sum(
            1 if len(images[g].syllables) == 1 else len((images[g] ** e).syllables)
            for g, e in word.syllables
        )
        # the syllables the bound counts are those the powers put together
        assert words_module._substituted_size(word.syllables, images) == pieces

    @given(words, st.lists(st.tuples(st.sampled_from(GENS), words), max_size=3).map(dict),
           st.lists(st.tuples(st.sampled_from(GENS), words), max_size=3).map(dict))
    def test_functorial(self, word, alpha, beta):
        # substitution along composed assignments equals iterated substitution
        full_alpha = {g: alpha.get(g, Word.gen(g)) for g in GENS}
        full_beta = {g: beta.get(g, Word.gen(g)) for g in GENS}
        composed = {g: substitute(full_beta[g], full_alpha) for g in GENS}
        assert substitute(word, composed) == substitute(
            substitute(word, full_beta), full_alpha
        )


class TestCyclicReduce:
    def test_merges_across_the_ends(self):
        assert cyclic_reduce(w(("u", 1), ("y", 3), ("u", 1))) == w(("u", 2), ("y", 3))

    def test_conjugation_stripped(self):
        assert cyclic_reduce(w(("x", 1), ("y", 1), ("x", -1))) == Word.gen("y")

    def test_empty(self):
        assert cyclic_reduce(Word()) == Word()

    def test_canonical_rotation_prefers_first_generator(self):
        assert cyclic_reduce(w(("y", 3), ("x", 2)), order=("x", "y")) == w(
            ("x", 2), ("y", 3)
        )

    def test_positive_before_negative(self):
        # both rotations start with x; the sign ordering breaks the tie
        word = w(("x", 1), ("y", 1), ("x", -1), ("y", 1))
        reduced = cyclic_reduce(word, order=("x", "y"))
        assert reduced.syllables[0] == ("x", 1)

    @given(words)
    def test_idempotent(self, word):
        once = cyclic_reduce(word)
        assert cyclic_reduce(once) == once

    @given(words, words)
    def test_conjugation_invariant(self, word, conjugator):
        conjugated = conjugator * word * conjugator.inverse()
        assert cyclic_reduce(conjugated) == cyclic_reduce(word)

    @given(words, st.sampled_from(GENS))
    def test_preserves_exponent_sums(self, word, g):
        assert exponent_sum(cyclic_reduce(word), g) == exponent_sum(word, g)

    @given(words)
    def test_no_shorter_rotation(self, word):
        reduced = cyclic_reduce(word)
        letters = reduced.letters()
        for i in range(len(letters)):
            rotation = reduce_word(letters[i:] + letters[:i])
            assert len(rotation) >= len(reduced)


class TestCancelEnds:
    @given(words, words)
    def test_cyclically_reduced_conjugate(self, word, conjugator):
        conjugated = conjugator * word * conjugator.inverse()
        out = cancel_ends(conjugated)
        sylls = out.syllables
        assert len(sylls) <= 1 or sylls[0][0] != sylls[-1][0]
        assert cyclic_reduce(out) == cyclic_reduce(conjugated) == cyclic_reduce(word)
        assert len(out) == len(cyclic_reduce(word))


class TestUncheckedConstruction:
    """Words built without the public constructor's check still pass it."""

    @given(raw_syllables, words, words, st.integers(-4, 4),
           st.lists(st.tuples(st.sampled_from(GENS), words), max_size=3).map(dict))
    def test_every_result_passes_the_public_check(self, raw, u, v, n, images):
        images = {g: images.get(g, Word.gen(g)) for g in GENS}
        conjugated = v * u * v.inverse()
        for result in (
            reduce_word(raw),
            concat(u, v),
            u * v,
            substitute(u, images),
            u ** n,
            u.inverse(),
            cyclic_reduce(conjugated),
            cyclic_reduce(conjugated, order=("z", "y", "x")),
            cancel_ends(conjugated),
        ):
            assert Word(result.syllables) == result


@st.composite
def words_with_orders(draw):
    """A power ``w**k`` (k = 1..4) of a word on one to three generators,
    conjugated by a short word, with a random generator order or none."""
    gens = GENS[: draw(st.integers(1, 3))]
    sylls = st.tuples(st.sampled_from(gens), st.integers(-4, 4).filter(bool))
    word = reduce_word(draw(st.lists(sylls, max_size=10)))
    word = word ** draw(st.integers(1, 4))
    conjugator = reduce_word(draw(st.lists(sylls, max_size=3)))
    word = conjugator * word * conjugator.inverse()
    order = draw(st.none() | st.permutations(gens))
    return word, order


class TestCyclicReduceOracle:
    @settings(max_examples=300)
    @given(words_with_orders())
    def test_matches_least_letter_rotation(self, case):
        word, order = case
        assert cyclic_reduce(word, order) == quadratic_cyclic_reduce(word, order)

    def test_huge_exponent_is_one_syllable_step(self):
        word = w(("y", 1), ("x", 10 ** 9), ("y", 2), ("x", -1))
        assert cyclic_reduce(word, order=("x", "y")) == w(
            ("x", 10 ** 9), ("y", 2), ("x", -1), ("y", 1)
        )


class TestLeastRotation:
    def test_every_short_key_list(self):
        # all 9,840 lists of one to eight keys over three symbols, the
        # periodic and constant ones among them
        lists = [keys for n in range(1, 9) for keys in itertools.product("abc", repeat=n)]
        assert len(lists) == 9840
        for keys in lists:
            start = words_module._least_rotation(keys)
            assert 0 <= start < len(keys)
            rotations = [keys[i:] + keys[:i] for i in range(len(keys))]
            assert keys[start:] + keys[:start] == min(rotations), keys


class TestFormatting:
    def test_str(self):
        assert str(w(("x", 2), ("y", -1))) == "x^2 y^-1"
        assert str(Word.gen("x")) == "x"
        assert str(Word()) == "1"

    def test_pow(self):
        assert Word.gen("x") ** 3 == w(("x", 3))
        assert Word.gen("x") ** -2 == w(("x", -2))
        assert Word.gen("x") ** 0 == Word()

    @given(conjugated)
    @example(w(("y", 1), ("x", 2), ("y", -1)))
    def test_pow_of_one_and_minus_one(self, u):
        # words with conjugate ends, where other powers split off u
        assert u ** 1 is u
        assert u ** -1 == u.inverse()

    @given(words | conjugated, st.integers(-6, 6))
    def test_pow_matches_repeated_concat(self, u, n):
        base = u if n >= 0 else u.inverse()
        expected = Word()
        for _ in range(abs(n)):
            expected = concat(expected, base)
        assert u ** n == expected


class TestValueContract:
    """A ``Word`` is an immutable value: equal by class and syllables, hashed
    as the tuple of its syllables, and rebuilt by copy and pickle."""

    def test_constructor_messages(self):
        with pytest.raises(ValueError, match="^zero exponent on generator 'y'$"):
            Word((("x", 1), ("y", 0)))
        with pytest.raises(ValueError, match="^word not freely reduced at syllable 2$"):
            Word((("x", 1), ("y", 2), ("y", 1)))

    def test_assignment_and_deletion_raise(self):
        word = w(("x", 2))
        with pytest.raises(AttributeError):
            word.syllables = (("y", 1),)
        with pytest.raises(AttributeError):
            word.extra = 1
        with pytest.raises(AttributeError):
            del word.syllables
        assert word == w(("x", 2))

    @given(words)
    def test_hash_is_hash_of_compared_fields(self, u):
        assert hash(u) == hash((u.syllables,))

    def test_never_equal_to_a_bare_tuple(self):
        word = w(("x", 2), ("y", -1))
        assert word != word.syllables
        assert word != (word.syllables,)
        assert Word() != ()
        assert Word() == Word()

    @given(words)
    def test_copy_and_pickle_rebuild_an_equal_word(self, u):
        for twin in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
            assert type(twin) is Word and twin == u


class TestSyllableBound:
    """A power or a substitution that would put together more than
    ``SYLLABLE_BOUND`` syllables beyond those of its word is refused before
    it is built; one at the bound is built, and a word longer than the
    bound is not refused for its own length."""

    MESSAGE = "the word would grow by more than 12 syllables"

    @pytest.fixture(autouse=True)
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(words_module, "SYLLABLE_BOUND", 12)

    def test_power(self):
        # z (x y) z^-1 to the n puts together 2|n| core syllables, 2|n| - 2
        # more than the core has
        u = w(("z", 1), ("x", 1), ("y", 1), ("z", -1))
        assert len((u ** 7).syllables) == 16
        assert len((u ** -7).syllables) == 16
        for n in (8, -8, 10 ** 12):
            with pytest.raises(HypothesisError, match=f"^{self.MESSAGE}$"):
                u ** n

    def test_one_syllable_cores_never_grow(self):
        assert w(("z", 1), ("x", 1), ("z", -1)) ** 10 ** 12 == w(
            ("z", 1), ("x", 10 ** 12), ("z", -1)
        )
        assert substitute(w(("x", 10 ** 12), ("y", 1)), {
            "x": w(("z", 1), ("x", 1), ("z", -1)), "y": Word.gen("y"),
        }) == w(("z", 1), ("x", 10 ** 12), ("z", -1), ("y", 1))

    def test_substitution_of_short_powers(self):
        # (x y)^n with x -> x z puts together 3n syllables, n more than the
        # word has, no power more than two
        images = {"x": w(("x", 1), ("z", 1)), "y": Word.gen("y")}
        assert len(substitute(w(*[("x", 1), ("y", 1)] * 12), images).syllables) == 36
        with pytest.raises(HypothesisError, match=f"^{self.MESSAGE}$"):
            substitute(w(*[("x", 1), ("y", 1)] * 13), images)

    def test_substitution_counts_every_syllable(self):
        # one long power early, and short ones after it that pass the
        # bound: x^4 y (x y)^5 puts together 24 syllables, 12 more
        images = {"x": w(("x", 1), ("z", 1)), "y": Word.gen("y")}
        word = w(("x", 4), ("y", 1), *[("x", 1), ("y", 1)] * 5)
        assert len(substitute(word, images).syllables) == 24
        with pytest.raises(HypothesisError, match=f"^{self.MESSAGE}$"):
            substitute(word * Word.gen("x"), images)

    def test_refused_substitution_builds_no_power(self, monkeypatch):
        # the count refuses x^4 y (x y)^5 x before (x z)^4 is built
        powers = []
        power = Word.__pow__
        monkeypatch.setattr(Word, "__pow__", lambda word, n: powers.append(n) or power(word, n))
        images = {"x": w(("x", 1), ("z", 1)), "y": Word.gen("y")}
        word = w(("x", 4), ("y", 1), *[("x", 1), ("y", 1)] * 5)
        substitute(word, images)
        assert powers
        powers.clear()
        with pytest.raises(HypothesisError, match=f"^{self.MESSAGE}$"):
            substitute(word * Word.gen("x"), images)
        assert powers == []

    def test_substitution_counts_once(self, monkeypatch):
        # x y x^2 y ... x^5 y under x -> y x y^-1: each distinct power is
        # longer than the bound over the ten syllables, and one count of
        # the whole word settles them all
        counted = []
        count = words_module._substituted_size
        monkeypatch.setattr(words_module, "_substituted_size",
                            lambda *args: counted.append(1) or count(*args))
        word = Word.of(*[s for e in range(1, 6) for s in (("x", e), ("y", 1))])
        y = Word.gen("y")
        images = {"x": y * Word.gen("x") * y.inverse(), "y": y}
        assert substitute(word, images) == y * word * y.inverse()
        assert counted == [1]

    def test_long_word_under_one_syllable_images(self):
        word = w(*[("x", 1), ("y", 2)] * 20)
        images = {"x": Word.gen("x", -1), "y": Word.gen("z", 3)}
        assert substitute(word, images) == reference_substitute(word, images)

    def test_missing_image_still_named(self):
        # the count passes over z, which has no image, and the substitution
        # then names it
        with pytest.raises(ValueError, match="^no image given for generator 'z'$"):
            substitute(w(*[("x", 1), ("z", 1)] * 13), {"x": w(("x", 1), ("y", 1))})
