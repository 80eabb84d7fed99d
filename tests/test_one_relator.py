import random
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from fiberkit import one_relator, words
from fiberkit.errors import HintError, HypothesisError
from fiberkit.one_relator import (
    analyze,
    descend,
    fiber_rank,
    invert_automorphism,
    rank_transfer,
    validate_automorphism,
)
from fiberkit.presentations import Presentation, ZMap
from fiberkit.splittings import coset_graph
from fiberkit.textfmt import parse_word
from fiberkit.words import Word, cancel_ends, cyclic_reduce, exponent_sum, substitute

from tests_support import (
    _elementary_nielsen_moves,
    _rank_recursion_stops,
    parse_hint,
    reference_exponent_data,
    reference_fiber_rank,
    reference_validate_automorphism,
    scrambled_torus_relator,
)


def w(*sylls):
    return Word.of(*sylls)


def two_gen(x, y, *sylls):
    return Presentation((x, y), (w(*sylls),))


SHOWCASE_RELATOR = w(("x", 2), ("y", 2), ("x", 2), ("y", -1))
H_RELATOR = w(("u", 1), ("y", 2), ("u", 1), ("y", -1))
HINT = {"u": w(("u", 1), ("y", 1))}


class TestAnalyze:
    def test_showcase(self):
        data = analyze(SHOWCASE_RELATOR, "x", "y")
        assert (data.p, data.q, data.m, data.a, data.b, data.e) == (4, 1, 1, 4, 1, 2)

    def test_straightened(self):
        data = analyze(w(("u", 2), ("y", 3)), "u", "y")
        assert (data.p, data.q, data.m, data.a, data.b, data.e) == (2, 3, 1, 2, 3, 2)

    def test_no_x_occurrence(self):
        data = analyze(w(("y", 5)), "x", "y")
        assert (data.p, data.q, data.m, data.a, data.b, data.e) == (0, 5, 5, 0, 1, 1)

    def test_zero_y_sum_rejected(self):
        with pytest.raises(HypothesisError, match="exponent sum"):
            analyze(w(("x", 3)), "x", "y")

    def test_not_cyclically_reduced_rejected(self):
        with pytest.raises(HypothesisError, match="cyclically reduced"):
            analyze(w(("x", 1), ("y", 2), ("x", -1)), "x", "y")

    def test_any_rotation_accepted(self):
        # y x^2 is cyclically reduced but not in canonical rotation
        data = analyze(w(("y", 1), ("x", 2)), "x", "y")
        assert (data.p, data.q, data.m, data.a, data.b, data.e) == (2, 1, 1, 2, 1, 2)

    @settings(max_examples=200)
    @given(st.lists(
        st.tuples(st.sampled_from("xxxyyyz"), st.integers(-6, 6).filter(bool)),
        max_size=10,
    ))
    def test_every_syllable_rotation_agrees(self, sylls):
        sylls = cancel_ends(w(*sylls)).syllables
        outcomes = {
            exponent_outcome(analyze, Word.of(*(sylls[i:] + sylls[:i])))
            for i in range(len(sylls))
        }
        assert len(outcomes) <= 1


def exponent_outcome(data_fn, relator):
    try:
        return data_fn(relator, "x", "y")
    except HypothesisError as exc:
        return str(exc)


class TestExponentData:
    """The one pass of ``analyze`` against the reference that makes one pass
    per quantity, messages included, on cyclically reduced relators."""

    @pytest.mark.parametrize("text, message", [
        ("z x^2 w", "relator uses unexpected generators ['w', 'z']"),
        ("x^3", "exponent sum in the second generator is zero; "
                "the descent hypothesis fails"),
        ("x y z y^-1", "relator uses unexpected generators ['z']"),
    ])
    def test_refusals(self, text, message):
        relator = cancel_ends(parse_word(text, None))
        assert exponent_outcome(analyze, relator) == message
        assert exponent_outcome(reference_exponent_data, relator) == message

    @settings(max_examples=300)
    @given(st.lists(
        st.tuples(st.sampled_from("xxxyyyz"), st.integers(-6, 6).filter(bool)),
        max_size=10,
    ))
    def test_matches_the_multi_pass_reference(self, sylls):
        relator = cancel_ends(w(*sylls))
        assert exponent_outcome(analyze, relator) == exponent_outcome(
            reference_exponent_data, relator
        )


class TestDescend:
    def test_showcase(self):
        assert descend(SHOWCASE_RELATOR, 2, "x", "y", "u") == H_RELATOR

    def test_straightened(self):
        assert descend(w(("u", 2), ("y", 3)), 2, "u", "y", "v") == w(
            ("v", 1), ("y", 3)
        )

    def test_step_one_renames(self):
        assert descend(w(("x", 2), ("y", 1)), 1, "x", "y", "u") == w(
            ("u", 2), ("y", 1)
        )

    def test_divisibility_enforced(self):
        with pytest.raises(HypothesisError, match="divisible"):
            descend(w(("x", 3), ("y", 1)), 2, "x", "y", "u")

    def test_lifting_law(self):
        # exponent sums transform as (p, q) -> (p/e, q) down a descent
        for relator, e in (
            (SHOWCASE_RELATOR, 2),
            (w(("x", 4), ("y", 1), ("x", -2), ("y", 2)), 2),
        ):
            down = cyclic_reduce(descend(relator, e, "x", "y", "u"), order=("u", "y"))
            top = analyze(relator, "x", "y")
            bottom = analyze(down, "u", "y")
            assert bottom.p == top.p // e
            assert bottom.q == top.q

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("xy"), st.integers(-4, 4).filter(bool)),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from((2, 3, 6)),
    )
    def test_descend_matches_the_descents_of_fiber_rank(self, sylls, factor):
        # with no hints every stage after the first is a descent of the one
        # before; descend makes it on the Word, fiber_rank on its exponents
        relator = cancel_ends(w(*((g, e * factor if g == "x" else e) for g, e in sylls)))
        _, stages, carried = recorded_stages(Presentation(("x", "y"), (relator,)), [])
        assert stages[0] == relator
        for before, after, (_, _, e) in zip(stages, stages[1:], carried):
            assert after == descend(before, e, "x", "y", "x")


class TestRankTransfer:
    def test_showcase_instance(self):
        assert rank_transfer(2, 4, 1, 2) == 4

    def test_straightened_instance(self):
        assert rank_transfer(0, 2, 3, 2) == 2

    @given(
        st.integers(0, 10),
        st.integers(-10, 10),
        st.integers(-10, 10).filter(bool),
    )
    def test_step_one_is_identity(self, ell, a, b):
        from math import gcd

        if gcd(a, b) != 1:
            return
        assert rank_transfer(ell, a, b, 1) == ell

    def test_rejects_zero_b(self):
        with pytest.raises(HypothesisError):
            rank_transfer(1, 2, 0, 2)

    def test_rejects_common_factor(self):
        with pytest.raises(HypothesisError):
            rank_transfer(1, 2, 4, 2)

    @given(
        st.integers(0, 8),
        st.integers(-12, 12),
        st.integers(-12, 12).filter(bool),
        st.integers(1, 8),
    )
    def test_never_negative_on_valid_input(self, ell, a, b, e):
        # gcd(a, e) <= e and |b| >= 1 keep the transferred rank at >= 0,
        # so the inconsistency guard can only fire on junk input
        from math import gcd

        if gcd(a, b) != 1:
            return
        assert rank_transfer(ell, a, b, e) >= 0


ELEMENTARY_MOVES = [
    {"x": w(("x", 1), ("y", 1)), "y": Word.gen("y")},
    {"x": w(("y", -1), ("x", 1)), "y": Word.gen("y")},
    {"x": Word.gen("x"), "y": w(("y", 1), ("x", -1))},
    {"x": Word.gen("x"), "y": w(("x", 1), ("y", 1))},
    {"x": Word.gen("y"), "y": Word.gen("x")},
    {"x": Word.gen("x", -1), "y": Word.gen("y")},
]

# the elementary moves on the generators (a, y), for any name a
MOVE_TEMPLATES = [
    lambda a: {a: w((a, 1), ("y", 1))},
    lambda a: {a: w(("y", -1), (a, 1))},
    lambda a: {"y": w(("y", 1), (a, -1))},
    lambda a: {"y": w((a, 1), ("y", 1))},
    lambda a: {a: Word.gen("y"), "y": Word.gen(a)},
    lambda a: {a: Word.gen(a, -1)},
    lambda a: {"y": Word.gen("y", -1)},
]

# how reference_fiber_rank names a bad hint
REFERENCE_HINT_REFUSALS = ("hint moves other generators", "hint is not an automorphism")


def decoded(start, exps):
    """The word of an exponent list that alternates between the slots
    ``x`` = 0 and ``y`` = 1, its first entry in slot ``start``."""
    return Word.of(*(("xy"[start ^ (k & 1)], e) for k, e in enumerate(exps)))


def recorded_stages(pres, hints):
    """The outcome of ``fiber_rank`` (as ``rank_outcome`` gives it), the
    relator of each stage it reached as a word on ``x, y``, whatever the
    stage's names, and the ``(p, q, e)`` it carried into each stage."""
    stages, carried = [], []
    x_divisor, exponent_analysis = one_relator._x_divisor, one_relator._analysis

    def divisor(exps, start):
        stages.append(decoded(start, exps))
        return x_divisor(exps, start)

    def analysis(p, q, e):
        carried.append((p, q, e))
        return exponent_analysis(p, q, e)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(one_relator, "_x_divisor", divisor)
        patch.setattr(one_relator, "_analysis", analysis)
        got = rank_outcome(fiber_rank, pres, hints)
    return got, stages, carried


def rank_outcome(rank_fn, pres, hints):
    """The rank, "bad hint" for a refused hint, or the refusal's message."""
    try:
        return rank_fn(pres, hints)
    except HintError:
        return "bad hint"
    except HypothesisError as exc:
        return "bad hint" if str(exc) in REFERENCE_HINT_REFUSALS else str(exc)


def composite(moves):
    """Images of ``(x, y)`` under the composite of elementary moves."""
    images = {"x": Word.gen("x"), "y": Word.gen("y")}
    for move in moves:
        images = {g: substitute(move[g], images) for g in ("x", "y")}
    return images


def hint_verdict(images):
    """What ``validate_automorphism`` returns, or the message it raises."""
    try:
        return validate_automorphism(images, "x", "y")
    except HypothesisError as exc:
        return str(exc)


def oracle_verdict(images):
    """The same verdict, with the basis question settled by the heap search
    of ``invert_automorphism``."""
    u, v = images["x"], images["y"]
    det = exponent_sum(u, "x") * exponent_sum(v, "y") - exponent_sum(
        u, "y"
    ) * exponent_sum(v, "x")
    if det not in (1, -1):
        return f"hint is not an automorphism: abelianized determinant {det}"
    if invert_automorphism(images, "x", "y") is None:
        return "hint is not an automorphism: images do not form a basis"
    return images


def reduced_words_by_length(n):
    """Every freely reduced word on ``x, y`` of each letter length up to
    ``n``."""
    letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
    layers = [[()]]
    for _ in range(n):
        layers.append([
            word + (letter,)
            for word in layers[-1]
            for letter in letters
            if not word or word[-1] != (letter[0], -letter[1])
        ])
    return [[Word.of(*word) for word in layer] for layer in layers]


class TestAutomorphisms:
    def test_straightening_hint_inverts(self):
        images = validate_automorphism(HINT, "u", "y")
        assert images == {"u": w(("u", 1), ("y", 1)), "y": Word.gen("y")}
        inverse = invert_automorphism(images, "u", "y")
        assert inverse["u"] == w(("u", 1), ("y", -1))
        assert inverse["y"] == Word.gen("y")

    def test_round_trip_both_ways(self):
        images = {"x": w(("x", 1), ("y", 1)), "y": w(("y", 1), ("x", 1), ("y", 1))}
        assert validate_automorphism(images, "x", "y") == images
        inverse = invert_automorphism(images, "x", "y")
        for g in ("x", "y"):
            assert substitute(substitute(Word.gen(g), images), inverse) == Word.gen(g)
            assert substitute(substitute(Word.gen(g), inverse), images) == Word.gen(g)

    def test_det_minus_one_non_basis_rejected(self):
        # (x y^2, y x) has abelianized determinant -1 but generates a
        # proper subgroup
        images = {"x": w(("x", 1), ("y", 2)), "y": w(("y", 1), ("x", 1))}
        with pytest.raises(HypothesisError, match="basis"):
            validate_automorphism(images, "x", "y")
        assert invert_automorphism(images, "x", "y") is None

    def test_swap_and_inversion(self):
        images = {"x": Word.gen("y", -1), "y": Word.gen("x")}
        assert validate_automorphism(images, "x", "y") == images
        inverse = invert_automorphism(images, "x", "y")
        assert substitute(substitute(Word.gen("x"), images), inverse) == Word.gen("x")

    def test_determinant_gate(self):
        with pytest.raises(HypothesisError, match="determinant"):
            validate_automorphism({"x": w(("x", 2))}, "x", "y")

    def test_determinant_one_but_not_onto(self):
        # images (x, y x y x^-1 y^-1) have matrix determinant 1 yet generate
        # a proper subgroup (fold the subgroup graph: no closed y-path)
        images = {
            "x": Word.gen("x"),
            "y": w(("y", 1), ("x", 1), ("y", 1), ("x", -1), ("y", -1)),
        }
        with pytest.raises(HypothesisError, match="basis"):
            validate_automorphism(images, "x", "y")

    def test_conjugation_is_an_automorphism(self):
        images = {
            "x": w(("y", 1), ("x", 1), ("y", -1)),
            "y": Word.gen("y"),
        }
        assert validate_automorphism(images, "x", "y") == images
        inverse = invert_automorphism(images, "x", "y")
        assert substitute(substitute(Word.gen("x"), images), inverse) == Word.gen("x")

    def test_commutator_criterion_agreement(self):
        # every composite of elementary moves is a basis; the heap search
        # of invert_automorphism is the reference, and its inverse must
        # round-trip
        rng = random.Random(5)
        for _ in range(30):
            images = composite(
                rng.choice(ELEMENTARY_MOVES) for _ in range(rng.randint(1, 5))
            )
            assert validate_automorphism(images, "x", "y") == images
            inverse = invert_automorphism(images, "x", "y")
            for g in ("x", "y"):
                assert (
                    substitute(substitute(Word.gen(g), images), inverse)
                    == Word.gen(g)
                )

        bad = {
            "x": Word.gen("x"),
            "y": w(("y", 1), ("x", 1), ("y", 1), ("x", -1), ("y", -1)),
        }
        assert hint_verdict(bad) == oracle_verdict(bad)
        assert "basis" in hint_verdict(bad)

    def test_every_short_pair_matches_the_heap_search(self):
        # all 11,665 pairs of reduced words (the empty word included) with
        # |u| + |v| <= 6, of which 904 are bases
        by_length = reduced_words_by_length(6)
        pairs = bases = 0
        for a in range(7):
            for b in range(7 - a):
                for u in by_length[a]:
                    for v in by_length[b]:
                        images = {"x": u, "y": v}
                        verdict = hint_verdict(images)
                        assert verdict == oracle_verdict(images), (u, v)
                        pairs += 1
                        bases += verdict == images
        assert (pairs, bases) == (11665, 904)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(ELEMENTARY_MOVES), max_size=8),
        st.sampled_from(("x", "y")),
        st.integers(0, 100),
        st.sampled_from((0, 1, -1)),
    )
    def test_moves_and_perturbations_match_the_heap_search(
        self, moves, side, index, delta
    ):
        # a composite of elementary moves, with one syllable's exponent
        # shifted by delta (0 keeps the basis)
        images = composite(moves)
        sylls = list(images[side].syllables)
        i = index % len(sylls)
        sylls[i] = (sylls[i][0], sylls[i][1] + delta)
        images[side] = Word.of(*sylls)
        assert hint_verdict(images) == oracle_verdict(images)


def short_words(syllables, exponent):
    """Every reduced word on ``x, y`` of at most ``syllables`` syllables with
    exponents in ``-exponent..exponent``, the empty word included."""
    powers = [e for e in range(-exponent, exponent + 1) if e]
    words = [()]
    layer = [()]
    for _ in range(syllables):
        layer = [
            word + ((g, e),)
            for word in layer
            for g in ("x", "y")
            if not word or word[-1][0] != g
            for e in powers
        ]
        words += layer
    return [Word(word) for word in words]


def shape_outcome(check, hint):
    """What ``check(hint, "x", "y")`` returns, or its ``HintError`` message."""
    try:
        return check(hint, "x", "y")
    except HintError as exc:
        return f"HintError: {exc}"


class TestHintShape:
    """``validate_automorphism`` accepts an elementary move by its shape and
    sends every other hint through Nielsen's commutator criterion; on every
    hint it returns what the reference returns, which checks all of them by
    the criterion, or raises the same message."""

    def assert_matches(self, hint):
        got = shape_outcome(validate_automorphism, hint)
        assert got == shape_outcome(reference_validate_automorphism, hint), hint
        return got

    def test_every_short_hint(self):
        # 170 x 170 hints: each image left out, empty, or one to three
        # syllables with exponents in -2..2
        images = [None] + short_words(3, 2)
        assert len(images) == 170
        outcomes = {"accepted": 0, "determinant": 0, "basis": 0}
        for u in images:
            for v in images:
                hint = {g: image for g, image in (("x", u), ("y", v)) if image is not None}
                got = self.assert_matches(hint)
                if isinstance(got, dict):
                    outcomes["accepted"] += 1
                else:
                    outcomes["determinant" if "determinant" in got else "basis"] += 1
        assert sum(outcomes.values()) == 170 * 170
        assert all(outcomes.values())

    @pytest.mark.parametrize("hint, accepted", [
        ({"x": Word.gen("y"), "y": Word.gen("x")}, True),
        ({"x": Word.gen("y", -1), "y": Word.gen("x")}, True),
        ({"x": Word.gen("x", -1)}, True),
        ({"x": Word.gen("x", -1), "y": Word.gen("y", -1)}, True),
        ({"y": w(("x", 7), ("y", -1), ("x", -5))}, True),
        ({"x": w(("y", 1), ("x", 1), ("y", -1))}, True),
        # bases with no generator fixed: only the criterion accepts them
        ({"x": w(("x", 1), ("y", 1)), "y": w(("y", 1), ("x", 1), ("y", 1))}, True),
        ({"x": w(("x", 2), ("y", 1)), "y": w(("x", 1), ("y", 1))}, True),
        ({"x": w(("y", 1), ("x", 1)), "y": w(("y", 1), ("x", 1), ("y", 1), ("x", 1), ("y", 1))}, True),
        # one generator fixed, the other not of the elementary shape
        ({"y": w(("y", 1), ("x", 1), ("y", 1), ("x", -1), ("y", -1))}, False),
        ({"y": w(("x", 1), ("y", 2))}, False),
        ({"x": w(("x", 1), ("y", 2)), "y": w(("y", 1), ("x", 1))}, False),
        ({"z": Word.gen("x")}, False),
        ({"x": w(("z", 1))}, False),
    ])
    def test_named_hints(self, hint, accepted):
        assert isinstance(self.assert_matches(hint), dict) == accepted

    def test_seeded_sample_of_longer_hints(self):
        rng = random.Random(29)
        kinds = [0, 0, 0]
        for _ in range(600):
            kind = rng.randrange(3)
            kinds[kind] += isinstance(self.assert_matches(self.longer_hint(rng, kind)), dict)
        # composites and elementary shapes are bases; random pairs rarely are
        assert kinds[0] > 150 and kinds[2] > 150

    @staticmethod
    def longer_hint(rng, kind):
        if kind == 0:
            # a composite of elementary moves
            return composite(rng.choice(ELEMENTARY_MOVES) for _ in range(rng.randint(2, 12)))
        if kind == 1:
            # two random reduced words of four to eight syllables
            return {
                g: Word.of(*[
                    ("xy"[(i + start) % 2], rng.choice((-3, -2, -1, 1, 2, 3)))
                    for i in range(rng.randint(4, 8))
                ])
                for g, start in (("x", rng.randrange(2)), ("y", rng.randrange(2)))
            }
        # an elementary shape with larger powers of the fixed generator,
        # the fixed generator spelled out or left out
        g, h = rng.choice((("x", "y"), ("y", "x")))
        moved = Word.of((g, rng.randint(-9, 9)), (h, rng.choice((1, -1))), (g, rng.randint(-9, 9)))
        return {h: moved, g: Word.gen(g)} if rng.random() < 0.5 else {h: moved}


def elementary_outcome(start, exps, moved, i, s, j):
    """``_nielsen`` and ``cancel_ends`` of ``substitute`` on the same
    relator and move, each as the least rotation of its word or the
    message it raised; also the move ``_checked`` reads off the images."""
    g, h = "xy"[moved ^ 1], "xy"[moved]
    images = {g: Word.gen(g), h: Word.of((g, i), (h, s), (g, j))}
    _, matrix, move = one_relator._checked(images, "x", "y")
    assert matrix == one_relator._abelianized(images, "x", "y")
    outcomes = []
    def nielsen():
        start_after, out = one_relator._nielsen(start, exps, *move)
        # no zero and an even length (or at most one entry): cyclically reduced
        assert all(out) and (len(out) < 2 or len(out) % 2 == 0), out
        return decoded(start_after, out)

    for apply in (nielsen, lambda: cancel_ends(substitute(decoded(start, exps), images))):
        try:
            outcomes.append(cyclic_reduce(apply(), order=("x", "y")))
        except HypothesisError as exc:
            outcomes.append(str(exc))
    return outcomes


class TestElementaryMoves:
    """``fiber_rank`` applies an elementary Nielsen move to its exponent
    list by ``_nielsen``; ``cancel_ends`` of ``substitute`` is the
    reference, up to rotation, for the result and for every refusal."""

    def test_seeded_moves_match_substitute(self, monkeypatch):
        rng = random.Random(32)
        seen = dict.fromkeys(
            ("empty", "one g", "one h", "|a| > 1", "i = -j", "two-sided",
             "cascade", "refused", "bounded"), 0)
        for case in range(20_000):
            moved, s = rng.randrange(2), rng.choice((1, -1))
            i, j = rng.randint(-3, 3), rng.randint(-3, 3)
            if rng.random() < 0.2:
                j = -i
            length = rng.choice((0, 1, 1, 2, 2, 4, 6, 10))
            start = rng.randrange(2) if length else 0
            exps = [rng.choice((-1, 1, -1, 1, -2, 2, 3, -4, 7)) for _ in range(length)]
            if case % 4 == 0:
                # the inverse image of a short word: the move cancels the
                # relator back down to that word (never to nothing, as an
                # automorphism sends only the empty word there)
                g, h = "xy"[moved ^ 1], "xy"[moved]
                inverse = (((g, -i), (h, 1), (g, -j)) if s == 1 else ((g, j), (h, -1), (g, i)))
                word = cyclic_reduce(substitute(decoded(start, exps[:2]), {
                    g: Word.gen(g), h: Word.of(*inverse)}), order=("x", "y"))
                start = int(bool(word.syllables) and word.syllables[0][0] == "y")
                exps = [e for _, e in word.syllables]
            bound = words.SYLLABLE_BOUND
            if case % 5 == 0:
                bound = rng.randint(0, 24)
                monkeypatch.setattr(words, "SYLLABLE_BOUND", bound)
            got, want = elementary_outcome(start, exps, moved, i, s, j)
            monkeypatch.undo()
            assert got == want, (start, exps, moved, i, s, j, bound)
            hs = exps[start ^ moved :: 2]
            seen["empty"] += not exps
            seen["one g"] += len(exps) == 1 and not hs
            seen["one h"] += len(exps) == 1 and bool(hs)
            seen["|a| > 1"] += any(abs(a) > 1 for a in hs)
            seen["i = -j"] += bool(hs) and i == -j != 0
            seen["two-sided"] += bool(hs) and i != 0 and j != 0 and i != -j
            seen["cascade"] += isinstance(got, Word) and len(got.syllables) < len(exps) // 2
            seen["refused"] += isinstance(got, str)
            seen["bounded"] += bound < 25 and isinstance(got, Word)
        assert min(seen.values()) >= 200, seen

    def test_two_sided_move_at_the_bound(self, monkeypatch):
        # x -> y x y sends each x^a to y x (y^2 x)^(a-1) y, whose growth
        # words._substituted_size counts: one below it is refused, at it not
        relator = parse_word("x y^2 x^2 y x^3 y^-1 x y^3", None)
        images = {"x": parse_word("y x y", None), "y": Word.gen("y")}
        growth = words._substituted_size(relator.syllables, images) - len(relator.syllables)
        assert growth == 14
        exps = [e for _, e in relator.syllables]
        monkeypatch.setattr(words, "SYLLABLE_BOUND", growth - 1)
        assert elementary_outcome(0, exps, 0, 1, 1, 1) == [
            "the word would grow by more than 13 syllables"] * 2
        monkeypatch.setattr(words, "SYLLABLE_BOUND", growth)
        got, want = elementary_outcome(0, exps, 0, 1, 1, 1)
        assert got == want == cyclic_reduce(substitute(relator, images), order=("x", "y"))

    def test_conjugation_of_a_huge_power(self):
        # x -> y x y^-1 conjugates x, so only the signs of the x-exponents
        # can change; the pattern of the other moves would put together
        # 2 * 10^12 syllables for x^(10^12); x^(10^12) y alone is a base
        # case, so fiber_rank consumes the hint on a longer relator
        started = perf_counter()
        assert one_relator._nielsen(0, [10**12, 1], 0, 1, 1, -1) == (0, [10**12, 1])
        assert one_relator._nielsen(0, [10**12, 1, 1, 2], 0, 1, -1, -1) == (
            0, [-10**12, 1, -1, 2])
        pres = two_gen("x", "y", ("x", 10**12), ("y", 1), ("x", 1), ("y", 2))
        assert fiber_rank(pres, hints_of("x->y x y^-1")) is None
        assert perf_counter() - started < 0.1


class TestFiberRank:
    def test_showcase_with_hint(self):
        pres = two_gen("x", "y", ("x", 2), ("y", 2), ("x", 2), ("y", -1))
        assert fiber_rank(pres, [HINT]) == 4

    def test_descended_with_hint(self):
        pres = Presentation(("u", "y"), (H_RELATOR,))
        assert fiber_rank(pres, [HINT]) == 2

    def test_two_syllable_base(self):
        assert fiber_rank(two_gen("u", "y", ("u", 2), ("y", -3))) == 2

    def test_infinite_cyclic_base(self):
        assert fiber_rank(two_gen("v", "y", ("v", 1), ("y", 3))) == 0

    def test_unknown_without_hints(self):
        pres = two_gen("x", "y", ("x", 1), ("y", 1), ("x", -1), ("y", 1))
        assert fiber_rank(pres) is None

    def test_rejects_bad_hint(self):
        pres = two_gen("x", "y", ("x", 1), ("y", 1), ("x", -1), ("y", 1))
        with pytest.raises(HypothesisError, match="determinant"):
            fiber_rank(pres, [{"x": w(("x", 2))}])

    def test_hint_on_unknown_generator(self):
        pres = two_gen("x", "y", ("x", 1), ("y", 1), ("x", -1), ("y", 1))
        with pytest.raises(HypothesisError, match="moves generators"):
            fiber_rank(pres, [{"z": Word.gen("z")}])

    def test_zero_exponent_sum_rejected(self):
        pres = two_gen("x", "y", ("x", 1), ("y", 1), ("x", -1), ("y", -1))
        with pytest.raises(HypothesisError):
            fiber_rank(pres)

    def test_common_factor_descends(self):
        # x^2 y^4: torsion number 2; the kernel rank follows the descent
        # route through <u, y | u y^4>
        assert fiber_rank(two_gen("x", "y", ("x", 2), ("y", 4))) == 2

    def test_torus_relators_match_coset_graph(self):
        from math import gcd

        from tests_support import torus_splitting_with_phi

        for alpha in range(2, 6):
            for beta in range(2, 6):
                if gcd(alpha, beta) != 1:
                    continue
                pres = two_gen("x", "y", ("x", alpha), ("y", -beta))
                rank = fiber_rank(pres)
                assert rank == (alpha - 1) * (beta - 1)
                split, phi = torus_splitting_with_phi(alpha, beta)
                graph = coset_graph(split, phi)
                assert rank == 1 - graph.euler_characteristic

    def test_hint_invariance(self):
        # applying a valid basis change before asking never changes the
        # answer when both runs terminate
        pres = two_gen("u", "y", ("u", 2), ("y", -3))
        moved = substitute(pres.relators[0], {"u": w(("u", 1), ("y", 1)), "y": Word.gen("y")})
        moved_pres = Presentation(("u", "y"), (cyclic_reduce(moved, order=("u", "y")),))
        assert fiber_rank(moved_pres, [{"u": w(("u", 1), ("y", -1))}]) == fiber_rank(pres)

    def test_scrambled_torus_relators_match_the_reference(self):
        rng = random.Random(7)
        for target in (250, 400, 550, 700):
            alpha, beta, relator, hints = scrambled_torus_relator(rng, target)
            pres = Presentation(("x", "y"), (relator,))
            hints = [parse_hint(h) for h in hints]
            rank = fiber_rank(pres, hints)
            assert rank == reference_fiber_rank(pres, hints)
            assert rank == (abs(alpha) - 1) * (abs(beta) - 1)

    def test_scrambles_with_a_hint_that_is_not_elementary(self):
        # a basis change that is not elementary, and its inverse, spliced
        # into the hints: fiber_rank applies just these through substitute
        general = [
            {"x": Word.gen("y"), "y": Word.gen("x")},
            {"x": w(("x", 1), ("y", 1)), "y": w(("y", 1), ("x", 1), ("y", 1))},
            {"x": Word.gen("y", -1), "y": w(("x", 1), ("y", 2))},
        ]
        general = [(move, invert_automorphism(move, "x", "y")) for move in general]
        substituted = []
        real = one_relator.substitute

        def recording(word, images):
            substituted.append(images)
            return real(word, images)

        rng = random.Random(11)
        ranks = 0
        for case in range(12):
            alpha, beta, relator, texts = scrambled_torus_relator(rng, 60 + 20 * case)
            pres = Presentation(("x", "y"), (relator,))
            hints = hints_of(*texts)
            at = rng.randrange(len(hints) + 1)
            hints[at:at] = general[case % 3]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(one_relator, "substitute", recording)
                got = rank_outcome(fiber_rank, pres, hints)
            assert got == rank_outcome(reference_fiber_rank, pres, hints)
            ranks += got == (abs(alpha) - 1) * (abs(beta) - 1)
        assert ranks == 12
        assert substituted and all(
            one_relator._checked(images, "x", "y")[2] is None for images in substituted)

    def test_scrambles_with_a_descent_between_hints(self):
        # a scramble lifted by x -> x^e and scrambled again: fiber_rank
        # undoes the second scramble, descends, then undoes the first on
        # (u, y)
        rng = random.Random(13)
        descended = 0
        for case in range(12):
            _, _, relator, texts = scrambled_torus_relator(rng, 40 + 10 * case)
            e = rng.choice((2, 3))
            relator = cancel_ends(substitute(relator, {"x": Word.gen("x", e), "y": Word.gen("y")}))
            hints = []
            for _ in range(4):
                moves = _elementary_nielsen_moves()
                rng.shuffle(moves)
                for a, image, undo in moves:
                    moved = cancel_ends(substitute(relator, {"x": Word.gen("x"), "y": Word.gen("y"), a: image}))
                    if len(moved) > len(relator) and not _rank_recursion_stops(moved):
                        relator = moved
                        hints.insert(0, {a: undo})
                        break
            hints += hints_of(*(text.replace("x", "u") for text in texts))
            pres = Presentation(("x", "y"), (relator,))
            got, _, carried = recorded_stages(pres, hints)
            assert got == rank_outcome(reference_fiber_rank, pres, hints)
            descended += got is not None and any(e > 1 for _, _, e in carried[1:-1])
        assert descended == 12

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("xy"), st.integers(-4, 4).filter(bool)),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.sampled_from(ELEMENTARY_MOVES), max_size=3),
    )
    def test_random_relators_match_the_reference(self, sylls, hints):
        # no rotation, descent included: both recursions stop at the same
        # place with the same answer, or both refuse a hint, or both refuse
        # the relator with the same message
        pres = Presentation(("x", "y"), (w(*sylls),))
        assert rank_outcome(fiber_rank, pres, hints) == rank_outcome(
            reference_fiber_rank, pres, hints
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("xy"), st.integers(-4, 4).filter(bool)),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from((1, 2, 3)),
        st.lists(
            st.tuples(st.sampled_from("xxuv"), st.integers(0, len(MOVE_TEMPLATES) - 1)),
            max_size=5,
        ),
    )
    def test_carried_exponent_data_matches_analyze(self, sylls, factor, moves):
        # the (p, q, e) fiber_rank carries into each stage equals analyze on
        # that stage's relator; x-exponents scaled by factor force descents,
        # and hints on u and v reach the stages below them
        relator = w(*((g, exp * factor if g == "x" else exp) for g, exp in sylls))
        pres = Presentation(("x", "y"), (relator,))
        hints = [MOVE_TEMPLATES[i](a) for a, i in moves]
        got, stages, carried = recorded_stages(pres, hints)
        assert got == rank_outcome(reference_fiber_rank, pres, hints)
        assert len(stages) == len(carried) >= 1

        def analysis_or_refusal(data_fn, *args):
            try:
                return data_fn(*args)
            except HypothesisError as exc:
                return str(exc)

        assert [analysis_or_refusal(analyze, r, "x", "y") for r in stages] == [
            analysis_or_refusal(one_relator._analysis, *data) for data in carried
        ]

    def test_needs_two_generator_one_relator(self):
        with pytest.raises(HypothesisError) as info:
            fiber_rank(Presentation(("x",)))
        assert str(info.value) == (
            "needs a two-generator one-relator presentation, got 1 generators "
            "and 0 relators"
        )


def hints_of(*texts):
    return [parse_hint(text) for text in texts]


class TestHintChecks:
    """``fiber_rank`` validates each distinct hint once per stage of the
    recursion, when it first consumes it, and validates the hints still
    pending where the recursion stops."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The ``(hint, x, y)`` of every hint check."""
        calls = []
        check = one_relator._checked

        def counted(images, x, y):
            calls.append((images, x, y))
            return check(images, x, y)

        monkeypatch.setattr(one_relator, "_checked", counted)
        return calls

    @pytest.fixture(scope="class")
    def scrambled(self):
        # relator-rank-shaped: 10 hints, 4 of them distinct
        alpha, beta, relator, hints = scrambled_torus_relator(random.Random(2), 250)
        pres = Presentation(("x", "y"), (relator,))
        return pres, hints_of(*hints), (abs(alpha) - 1) * (abs(beta) - 1)

    def test_each_distinct_hint_once(self, scrambled, checks):
        pres, hints, rank = scrambled
        distinct = {frozenset(h.items()) for h in hints}
        assert (len(hints), len(distinct)) == (10, 4)
        assert fiber_rank(pres, hints) == rank
        assert [frozenset(h.items()) for h, _, _ in checks] == list(
            dict.fromkeys(frozenset(h.items()) for h in hints)
        )

    def test_each_check_tests_the_shape_once(self, scrambled, checks, monkeypatch):
        # the shape test runs on each orientation of a hint at most once
        shapes = []
        elementary = one_relator._elementary
        monkeypatch.setattr(one_relator, "_elementary",
                            lambda *args: shapes.append(1) or elementary(*args))
        pres, hints, rank = scrambled
        assert fiber_rank(pres, hints) == rank
        assert len(checks) == 4
        assert 0 < len(shapes) <= 2 * len(checks)

    def test_repeated_hints_match_the_reference(self, scrambled):
        pres, hints, rank = scrambled
        # the copies past the end are left over at the base case
        for more in (hints, hints + hints[:3], hints[:1] * 3 + hints):
            try:
                got = fiber_rank(pres, more)
            except HypothesisError:
                got = "refused"
            assert got == reference_fiber_rank(pres, more)
        assert fiber_rank(pres, hints + hints[:3]) == rank

    def test_bad_hint_after_good_ones_fails_when_first_consumed(self, scrambled, checks):
        pres, hints, _ = scrambled
        bad = {"x": w(("x", 2))}
        with pytest.raises(HintError, match="abelianized determinant 2"):
            fiber_rank(pres, hints[:4] + [bad] + hints[4:] + [bad])
        distinct_before = len({frozenset(h.items()) for h in hints[:4]})
        assert len(checks) == distinct_before + 1
        assert checks[-1] == (bad, "x", "y")

    def test_a_hint_is_checked_again_in_each_stage(self, checks):
        # y->y^-1 is consumed on (x, y), then again on (u, y) after the
        # descent by 2; each stage validates it for its own generators
        pres = Presentation(("x", "y"), (parse_word("x y^-1 x^2 y^-1 x y^3", None),))
        hints = hints_of("y->y^-1", "x->x y^-1", "y->y^-1", "u->u y^-1")
        assert fiber_rank(pres, hints) == reference_fiber_rank(pres, hints) == 8
        assert [(str(h[g]), x, y) for h, x, y in checks for g in h] == [
            ("y^-1", "x", "y"),
            ("x y^-1", "x", "y"),
            ("y^-1", "u", "y"),
            ("u y^-1", "u", "y"),
        ]

    def test_a_hint_reused_after_a_descent_meets_new_generators(self):
        # u->u y is consumed on (u, y); the stage below runs on (v, y), so
        # the second copy is refused there rather than reused
        pres = Presentation(("x", "y"), (parse_word("x^2 y^-1 x^4 y^-1 x^2 y^3", None),))
        assert fiber_rank(pres, hints_of("u->u y")) is None
        with pytest.raises(HintError, match=r"moves generators \['u'\], expected 'v', 'y'"):
            fiber_rank(pres, hints_of("u->u y", "u->u y"))

    @pytest.mark.parametrize("hint, message", [
        ("x->x^2", "hint is not an automorphism: abelianized determinant 2"),
        ("y->y x y x^-1 y^-1", "hint is not an automorphism: images do not form a basis"),
        ("z->x", "hint moves generators ['z'], expected 'x', 'y'"),
    ])
    def test_leftover_hints_are_checked_at_the_base_case(self, hint, message):
        pres = two_gen("x", "y", ("x", 2), ("y", -3))
        assert fiber_rank(pres, hints_of("x->x y")) == 2
        with pytest.raises(HintError) as info:
            fiber_rank(pres, hints_of(hint))
        assert str(info.value) == message
        with pytest.raises(HypothesisError):
            reference_fiber_rank(pres, hints_of(hint))

    @pytest.mark.parametrize("relator", ["x^2", "x y x^-1 y^-1"])
    def test_leftover_hints_are_checked_where_analyze_stops(self, relator):
        # q = 0: the loop stops on its first stage; a bad hint is named
        # before the refusal, a good one leaves the refusal as it is
        pres = Presentation(("x", "y"), (parse_word(relator, None),))
        with pytest.raises(HintError, match="abelianized determinant 2"):
            fiber_rank(pres, hints_of("x->x^2"))
        with pytest.raises(HypothesisError) as info:
            fiber_rank(pres, hints_of("x->x y"))
        assert not isinstance(info.value, HintError)
        assert "exponent sum in the second generator is zero" in str(info.value)
        with pytest.raises(HypothesisError, match="not an automorphism"):
            reference_fiber_rank(pres, hints_of("x->x^2"))

    def test_zero_y_sum_after_a_hint(self):
        # x^2 y^2 x^-1 y^-1 has (p, q) = (1, 1); x->x y^-1 carries them to
        # (1, 0) on the second stage, which is refused after the pending
        # hints are checked
        pres = Presentation(("x", "y"), (parse_word("x^2 y^2 x^-1 y^-1", None),))
        with pytest.raises(HypothesisError) as info:
            fiber_rank(pres, hints_of("x->x y^-1"))
        assert type(info.value) is HypothesisError
        assert str(info.value) == (
            "exponent sum in the second generator is zero; "
            "the descent hypothesis fails"
        )
        with pytest.raises(HintError) as info:
            fiber_rank(pres, hints_of("x->x y^-1", "x->x^2"))
        assert str(info.value) == "hint is not an automorphism: abelianized determinant 2"

    def test_leftover_hints_are_checked_on_the_last_stage(self):
        # x^2 y^2 descends to the base case u y^2: a leftover hint on x
        # names a generator that stage does not have
        pres = two_gen("x", "y", ("x", 2), ("y", 2))
        assert fiber_rank(pres, hints_of("u->u y")) == 1
        with pytest.raises(HintError, match=r"moves generators \['x'\], expected 'u', 'y'"):
            fiber_rank(pres, hints_of("x->x y"))
