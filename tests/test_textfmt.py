import pytest
from hypothesis import given, strategies as st

from fiberkit.errors import ParseError
from fiberkit.presentations import Presentation, ZMap
from fiberkit.textfmt import (
    GroupFile,
    format_group,
    parse_group_file,
    parse_group_text,
    parse_premise_file,
    parse_splitting_file,
    parse_word,
)
from fiberkit.words import Word, reduce_word
from tests_support import reference_parse_word

TREFOIL_TEXT = """\
group trefoil
gen x y
rel x^2 y^-3
phi x=3 y=2
peripheral meridian=x y^-1 longitude=x^2 y x^-1 y x^-1 y x^-1 y x^-1 y x^-1 y x^-1
"""


class TestWordGrammar:
    def test_basic(self):
        assert parse_word("x^2 y^-1", ("x", "y")) == Word.of(("x", 2), ("y", -1))

    def test_caret_one_omitted(self):
        assert parse_word("x y", ("x", "y")) == Word.of(("x", 1), ("y", 1))

    def test_empty_word(self):
        assert parse_word("1", ("x",)) == Word()
        assert parse_word("", ("x",)) == Word()

    def test_rejects_zero_exponent(self):
        with pytest.raises(ParseError, match="zero exponent"):
            parse_word("x^0", ("x",))

    def test_rejects_undeclared(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_word("z", ("x", "y"))

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_word("x^^2", ("x",))

    def test_unchecked_mode(self):
        assert parse_word("q^5", None) == Word.of(("q", 5))


# a small alphabet, so texts repeat tokens: well-formed tokens, zero and
# zero-padded exponents, a generator outside x and y, and malformed tokens
TOKENS = st.sampled_from([
    "x", "y", "x^2", "x^-1", "y^-3", "y^1", "x^0", "x^-0", "x^00", "x^007",
    "y^-01", "z", "z^2", "x'", "1", "x^", "^2", "2x", "x^^2", "x^+1", "x^1.5",
])


def _parse_outcome(parse, text, generators):
    try:
        return parse(text, generators)
    except ParseError as exc:
        return f"ParseError: {exc}"


@given(
    st.lists(TOKENS, max_size=12).map(" ".join) | st.sampled_from(["", " 1 ", "1 1"]),
    st.sampled_from([None, ("x", "y"), ("x", "y", "z")]),
)
def test_parse_word_matches_the_per_token_reference(text, generators):
    # the same Word, or a ParseError with the same message
    assert _parse_outcome(parse_word, text, generators) == _parse_outcome(
        reference_parse_word, text, generators
    )


class TestGroupFiles:
    def test_parse(self):
        group = parse_group_text(TREFOIL_TEXT)
        assert group.name == "trefoil"
        assert group.presentation.generators == ("x", "y")
        assert group.presentation.relators == (Word.of(("x", 2), ("y", -3)),)
        assert group.phi.values == {"x": 3, "y": 2}
        assert group.meridian == Word.of(("x", 1), ("y", -1))
        assert group.phi(group.longitude) == 0

    def test_round_trip(self):
        group = parse_group_text(TREFOIL_TEXT)
        again = parse_group_text(format_group(group))
        assert again == group

    def test_comments_and_blanks(self):
        group = parse_group_text("# a comment\n\ngroup g\ngen x\n")
        assert group.presentation == Presentation(("x",))

    def test_missing_generators(self):
        with pytest.raises(ParseError, match="no generators"):
            parse_group_text("group g\n")

    def test_duplicate_generator(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_group_text("gen x x\n")

    def test_unknown_keyword(self):
        with pytest.raises(ParseError, match="unknown keyword"):
            parse_group_text("gen x\nfrobnicate y\n")

    def test_phi_must_cover_generators(self):
        with pytest.raises(ParseError, match="misses"):
            parse_group_text("gen x y\nphi x=1\n")

    def test_phi_generator_named_twice(self):
        with pytest.raises(ParseError) as info:
            parse_group_text("gen x y\nphi x=3 y=2 x=5\n", source="f")
        assert str(info.value) == "f:2: phi names generator 'x' twice"

    def test_relator_error_carries_line(self):
        with pytest.raises(ParseError, match=":3:"):
            parse_group_text("group g\ngen x\nrel x^0\n", source="f")

    def test_empty_longitude_round_trip(self):
        group = GroupFile(
            name="unknot",
            presentation=Presentation(("u",)),
            meridian=Word.gen("u"),
            longitude=Word(),
        )
        assert parse_group_text(format_group(group)) == group


@st.composite
def group_files(draw):
    """Any GroupFile the format can express: generator names per the word
    grammar, reduced relators, an optional class on every generator, and
    either both peripheral words or neither."""
    gens = draw(
        st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_']{0,3}", fullmatch=True),
                 min_size=1, max_size=4, unique=True)
    )
    words = st.lists(
        st.tuples(st.sampled_from(gens), st.integers(-5, 5).filter(bool)), max_size=6
    ).map(reduce_word)
    phi = draw(st.none() | st.lists(st.integers(-9, 9), min_size=len(gens), max_size=len(gens))
               .map(lambda values: ZMap(dict(zip(gens, values)))))
    peripheral = draw(st.none() | st.tuples(words, words))
    meridian, longitude = peripheral or (None, None)
    return GroupFile(
        name=draw(st.from_regex(r"[A-Za-z0-9_+()-][A-Za-z0-9_+(), -]{0,10}[A-Za-z0-9_+()-]",
                                fullmatch=True)),
        presentation=Presentation(tuple(gens), tuple(draw(st.lists(words, max_size=3)))),
        phi=phi,
        meridian=meridian,
        longitude=longitude,
    )


@given(group_files())
def test_format_then_parse_is_identity(group):
    assert parse_group_text(format_group(group)) == group


class TestSplittingFiles:
    def write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_amalgam(self, tmp_path):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        self.write(tmp_path, "B.grp", "group B\ngen y\n")
        path = self.write(
            tmp_path,
            "t.spl",
            "amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2\n",
        )
        split, phi = parse_splitting_file(path)
        assert split.kind == "amalgam"
        assert split.edges_a == (Word.of(("x", 2)),)
        assert split.edges_b == (Word.of(("y", 3)),)
        assert phi.values == {"x": 3, "y": 2}
        assembled = split.assembled()
        assert assembled.generators == ("x", "y")
        assert assembled.relators == (Word.of(("x", 2), ("y", -3)),)

    def test_hnn(self, tmp_path):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        path = self.write(
            tmp_path,
            "h.spl",
            "hnn A=A.grp stable=t\nedge inC=x^2 inD=x^2\nphi x=1 t=0\n",
        )
        split, phi = parse_splitting_file(path)
        assert split.kind == "hnn"
        assert split.stable_letter == "t"
        assembled = split.assembled()
        assert assembled.generators == ("x", "t")
        assert assembled.relators == (
            Word.of(("t", 1), ("x", 2), ("t", -1), ("x", -2)),
        )

    def test_missing_factor_file(self, tmp_path):
        path = self.write(tmp_path, "t.spl", "amalgam A=missing.grp B=missing.grp\n")
        with pytest.raises(ParseError, match="cannot read"):
            parse_splitting_file(path)

    def test_colliding_factor_generators(self, tmp_path):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        path = self.write(
            tmp_path, "t.spl", "amalgam A=A.grp B=A.grp\nedge inA=x inB=x\n"
        )
        with pytest.raises(ParseError, match="disjoint"):
            parse_splitting_file(path)

    def test_edge_before_kind(self, tmp_path):
        path = self.write(tmp_path, "t.spl", "edge inA=x inB=y\n")
        with pytest.raises(ParseError, match="before"):
            parse_splitting_file(path)

    def test_phi_generator_named_twice(self, tmp_path):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        self.write(tmp_path, "B.grp", "group B\ngen y\n")
        path = self.write(
            tmp_path, "t.spl", "amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2 x=5\n"
        )
        with pytest.raises(ParseError) as info:
            parse_splitting_file(path)
        assert str(info.value) == f"{path}:3: phi names generator 'x' twice"

    @pytest.mark.parametrize("line, key", [
        ("amalgam A=A.grp A=B.grp B=B.grp", "A"),
        ("amalgam A=A.grp B=B.grp B=A.grp", "B"),
        ("hnn A=A.grp stable=t stable=s", "stable"),
    ])
    def test_splitting_key_given_twice(self, tmp_path, line, key):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        self.write(tmp_path, "B.grp", "group B\ngen y\n")
        path = self.write(tmp_path, "t.spl", f"# twice\n{line}\n")
        with pytest.raises(ParseError) as info:
            parse_splitting_file(path)
        assert str(info.value) == f"{path}:2: repeated {key}=..."


class TestPremiseFiles:
    def test_nontrivial_defaults_to_yes(self, tmp_path):
        path = tmp_path / "p.inf"
        path.write_text("kind hnn\npremise n_fg yes\n", encoding="utf-8")
        kind, premises, nontrivial = parse_premise_file(path)
        assert (kind, premises.n_fg, nontrivial) == ("hnn", True, True)

    @pytest.mark.parametrize("second, message", [
        ("kind hnn", "repeated kind line"),
        ("nontrivial no", "repeated nontrivial line"),
        ("premise n_fg no", "repeated premise 'n_fg'"),
    ])
    def test_repeated_key(self, tmp_path, second, message):
        path = tmp_path / "p.inf"
        path.write_text(
            f"kind amalgam\nnontrivial yes\npremise n_fg yes\n{second}\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as info:
            parse_premise_file(path)
        assert str(info.value) == f"{path}:4: {message}"
