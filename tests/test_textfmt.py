import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fiberkit import textfmt
from fiberkit.corpus import trefoil_data
from fiberkit.errors import ParseError
from fiberkit.links import cable_group
from fiberkit.presentations import Presentation, ZMap
from fiberkit.splittings import Edge
from fiberkit.textfmt import (
    GroupFile,
    format_group,
    parse_group_file,
    parse_group_text,
    parse_hints,
    parse_premise_file,
    parse_splitting_file,
    parse_word,
    write_file,
)
from fiberkit.words import Word, reduce_word
from tests_support import assembled, parse_hint, reference_parse_word

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


@given(
    st.lists(st.lists(TOKENS, max_size=8).map(" ".join), max_size=5),
    st.tuples(st.lists(TOKENS, max_size=6), st.lists(TOKENS, max_size=6)),
    st.sampled_from([("x", "y"), ("x", "y", "z")]),
)
def test_words_of_one_file_match_the_per_token_reference(rels, peripheral, generators):
    # every word of a file goes through one token table; each must still
    # read as it does alone, and the first error must name its line
    meridian, longitude = map(" ".join, peripheral)
    lines = [f"gen {' '.join(generators)}", *(f"rel {text}" for text in rels),
             f"peripheral meridian={meridian} longitude={longitude}"]
    # (line number, text) of each word, in the order the file reads them
    words = [*enumerate(rels, start=2), (len(lines), meridian), (len(lines), longitude)]
    want = []
    for lineno, text in words:
        try:
            want.append(reference_parse_word(text, generators))
        except ParseError as exc:
            want = f"f:{lineno}: {exc}"
            break
    try:
        group = parse_group_text("\n".join(lines), source="f")
    except ParseError as exc:
        assert str(exc) == want
    else:
        assert (*group.presentation.relators, group.meridian, group.longitude) == tuple(want)


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

    @pytest.mark.parametrize("line, message", [
        ("phi x=1", "phi misses generator 'y'"),
        ("phi x=1 y=0 z=2", "phi names undeclared generator 'z'"),
        ("peripheral meridian=x z longitude=1", "undeclared generator 'z'"),
        ("peripheral meridian=x longitude=y^0", "zero exponent in token 'y^0'"),
        ("peripheral longitude=x", "expected 'meridian=' first"),
        ("peripheral meridian=x", "expected exactly one 'longitude='"),
    ])
    def test_phi_and_peripheral_errors_carry_line(self, line, message):
        with pytest.raises(ParseError) as info:
            parse_group_text(f"gen x y\n# comment\n\n{line}\nrel x y\n", source="f")
        assert str(info.value) == f"f:4: {message}"

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
        assert split.vertices == (Presentation(("x",)), Presentation(("y",)))
        assert split.edges == (Edge(0, 1, (Word.of(("x", 2)),), (Word.of(("y", 3)),)),)
        assert phi.values == {"x": 3, "y": 2}
        whole = assembled(split)
        assert whole.generators == ("x", "y")
        assert whole.relators == (Word.of(("x", 2), ("y", -3)),)

    def test_hnn(self, tmp_path):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        path = self.write(
            tmp_path,
            "h.spl",
            "hnn A=A.grp stable=t\nedge inC=x^2 inD=x^2\nphi x=1 t=0\n",
        )
        split, phi = parse_splitting_file(path)
        assert split.vertices == (Presentation(("x",)),)
        assert split.edges == (Edge(0, 0, (Word.of(("x", 2)),), (Word.of(("x", 2)),), "t"),)
        whole = assembled(split)
        assert whole.generators == ("x", "t")
        assert whole.relators == (
            Word.of(("t", 1), ("x", 2), ("t", -1), ("x", -2)),
        )

    def test_primed_stable_letter(self, tmp_path):
        # a stable letter follows the generator-name rule of gen lines
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        path = self.write(tmp_path, "h.spl", "hnn A=A.grp stable=t'\nedge inC=x inD=x\n")
        split, phi = parse_splitting_file(path)
        assert (split.edges[0].stable, phi) == ("t'", None)

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

    @pytest.mark.parametrize("text, message", [
        ("edge inA=x^2 inB=y^3\nedge inA=x inB=z\nphi x=3 y=2\n",
         "3: undeclared generator 'z'"),
        ("edge inA=x^2 inB=y^3\nedge inA=x^0 inB=y\n", "3: zero exponent in token 'x^0'"),
        ("edge inA=x^2 inB=y^3\nedge inB=y inA=x\n", "3: expected 'inA=' first"),
        ("edge inA=x^2 inB=y^3\nphi x=3\n", "3: phi misses generator 'y'"),
        ("edge inA=x^2 inB=y^3\nphi x=3 y=2 t=1\n", "3: phi names undeclared generator 't'"),
    ])
    def test_edge_and_phi_errors_carry_line(self, tmp_path, text, message):
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        self.write(tmp_path, "B.grp", "group B\ngen y\n")
        path = self.write(tmp_path, "t.spl", f"amalgam A=A.grp B=B.grp\n{text}")
        with pytest.raises(ParseError) as info:
            parse_splitting_file(path)
        assert str(info.value) == f"{path}:{message}"

    def test_sides_do_not_share_tokens(self, tmp_path):
        # the B side reads y^2 first; the A side must still refuse it
        self.write(tmp_path, "A.grp", "group A\ngen x\n")
        self.write(tmp_path, "B.grp", "group B\ngen y\n")
        path = self.write(
            tmp_path, "t.spl",
            "amalgam A=A.grp B=B.grp\nedge inA=x inB=y^2\nedge inA=y^2 inB=y\n",
        )
        with pytest.raises(ParseError) as info:
            parse_splitting_file(path)
        assert str(info.value) == f"{path}:3: undeclared generator 'y'"

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


PARSERS = {".grp": parse_group_file, ".spl": parse_splitting_file, ".inf": parse_premise_file}

# file text and the message after "<path>:<line>: " for each line the
# parsers refuse; the splitting files read A.grp = <x> and B.grp = <y>
PARSE_ERRORS = [
    ("g.grp", "gen x\nphi x\n", "2: bad phi assignment 'x'"),
    ("g.grp", "gen x\nphi x=one\n", "2: bad phi value in 'x=one'"),
    ("g.grp", "gen x\nphi\n", "2: empty phi line"),
    ("g.grp", "group g\ngen x\ngroup h\n", "3: repeated group line"),
    ("g.grp", "group\ngen x\n", "1: group needs a name"),
    ("g.grp", "group g\ngen\n", "2: gen needs at least one name"),
    ("g.grp", "gen x^2\n", "1: bad generator name 'x^2'"),
    ("g.grp", "gen x\nphi x=1\nphi x=1\n", "3: repeated phi line"),
    ("g.grp", "gen x\nperipheral meridian=x longitude=1\n"
              "peripheral meridian=x longitude=1\n", "3: repeated peripheral line"),
    ("t.spl", "amalgam A=A.grp C=B.grp\n", "1: expected A/B assignments"),
    ("t.spl", "hnn A=A.grp\n", "1: missing stable=..."),
    ("t.spl", "hnn A=A.grp stable=t^2\n", "1: bad generator name 't^2'"),
    ("t.spl", "hnn A=A.grp stable=1\n", "1: bad generator name '1'"),
    ("t.spl", "amalgam A=A.grp B=A.grp\n", "1: factor generators must be disjoint: ['x']"),
    ("t.spl", "hnn A=A.grp stable=\n", "1: HNN extension needs a stable letter"),
    ("t.spl", "hnn A=A.grp stable=x\n", "1: stable letter collides with a factor generator"),
    ("t.spl", "amalgam A=A.grp B=B.grp\nhnn A=A.grp stable=t\n",
     "2: repeated splitting line"),
    ("t.spl", "amalgam A=A.grp B=B.grp\nphi x=3 y=2\nphi x=3 y=2\n",
     "3: repeated phi line"),
    ("p.inf", "kind hnn\npremise n_tame yes\n", "2: unknown flag 'n_tame'"),
]


@pytest.mark.parametrize("name, text, message", PARSE_ERRORS)
def test_parse_errors_name_file_and_line(tmp_path, name, text, message):
    (tmp_path / "A.grp").write_text("group A\ngen x\n", encoding="utf-8")
    (tmp_path / "B.grp").write_text("group B\ngen y\n", encoding="utf-8")
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as info:
        PARSERS[path.suffix](path)
    assert str(info.value) == f"{path}:{message}"


LINE_ENDINGS = {
    "crlf": lambda lines: "\r\n".join(lines),
    "cr": lambda lines: "\r".join(lines),
    "mixed": lambda lines: "".join(
        line + ("\r\n", "\r", "\n")[i % 3] for i, line in enumerate(lines)
    ),
}


class TestReading:
    LINES = TREFOIL_TEXT.splitlines()

    @pytest.mark.parametrize("ending", sorted(LINE_ENDINGS))
    def test_line_endings_give_the_same_group(self, tmp_path, ending):
        path = tmp_path / "g.grp"
        path.write_bytes(LINE_ENDINGS[ending](self.LINES).encode("utf-8"))
        assert parse_group_file(path) == parse_group_text(TREFOIL_TEXT)

    @pytest.mark.parametrize("ending", sorted(LINE_ENDINGS))
    def test_line_endings_keep_line_numbers(self, tmp_path, ending):
        lines = ["# c", "", "gen x y", "", "rel x y", "rel x^0"]
        path = tmp_path / "g.grp"
        path.write_bytes(LINE_ENDINGS[ending](lines).encode("utf-8"))
        with pytest.raises(ParseError) as info:
            parse_group_file(path)
        assert str(info.value) == f"{path}:6: zero exponent in token 'x^0'"

    @pytest.mark.parametrize("ending", sorted(LINE_ENDINGS))
    def test_line_endings_in_splitting_and_premise_files(self, tmp_path, ending):
        def write(name, lines):
            (tmp_path / name).write_bytes(LINE_ENDINGS[ending](lines).encode("utf-8"))

        write("A.grp", ["group A", "gen x"])
        write("B.grp", ["group B", "gen y"])
        write("t.spl", ["amalgam A=A.grp B=B.grp", "", "edge inA=x^2 inB=y^3", "phi x=3"])
        write("p.inf", ["kind hnn", "", "premise n_fg yes", "premise n_fg no"])
        with pytest.raises(ParseError) as info:
            parse_splitting_file(tmp_path / "t.spl")
        assert str(info.value) == f"{tmp_path / 't.spl'}:4: phi misses generator 'y'"
        with pytest.raises(ParseError) as info:
            parse_premise_file(tmp_path / "p.inf")
        assert str(info.value) == f"{tmp_path / 'p.inf'}:4: repeated premise 'n_fg'"

    @pytest.mark.parametrize("data", [
        b"gen x\nrel x\xff\n", b"\xe2\x82", b"gen x\n\xc3\x28\n",
    ])
    def test_bytes_that_are_not_utf8(self, tmp_path, data):
        path = tmp_path / "g.grp"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as decoding:
            path.read_text(encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_group_file(path)
        assert str(info.value) == f"cannot read {path}: {decoding.value}"

    def test_directory(self, tmp_path):
        with pytest.raises(OSError) as opening:
            tmp_path.read_text(encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_group_file(tmp_path)
        assert str(info.value) == f"cannot read {tmp_path}: {opening.value}"


class TestPathTypes:
    """The three readers and ``write_file`` take a ``str`` or any
    ``os.PathLike`` and name it in messages as ``os.fspath`` spells it."""

    @pytest.fixture(params=[str, Path], ids=["str", "PathLike"])
    def spell(self, request):
        return request.param

    def test_parse_group_file(self, tmp_path, spell):
        path = tmp_path / "g.grp"
        path.write_text("gen x\nrel x^2\n", encoding="utf-8")
        assert parse_group_file(spell(path)).presentation.relators == (Word.of(("x", 2)),)
        path.write_text("gen x\nrel x^0\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_group_file(spell(path))
        assert str(info.value) == f"{path}:2: zero exponent in token 'x^0'"

    def test_parse_splitting_file(self, tmp_path, spell):
        (tmp_path / "A.grp").write_text("group A\ngen x\n", encoding="utf-8")
        path = tmp_path / "h.spl"
        path.write_text("hnn A=A.grp stable=t\nedge inC=x inD=x\nphi x=1 t=1\n",
                        encoding="utf-8")
        split, phi = parse_splitting_file(spell(path))
        assert (split.vertices, phi.values) == ((Presentation(("x",)),), {"x": 1, "t": 1})
        path.write_text("hnn A=A.grp stable=t\nedge inC=y inD=x\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_splitting_file(spell(path))
        assert str(info.value) == f"{path}:2: undeclared generator 'y'"

    def test_parse_premise_file(self, tmp_path, spell):
        path = tmp_path / "p.inf"
        path.write_text("kind hnn\npremise n_fg yes\n", encoding="utf-8")
        kind, premises, _ = parse_premise_file(spell(path))
        assert (kind, premises.n_fg) == ("hnn", True)
        path.write_text("kind hnn\nbogus\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_premise_file(spell(path))
        assert str(info.value) == f"{path}:2: unknown line 'bogus'"

    def test_write_file(self, tmp_path, spell):
        target = spell(tmp_path / "out.txt")
        # written, then left alone as identical; either way returned as given
        for _ in range(2):
            assert write_file(target, "x\n") is target
            assert (tmp_path / "out.txt").read_bytes() == b"x\n"
        with pytest.raises(ParseError) as info:
            write_file(spell(tmp_path / "nodir" / "out.txt"), "x\n")
        assert str(info.value).startswith(f"cannot write {tmp_path / 'nodir' / 'out.txt'}: ")


def test_cable_tower_round_trips():
    # the iterated trefoil cables the cable-tower benchmark reports on
    knot = trefoil_data()
    for depth, (p, q) in enumerate(((1, 2), (3, 2), (1, 2), (3, 2), (1, 2)), start=1):
        knot = cable_group(knot, p, q)
        text = format_group(knot)
        group = parse_group_text(text, source=f"k{depth}.grp")
        assert group.presentation.relators == knot.presentation.relators
        assert (group.meridian, group.longitude) == (knot.meridian, knot.longitude)
        assert format_group(group).encode() == text.encode()


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


# ---------------------------------------------------------------------------
# every file the package writes goes through textfmt

SRC = Path(__file__).parents[1] / "src" / "fiberkit"


def _mode(call: ast.Call):
    """The mode or flags argument of an ``open`` call, or None."""
    for keyword in call.keywords:
        if keyword.arg in ("mode", "flags"):
            return keyword.value
    func = call.func
    # Path(...).open(mode) takes the mode first; open, io.open and os.open second
    on_path = isinstance(func, ast.Attribute) and not (
        isinstance(func.value, ast.Name) and func.value.id in ("os", "io", "builtins"))
    index = 0 if on_path else 1
    return call.args[index] if len(call.args) > index else None


def _writes(source: str) -> list[str]:
    """Calls in ``source`` that write a file: ``write_text``, ``write_bytes``
    and any ``open`` that is not read-only.  Opening ``os.devnull`` writes
    no file and is not counted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append(f"{node.lineno}: {name}")
        elif name == "open":
            mode = _mode(node)
            if node.args and ast.unparse(node.args[0]) == "os.devnull":
                continue
            if mode is None or (isinstance(mode, ast.Attribute) and mode.attr == "O_RDONLY"):
                continue
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
                    and not set(mode.value) & set("wax+"):
                continue
            found.append(f"{node.lineno}: open")
    return found


@pytest.mark.parametrize("source, count", [
    ("Path(p).write_text(s)\np.write_bytes(b)", 2),
    ("open(p, 'w')\nopen(p, mode='ab')\np.open('x')\nio.open(p, 'r+')", 4),
    ("os.open(p, os.O_WRONLY)\nopen(p, m)\np.open(mode=m)", 3),
    ("open(p)\nopen(p, 'rb')\np.open()\np.open('r')\nos.open(p, os.O_RDONLY)", 0),
    ("p.read_text()\np.read_bytes()\nos.open(os.devnull, os.O_WRONLY)", 0),
])
def test_write_scan_finds_writes(source, count):
    assert len(_writes(source)) == count


def test_only_textfmt_writes_files():
    found = {path.name: _writes(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert found.pop("textfmt.py")
    assert found == {name: [] for name in found}


class TestParseHints:
    """``--nielsen`` hints: one image per hint, in order, through one token
    table per call, each distinct text read once; the first bad hint is the
    one reported."""

    def test_images_in_order(self):
        texts = ["x->x y", " y -> y^-1 x ", "x->1", "x->x x^-1 y", "x->x y"]
        assert parse_hints(texts) == [parse_hint(text) for text in texts]
        assert parse_hints([]) == []
        assert parse_hints(["x'->x' y"]) == [{"x'": Word.of(("x'", 1), ("y", 1))}]

    @pytest.mark.parametrize("texts, message", [
        (["x y"], "bad hint 'x y', expected 'gen->word'"),
        (["->x"], "bad hint generator in '->x'"),
        (["x z->x"], "bad hint generator in 'x z->x'"),
        (["x->x^0"], "zero exponent in token 'x^0'"),
        (["x->x", "y->y^", "z"], "bad word token 'y^'"),
        (["x^2->x y"], "bad hint generator in 'x^2->x y'"),
        (["1->x"], "bad hint generator in '1->x'"),
        (["x->x y", "x->x y", "y->y^0", "y->y^0"], "zero exponent in token 'y^0'"),
    ])
    def test_refusals(self, texts, message):
        with pytest.raises(ParseError) as info:
            parse_hints(texts)
        assert str(info.value) == message

    def test_each_distinct_text_is_read_once(self, monkeypatch):
        images = []
        real = textfmt._read_word

        def recording(table, declared, text):
            images.append(text)
            return real(table, declared, text)

        monkeypatch.setattr(textfmt, "_read_word", recording)
        hints = parse_hints(["x->x y"] * 5 + ["y->y x"])
        assert images == ["x y", "y x"]
        assert hints == [{"x": Word.of(("x", 1), ("y", 1))}] * 5 + [
            {"y": Word.of(("y", 1), ("x", 1))}]

    def test_repeated_texts_give_distinct_dicts(self):
        hints = parse_hints(["x->x y", "y->y^-1", "x->x y"])
        assert hints[0] == hints[2] and hints[0] is not hints[2]
        hints[0]["x"] = Word.gen("y")
        hints[0]["y"] = Word.gen("x")
        assert hints[2] == {"x": Word.of(("x", 1), ("y", 1))}
