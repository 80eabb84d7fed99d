import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fiberkit import cli
from fiberkit.cli import main
from fiberkit.errors import ContradictionError, FiberkitError, ParseError
from fiberkit.inference import FLAG_NAMES
from fiberkit.textfmt import parse_group_file
from tests_support import scrambled_torus_relator

TREFOIL = """\
group trefoil
gen x y
rel x^2 y^-3
phi x=3 y=2
peripheral meridian=x y^-1 longitude=x^2 y x^-1 y x^-1 y x^-1 y x^-1 y x^-1 y x^-1
"""

SHOWCASE = """\
group showcase
gen x y
rel x^2 y^2 x^2 y^-1
"""

UNKNOT = """\
group unknot
gen u
phi u=1
peripheral meridian=u longitude=1
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "trefoil.grp").write_text(TREFOIL, encoding="utf-8")
    (tmp_path / "showcase.grp").write_text(SHOWCASE, encoding="utf-8")
    (tmp_path / "unknot.grp").write_text(UNKNOT, encoding="utf-8")
    (tmp_path / "A.grp").write_text("group A\ngen x\n", encoding="utf-8")
    (tmp_path / "B.grp").write_text("group B\ngen y\n", encoding="utf-8")
    (tmp_path / "trefoil.spl").write_text(
        "amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2\n",
        encoding="utf-8",
    )
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicVerbs:
    def test_abelianize(self, workdir, capsys):
        code, out, _ = run(capsys, "abelianize", workdir / "unknot.grp")
        assert code == 0
        assert out == "Z\n"

    def test_alexander(self, workdir, capsys):
        code, out, _ = run(capsys, "alexander", workdir / "trefoil.grp")
        assert code == 0
        assert out == "1 - t + t^2\n"

    def test_alexander_huge_exponent_on_class_zero_generator(self, workdir, capsys):
        (workdir / "big.grp").write_text(
            "group big\ngen x y\nrel x^1000000 y x^-1000000 y^-1\nphi x=0 y=1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "alexander", workdir / "big.grp")
        assert code == 0
        assert out == "-1000000 + 1000000t\n"

    def test_fiber_rank_with_hint(self, workdir, capsys):
        code, out, _ = run(
            capsys, "fiber-rank", workdir / "showcase.grp", "--nielsen", "u->u y"
        )
        assert code == 0
        assert out == "rank = 4\n"

    def test_fiber_rank_huge_exponent_with_hint(self, workdir, capsys):
        (workdir / "big.grp").write_text(
            "group big\ngen x y\nrel x^1000000 y x y^2\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "fiber-rank", workdir / "big.grp", "--nielsen", "x->x^-1"
        )
        assert code == 0
        assert out == "rank = unknown\n"

    def test_fiber_rank_unknown(self, workdir, capsys):
        (workdir / "stuck.grp").write_text(
            "group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "fiber-rank", workdir / "stuck.grp")
        assert code == 0
        assert out == "rank = unknown\n"

    def test_fiber_rank_huge_exponent_hint_is_linear(self, workdir, capsys):
        # the hint undoes y^1000000; checking it takes time linear in its
        # syllables, not in its exponents
        (workdir / "big.grp").write_text(
            "group big\ngen x y\nrel x y^1000000 x y^1000003\n", encoding="utf-8"
        )
        start = perf_counter()
        code, out, _ = run(
            capsys, "fiber-rank", workdir / "big.grp", "--nielsen", "x->x y^-1000000"
        )
        assert perf_counter() - start < 1.0
        assert code == 0
        assert out == "rank = 2\n"

    def test_phi(self, workdir, capsys):
        code, out, _ = run(capsys, "phi", workdir / "showcase.grp")
        assert code == 0
        assert "phi x=-1 y=4" in out
        assert "m = 1" in out

    def test_analyze(self, workdir, capsys):
        code, out, _ = run(capsys, "analyze", workdir / "showcase.grp")
        assert code == 0
        assert "p = 4" in out and "q = 1" in out and "e = 2" in out

    def test_graph(self, workdir, capsys):
        code, out, _ = run(capsys, "graph", workdir / "trefoil.spl")
        assert code == 0
        assert "chi = -1" in out
        assert "edge 5: A2 - B1" in out

    def test_rank(self, workdir, capsys):
        code, out, _ = run(capsys, "rank", workdir / "trefoil.spl")
        assert code == 0
        assert "rank = 2" in out

    def test_report(self, workdir, capsys):
        code, out, _ = run(
            capsys, "report", workdir / "showcase.grp", "--nielsen", "u->u y"
        )
        assert code == 0
        assert "verdict = consistent with fibered" in out
        assert "degree = 4" in out


BAD_HINTS = [
    ("y->y x y x^-1 y^-1", "images do not form a basis"),
    ("x->x^2", "abelianized determinant 2"),
]

Q0_REASON = "exponent sum in the second generator is zero; the descent hypothesis fails"

# relator with q = 0, and its report under phi x=0 y=1
Q0_REPORTS = [
    ("x^2", "image = 1Z\nabelianization = Z/2 + Z\nalexander = 2\nmonic = no\n"
     f"degree = 0\nnote: rank recursion unavailable: {Q0_REASON}\n"
     "verdict = not fibered\n"),
    ("x y x^-1 y^-1", "image = 1Z\nabelianization = Z + Z\nalexander = -1 + t\n"
     "monic = yes\ndegree = 1\nnote: m = 0: both exponent sums vanish, no "
     "torsion number\nverdict = inconclusive\n"),
]


class TestBadHints:
    """A hint that is not an automorphism of the free group: ``fiber-rank``
    and ``report`` both exit 2 with the reason."""

    @pytest.fixture
    def stuck(self, workdir):
        path = workdir / "stuck.grp"
        path.write_text("group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("hint, reason", BAD_HINTS)
    def test_fiber_rank(self, stuck, capsys, hint, reason):
        code, out, err = run(capsys, "fiber-rank", stuck, "--nielsen", hint)
        assert code == 2
        assert out == ""
        assert err == f"error: hint is not an automorphism: {reason}\n"

    @pytest.mark.parametrize("hint, reason", BAD_HINTS)
    def test_report(self, stuck, capsys, hint, reason):
        code, out, err = run(capsys, "report", stuck, "--nielsen", hint)
        assert code == 2
        assert out == ""
        assert err == f"error: hint is not an automorphism: {reason}\n"

    @pytest.mark.parametrize("hint, reason", BAD_HINTS)
    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_a_hint_the_recursion_never_needs(self, workdir, capsys, verb, hint, reason):
        # the base case x^2 y^-3 is reached before any hint is consumed
        path = workdir / "base.grp"
        path.write_text("group base\ngen x y\nrel x^2 y^-3\n", encoding="utf-8")
        code, out, err = run(capsys, verb, path, "--nielsen", "x->x y", "--nielsen", hint)
        assert (code, out) == (2, "")
        assert err == f"error: hint is not an automorphism: {reason}\n"

    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_hint_on_an_undeclared_generator(self, stuck, capsys, verb):
        code, out, err = run(capsys, verb, stuck, "--nielsen", "z->x y")
        assert code == 2
        assert out == ""
        assert err == "error: hint moves generators ['z'], expected 'x', 'y'\n"

    @pytest.fixture(params=Q0_REPORTS, ids=["x^2", "commutator"])
    def q0(self, workdir, request):
        relator, report = request.param
        path = workdir / "q0.grp"
        path.write_text(
            f"group q0\ngen x y\nrel {relator}\nphi x=0 y=1\n", encoding="utf-8"
        )
        return path, report

    @pytest.mark.parametrize("verb", ["fiber-rank", "report"])
    def test_a_recursion_that_cannot_start_checks_the_hints(self, q0, capsys, verb):
        path, _ = q0
        code, out, err = run(capsys, verb, path, "--nielsen", "x->x^2")
        assert (code, out) == (2, "")
        assert err == "error: hint is not an automorphism: abelianized determinant 2\n"

    @pytest.mark.parametrize("hints", [[], ["--nielsen", "x->x y"]])
    def test_a_recursion_that_cannot_start_keeps_its_output(self, q0, capsys, hints):
        path, report = q0
        assert run(capsys, "report", path, *hints) == (0, report, "")
        assert run(capsys, "fiber-rank", path, *hints) == (2, "", f"error: {Q0_REASON}\n")

    def test_report_notes_a_recursion_that_cannot_start(self, workdir, capsys):
        # the second exponent sum is zero: no hint is at fault, so report
        # keeps its verdict and says why there is no rank
        path = workdir / "q0.grp"
        path.write_text("group q0\ngen x y\nrel x^2\nphi x=0 y=1\n", encoding="utf-8")
        code, out, _ = run(capsys, "report", path)
        assert code == 0
        assert (
            "note: rank recursion unavailable: exponent sum in the second "
            "generator is zero; the descent hypothesis fails\n"
        ) in out
        assert out.endswith("verdict = not fibered\n")


@pytest.fixture(scope="module")
def scrambled(tmp_path_factory):
    """A seeded Nielsen-scrambled torus-knot relator of about 10^5 letters,
    its undoing hints, and the unscrambled group it came from."""
    alpha, beta, relator, hints = scrambled_torus_relator(random.Random(1), 10 ** 5)
    directory = tmp_path_factory.mktemp("scrambled")
    (directory / "big.grp").write_text(
        f"group big\ngen x y\nrel {relator}\n", encoding="utf-8"
    )
    (directory / "base.grp").write_text(
        f"group base\ngen x y\nrel x^{alpha} y^{beta}\n", encoding="utf-8"
    )
    nielsen = [arg for hint in hints for arg in ("--nielsen", hint)]
    return directory, nielsen, (abs(alpha) - 1) * (abs(beta) - 1)


class TestAdversarialSizes:
    """Relators of about 10^5 letters run through the rank recursion in
    bounded time, with no timing bound asserted; a coset graph of a million
    edges gets its rank in under a second."""

    def test_rank_of_huge_coset_graph(self, workdir, capsys):
        (workdir / "big.spl").write_text(
            "amalgam A=A.grp B=B.grp\nedge inA=x^1000 inB=y^1001\nphi x=1001 y=1000\n",
            encoding="utf-8",
        )
        started = perf_counter()
        code, out, _ = run(capsys, "rank", workdir / "big.spl")
        assert perf_counter() - started < 1.0
        assert code == 0
        assert out == "chi = -998999\nrank = 999000\n"

    def test_fiber_rank(self, scrambled, capsys):
        directory, nielsen, rank = scrambled
        code, out, _ = run(capsys, "fiber-rank", directory / "big.grp", *nielsen)
        assert code == 0
        assert out == f"rank = {rank}\n"

    def test_report_matches_the_unscrambled_group(self, scrambled, capsys):
        directory, nielsen, rank = scrambled
        code, out, _ = run(capsys, "report", directory / "big.grp", *nielsen)
        assert code == 0
        _, base, _ = run(capsys, "report", directory / "base.grp")
        assert out == base
        assert f"fiber-rank = {rank}\n" in out
        assert out.endswith("verdict = consistent with fibered\n")


def outcome(capsys, argv, run=main):
    """``(exit code, stdout, stderr)`` of one ``run`` call, ``main`` by
    default, including the argparse exits for help and usage errors."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_main(argv):
    """``main`` through the full tree alone: ``parse_args`` on every verb,
    which refuses leftovers itself, then the handler, with the same exit
    codes."""
    args = cli._build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FiberkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return 1
        return 3 if isinstance(exc, ContradictionError) else 2


# --help of the top-level parser ("") and of each verb, as CPython 3.11's
# argparse lays them out at 80 columns
HELP = json.loads((Path(__file__).parent / "cli_help.json").read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other versions")
@pytest.mark.parametrize("verb", list(HELP), ids=lambda verb: verb or "top")
def test_help_is_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(capsys, verb.split() + ["--help"]) == (0, HELP[verb], "")


def test_help_names_every_verb():
    assert list(HELP) == [""] + list(cli._VERBS)


# a relator-rank-shaped input: 10 hints, 4 of them distinct
_, _, SCRAMBLED, SCRAMBLED_HINTS = scrambled_torus_relator(random.Random(2), 250)
TEN_HINTS = ["fiber-rank", "@scrambled.grp"] + [
    arg for hint in SCRAMBLED_HINTS for arg in ("--nielsen", hint)
]

# "@name" is a file in the workdir fixture, or one the test writes there;
# the first WELL_FORMED calls name a verb and leave no argument over
WELL_FORMED = 21
ARGVS = [
    ["abelianize", "@trefoil.grp"],
    ["phi", "@showcase.grp"],
    ["analyze", "@showcase.grp"],
    ["fiber-rank", "@showcase.grp", "--nielsen", "u->u y"],
    ["alexander", "@trefoil.grp"],
    ["graph", "@trefoil.spl"],
    ["infer", "@p.inf"],
    ["rank", "@trefoil.spl", "--rank-a", "1", "--rank-b", "0"],
    ["splice", "@zero.grp", "@zero.grp", "-o", "@spliced.grp"],
    ["splice", "@trefoil.grp", "@trefoil.grp"],
    ["cable", "@unknot.grp", "-p", "2", "-q", "3"],
    ["cable", "@unknot.grp", "-p", "2", "-q", "3", "--output", "@cable.grp"],
    ["report", "@showcase.grp", "--nielsen", "u->u y"],
    ["corpus", "--dir", "@corpus"],
    TEN_HINTS,
    ["report", "--nielsen", "u->u y", "@showcase.grp"],
    ["fiber-rank", "@stuck.grp", "--nielsen=x->x y"],
    ["fiber-rank", "--", "@showcase.grp"],
    ["cable", "@unknot.grp", "-p", "2", "-q", "3", "-p", "5"],
    ["report", "@showcase.grp", "-h"],
    ["report", "@showcase.grp", "--h"],
    TEN_HINTS[:2] + ["--nielsen"],
    ["report"],
    ["splice", "@trefoil.grp"],
    ["cable", "@unknot.grp"],
    ["abelianize", "@trefoil.grp", "extra", "more"],
    ["corpus", "stray"],
    ["report", "@showcase.grp", "--", "y"],
    ["report", "@showcase.grp", "--bogus"],
    ["cable", "@unknot.grp", "-p", "two", "-q", "3"],
    ["rank", "@trefoil.spl", "--rank-a", "x"],
    ["report", "@showcase.grp", "--niel", "u->u y"],
    ["fiber-rank", "@showcase.grp", "--nielsen", "x->x^2"],
    ["report", "-h"],
    ["cable", "--help"],
    ["report", "--he"],
    ["rep"],
    ["rep", "@showcase.grp"],
    ["bogus"],
    ["--"],
    ["--", "report", "@showcase.grp"],
    ["--nielsen", "x", "report"],
    ["-h"],
    ["--help", "report"],
    [],
]


class TestArgvDifferential:
    """``main`` gives a named verb its own parser; every call must end
    exactly as it does through the full tree of all verbs."""

    @pytest.fixture
    def files(self, workdir):
        (workdir / "p.inf").write_text("kind amalgam\npremise n_fg yes\n", encoding="utf-8")
        (workdir / "zero.grp").write_text(
            TREFOIL.replace("phi x=3 y=2", "phi x=0 y=0"), encoding="utf-8"
        )
        (workdir / "stuck.grp").write_text(
            "group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8"
        )
        (workdir / "scrambled.grp").write_text(
            f"group scrambled\ngen x y\nrel {SCRAMBLED}\n", encoding="utf-8"
        )
        return lambda argv: [
            str(workdir / a[1:]) if a.startswith("@") else a for a in argv
        ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_matches_the_full_parser(self, files, capsys, monkeypatch, argv):
        argv = files(argv)
        monkeypatch.setenv("COLUMNS", "80")
        assert outcome(capsys, argv) == outcome(capsys, argv, reference_main)

    @pytest.mark.parametrize("argv", ARGVS[:WELL_FORMED], ids=" ".join)
    def test_a_named_verb_never_builds_the_full_tree(self, files, capsys, monkeypatch, argv):
        def full_tree():
            raise AssertionError("main built the full tree")

        monkeypatch.setattr(cli, "_build_parser", full_tree)
        _, _, err = outcome(capsys, files(argv))
        assert "usage:" not in err


def test_entry_point_reads_sys_argv(workdir, capsys, monkeypatch):
    """``python -m fiberkit.cli`` parses ``sys.argv[1:]`` as ``main(argv)``
    does; the usage line shows in ``rep``'s error."""
    run(capsys, "corpus", "--dir", workdir / "corpus")
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    for argv in (["--help"], ["report", str(workdir / "corpus" / "showcase.grp")], ["rep", "x"]):
        proc = subprocess.run(
            [sys.executable, "-m", "fiberkit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == outcome(capsys, argv)


class TestInferVerb:
    def test_forward(self, workdir, capsys):
        (workdir / "p.inf").write_text(
            "kind amalgam\npremise n_fg yes\npremise n_in_c no\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "infer", workdir / "p.inf")
        assert code == 0
        assert "nc_finite_index = yes" in out

    def test_disjunction_output(self, workdir, capsys):
        (workdir / "p.inf").write_text(
            "kind amalgam\npremise nc_finite_index no\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "infer", workdir / "p.inf")
        assert code == 0
        assert "disjunction: n_fg=no | n_in_c=yes" in out

    def test_contradiction_exit_code(self, workdir, capsys):
        (workdir / "p.inf").write_text(
            "kind amalgam\npremise nc_finite_index yes\npremise n_in_c yes\n",
            encoding="utf-8",
        )
        code, _, err = run(capsys, "infer", workdir / "p.inf")
        assert code == 3
        assert "error:" in err


class TestExitCodes:
    @pytest.mark.parametrize("name, text, verb, message", [
        ("p.inf", "kind amalgam\npremise n_fg yes\npremise n_fg no\n", "infer",
         "3: repeated premise 'n_fg'"),
        ("s.spl", "amalgam A=A.grp A=B.grp B=B.grp\nedge inA=x^2 inB=y^3\n", "graph",
         "1: repeated A=..."),
        ("s.spl", "amalgam A=A.grp B=B.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2 x=5\n", "rank",
         "3: phi names generator 'x' twice"),
        ("g.grp", "gen x y\nrel x^2 y^-3\nphi x=3 y=2 x=5\n", "phi",
         "3: phi names generator 'x' twice"),
    ], ids=["premise", "splitting-key", "splitting-phi", "group-phi"])
    def test_repeated_key_is_a_parse_error(self, workdir, capsys, name, text, verb, message):
        # the last value used to win: infer printed n_fg = no and exited 0
        (workdir / name).write_text(text, encoding="utf-8")
        assert run(capsys, verb, workdir / name) == (1, "", f"error: {workdir / name}:{message}\n")

    def test_parse_error(self, workdir, capsys):
        (workdir / "bad.grp").write_text("gen x\nrel x^0\n", encoding="utf-8")
        code, _, err = run(capsys, "abelianize", workdir / "bad.grp")
        assert code == 1
        assert "error:" in err

    def test_hypothesis_violation(self, workdir, capsys):
        (workdir / "comm.grp").write_text(
            "group c\ngen x y\nrel x y x^-1 y^-1\n", encoding="utf-8"
        )
        code, _, err = run(capsys, "phi", workdir / "comm.grp")
        assert code == 2
        assert "m = 0" in err

    @pytest.mark.parametrize("verb", ["phi", "analyze", "fiber-rank"])
    def test_shape_violation(self, workdir, capsys, verb):
        code, out, err = run(capsys, verb, workdir / "A.grp")
        assert (code, out) == (2, "")
        assert err == (
            "error: needs a two-generator one-relator presentation, got 1 "
            "generators and 0 relators\n"
        )

    def test_missing_file(self, workdir, capsys):
        code, _, err = run(capsys, "abelianize", workdir / "nope.grp")
        assert code == 1

    @pytest.mark.parametrize("verb", ["abelianize", "graph", "infer"])
    def test_non_utf8_file(self, workdir, capsys, verb):
        (workdir / "latin1.txt").write_bytes("group caf\xe9\ngen x\n".encode("latin-1"))
        code, out, err = run(capsys, verb, workdir / "latin1.txt")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {workdir / 'latin1.txt'}: 'utf-8' codec")

    def test_output_into_missing_directory(self, workdir, capsys):
        target = workdir / "nodir" / "x.grp"
        code, out, err = run(
            capsys, "cable", workdir / "unknot.grp", "-p", "2", "-q", "3", "-o", target
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: [Errno 2]")
        assert not target.parent.exists()

    def test_corpus_dir_names_a_file(self, workdir, capsys):
        target = workdir / "A.grp"
        code, out, err = run(capsys, "corpus", "--dir", target)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: [Errno 17]")
        assert target.read_text(encoding="utf-8") == "group A\ngen x\n"

    @pytest.mark.parametrize("verb", ["cable", "splice"])
    def test_class_not_killing_relator(self, workdir, capsys, verb):
        (workdir / "bad.grp").write_text(
            "gen y\nrel y^3\nphi y=2\nperipheral meridian=y longitude=1\n",
            encoding="utf-8",
        )
        extra = ["-p", "1", "-q", "2"] if verb == "cable" else [workdir / "unknot.grp"]
        code, out, err = run(capsys, verb, workdir / "bad.grp", *extra)
        assert code == 2
        assert out == ""
        assert err == "error: the class does not kill every relator\n"

    def test_nontrivial_needs_yes_or_no(self, workdir, capsys):
        path = workdir / "p.inf"
        path.write_text("kind amalgam\nnontrivial maybe\n", encoding="utf-8")
        code, out, err = run(capsys, "infer", path)
        assert code == 1
        assert out == ""
        assert err == f"error: {path}:2: nontrivial must be yes or no\n"


class TestConstructionVerbs:
    def test_cable_round_trips(self, workdir, capsys):
        out_path = workdir / "cable.grp"
        code, _, _ = run(
            capsys, "cable", workdir / "unknot.grp", "-p", "2", "-q", "3",
            "-o", out_path,
        )
        assert code == 0
        group = parse_group_file(out_path)
        assert group.presentation.generators == ("u", "t")
        assert str(group.presentation.relators[0]) == "u^2 t^-3"
        code, out, _ = run(capsys, "alexander", out_path)
        assert out == "1 - t + t^2\n"

    def test_splice_requires_compatible_classes(self, workdir, capsys):
        code, _, err = run(
            capsys, "splice", workdir / "trefoil.grp", workdir / "trefoil.grp"
        )
        assert code == 2
        assert "incompatible" in err

    def test_splice_round_trips(self, workdir, capsys):
        zero = TREFOIL.replace("phi x=3 y=2", "phi x=0 y=0")
        (workdir / "zero.grp").write_text(zero, encoding="utf-8")
        out_path = workdir / "spliced.grp"
        code, _, _ = run(
            capsys, "splice", workdir / "zero.grp", workdir / "zero.grp",
            "-o", out_path,
        )
        assert code == 0
        group = parse_group_file(out_path)
        assert len(group.presentation.generators) == 4
        assert len(group.presentation.relators) == 4
        code, out, _ = run(capsys, "abelianize", out_path)
        assert out == "trivial\n"


class TestCorpusVerb:
    def test_deterministic(self, workdir, capsys):
        first = workdir / "c1"
        second = workdir / "c2"
        assert run(capsys, "corpus", "--dir", first)[0] == 0
        assert run(capsys, "corpus", "--dir", second)[0] == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_expected_members(self, workdir, capsys):
        target = workdir / "corpus"
        run(capsys, "corpus", "--dir", target)
        names = {p.name for p in target.iterdir()}
        assert {
            "unknot.grp",
            "trefoil.grp",
            "torus_2_5.grp",
            "showcase.grp",
            "showcase_descended.grp",
            "showcase.rank.txt",
            "trefoil.alexander.txt",
            "splice_trefoil_trefoil.grp",
            "splice_without_incompressibility.txt",
        } <= names
        assert (target / "showcase.rank.txt").read_text() == "rank = 4\n"
        assert (target / "trefoil.alexander.txt").read_text() == "1 - t + t^2\n"
        assert "not applicable" in (
            target / "splice_without_incompressibility.txt"
        ).read_text()
        homology = (target / "splice_trefoil_trefoil.homology.txt").read_text()
        assert homology == "abelianization = trivial\n"

    def test_corpus_groups_reparse(self, workdir, capsys):
        target = workdir / "corpus"
        run(capsys, "corpus", "--dir", target)
        for path in sorted(target.glob("*.grp")):
            group = parse_group_file(path)
            assert group.presentation.generators

    def test_pinned_bytes_and_order(self, workdir, capsys):
        target = workdir / "corpus"
        code, out, _ = run(capsys, "corpus", "--dir", target)
        assert code == 0
        assert out == "".join(f"wrote {target / name}\n" for name in CORPUS_DIGESTS)
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in target.iterdir()
        }
        assert written == CORPUS_DIGESTS


# SHA-256 of each corpus file, in the order the corpus verb writes them; the
# digests are those frozen in bench/golden/corpus_cli.json
CORPUS_DIGESTS = {
    "unknot.grp": "a97e3e37d185bc2e0542b7f138c8e9fec75cbd66866a533465fd486afc4e233d",
    "trefoil.grp": "c49cf3326f30f5c977bfcb1897dccab7df6c8b69aea6b6eded979415602c8de8",
    "torus_2_3.grp": "48fe22840db17e33a004ae892c1a9d6fdc21aa06b27c225fbb28488cc95acd4a",
    "torus_2_5.grp": "ddab052e89d69f69e65caff84e241db8ca75ae9dd816594520f61581143cb932",
    "torus_2_7.grp": "ec87f8a6c6c001ff2851e5cd38bc9b10c20cf2944360e29104c7c358f3f41271",
    "torus_3_4.grp": "a587cbd9cd507781188b2ca2e3d5387bf14ad48c00a2703257e17d77366b1341",
    "torus_3_5.grp": "1c6c62fe6a8ed3e519896c0014f474ba4f3568cdd18da339555d5150fd12b0f9",
    "torus_3_7.grp": "372a9d77632315f31cb75b7e57fd04b48fdc98a1864164dceb4112b2970b7ba8",
    "torus_4_5.grp": "61d5e8085f0b743759aadbded2492522b256076a360706c144f656c9bc3a4d53",
    "torus_4_7.grp": "b9f96c33bf834ae17b9bb4715c5098d3896d9ba88ff6bd3f5688f95e242cf6a0",
    "torus_5_6.grp": "6cfe1e1dd7b8161180bdd6f4a81d4d1fe2777a24b3cbfab4774c6391d00cf9ba",
    "torus_5_7.grp": "fd32c7c1a37ae1c797ce8edde596d1bd958da375fa3df5fd933a2ffe8f8ed734",
    "torus_6_7.grp": "da2589d31ff19126bde41c26dfb4a7717196018ab3d97e3da3a9f04ec6627d7e",
    "showcase.grp": "a52e34996e27f89ab97646803f911267cc3cf4c145095d11bf9ed72ff47c5c54",
    "showcase_descended.grp": "a071d8005b1fd2330bf11b846524a0655cdd1aee5df38bd7de40be6edabde933",
    "showcase.rank.txt": "8c90d54e4db54036c7b4c9e473402173b633cc015ffd8d9d9fb1ad74cef7ba5b",
    "trefoil.alexander.txt": "804032eea20eb6f5510c0a18cc3c0a9bc86531affcf859aebc0599de356a379d",
    "trefoil.report.txt": "f84d1b82d82fa45e51c3e8bd3a6a35d29cdf349e3e28a7787782dc8ad485b68f",
    "showcase.report.txt": "243086304aa106dffa02bb19675766cf44d87d7f270fdb7042884c4c3c2db506",
    "splice_trefoil_trefoil.grp": "909b0ef04897952cc92dd114cf912fac0d25ec05c0d3ad4dab7ca70d2b82d533",
    "splice_trefoil_trefoil.homology.txt": "9ed9e50534cc556246b6dbdd0182715d7689258dbd7cc84d5535eb7ebad3de84",
    "splice_without_incompressibility.txt": "54c807c7585de3002e3c368ecef9e2edb4c070763bf50cd3a8f3820d35d7e1b8",
}


# ---------------------------------------------------------------------------
# every verb on random files: an exit code, never an escaping exception

NAMES = st.sampled_from(["x", "y", "t", "u"])
EXPONENTS = st.integers(-3, 3).filter(bool)
NOISE = st.sampled_from(["# note", "", "frob x", "gen x^2", "rel x^0", "phi x", "edge inA=x"])


def _word(gens):
    return st.lists(st.tuples(st.sampled_from(gens), EXPONENTS), max_size=4).map(
        lambda sylls: " ".join(f"{g}^{e}" for g, e in sylls) or "1"
    )


def _phi(gens):
    return st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)).map(
        lambda values: "phi " + " ".join(f"{g}={v}" for g, v in zip(gens, values))
    )


@st.composite
def _file(draw, lines):
    """The given lines, some left out, plus noise, in a random order."""
    kept = [line for line in lines if draw(st.integers(0, 5))]
    kept += draw(st.lists(NOISE, max_size=1))
    return "\n".join(draw(st.permutations(kept))) + "\n"


@st.composite
def group_files(draw):
    gens = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    word = _word(gens)
    lines = ["group g", "gen " + " ".join(gens), draw(_phi(gens))]
    lines += [f"rel {w}" for w in draw(st.lists(word, max_size=2))]
    lines.append(f"peripheral meridian={draw(word)} longitude={draw(word)}")
    return draw(_file(lines))


@st.composite
def splitting_files(draw):
    """Splittings over the factors ``<x>`` (a.grp) and ``<y>`` (b.grp)."""
    if draw(st.booleans()):
        lines, keys, phi_gens = ["amalgam A=a.grp B=b.grp"], ("inA", "inB"), ["x", "y"]
        sides = (_word(["x"]), _word(["y"]))
    else:
        lines, keys, phi_gens = ["hnn A=a.grp stable=t"], ("inC", "inD"), ["x", "t"]
        sides = (_word(["x"]), _word(["x"]))
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"edge {keys[0]}={draw(sides[0])} {keys[1]}={draw(sides[1])}")
    lines.append(draw(_phi(phi_gens)))
    return draw(_file(lines))


@st.composite
def premise_files(draw):
    value = st.sampled_from(["yes", "no", "maybe"])
    lines = [draw(st.sampled_from(["kind amalgam", "kind hnn", "kind other"]))]
    lines.append(f"nontrivial {draw(value)}")
    for flag in draw(st.lists(st.sampled_from(FLAG_NAMES + ("bogus",)), max_size=4)):
        lines.append(f"premise {flag} {draw(value)}")
    return draw(_file(lines))


def _every_verb(directory, capsys, p, q):
    """Run each verb on the files in ``directory``; each must exit 0-3."""
    group = directory / "g.grp"
    argvs = [
        [verb, group] for verb in ("abelianize", "phi", "analyze", "fiber-rank", "alexander", "report")
    ] + [
        ["fiber-rank", group, "--nielsen", "u->u y"],
        ["cable", group, "-p", p, "-q", q],
        ["splice", group, group],
        ["graph", directory / "s.spl"],
        ["rank", directory / "s.spl", "--rank-a", 1, "--rank-b", 1],
        ["infer", directory / "p.inf"],
    ]
    for argv in argvs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert code == 0 or err.startswith("error: ")


FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestNoTraceback:
    @FUZZ
    @given(group_files(), splitting_files(), premise_files(), EXPONENTS, EXPONENTS)
    def test_structured_files(self, tmp_path, capsys, group, splitting, premises, p, q):
        (tmp_path / "g.grp").write_text(group, encoding="utf-8")
        (tmp_path / "a.grp").write_text("group A\ngen x\n", encoding="utf-8")
        (tmp_path / "b.grp").write_text("group B\ngen y\n", encoding="utf-8")
        (tmp_path / "s.spl").write_text(splitting, encoding="utf-8")
        (tmp_path / "p.inf").write_text(premises, encoding="utf-8")
        _every_verb(tmp_path, capsys, p, q)

    @FUZZ
    @given(st.binary(max_size=64))
    def test_raw_bytes(self, tmp_path, capsys, data):
        for name in ("g.grp", "a.grp", "b.grp", "s.spl", "p.inf"):
            (tmp_path / name).write_bytes(data)
        _every_verb(tmp_path, capsys, 1, 2)
