import pytest

from fiberkit.cli import main
from fiberkit.textfmt import parse_group_file

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

    def test_fiber_rank_unknown(self, workdir, capsys):
        (workdir / "stuck.grp").write_text(
            "group stuck\ngen x y\nrel x y x^-1 y\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "fiber-rank", workdir / "stuck.grp")
        assert code == 0
        assert out == "rank = unknown\n"

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

    def test_missing_file(self, workdir, capsys):
        code, _, err = run(capsys, "abelianize", workdir / "nope.grp")
        assert code == 1


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
