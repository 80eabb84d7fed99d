"""The four benchmark workloads.

Each workload drives fiberkit from outside, through ``fiberkit.cli.main``
with captured output or through the library call ``fg_inference``.  Its
constructor is the set-up (inputs generated from the seed, files written,
nothing timed); ``ops(pass_no)`` yields one whole pass of ``(key, call)``
pairs, where ``key`` numbers the op's input in ``range(size)``, and
``check(key, output)`` holds the oracle, run outside the timed region.  Functions are looked up on the module at call time so the tracer's
patches take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import product
from pathlib import Path

import oracles

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_golden(name: str) -> dict:
    """A frozen golden file; empty when absent, so every check fails."""
    path = GOLDEN / name
    return json.loads(path.read_text()) if path.is_file() else {}

# ---------------------------------------------------------------------------
# helpers


def cli_call(fk, argv: list[str]):
    """Run one CLI verb in-process; returns ``(exit code, stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fk.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def report_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


class Workload:
    name = ""
    size = 0

    def __init__(self, fk, work: Path, seed: int):
        self.fk = fk
        self.work = work
        self.seed = seed
        self.log: list[str] = []

    def ops(self, pass_no: int):
        raise NotImplementedError

    def check(self, key, output) -> int:
        """Failed ops detected by this output (normally 0 or 1)."""
        raise NotImplementedError

    def encode(self, output) -> bytes:
        """Output as bytes, for comparing traced and untraced passes."""
        return repr(output).encode()

    def warm_up(self):
        for key, call in self.ops(-1):
            call()

    def fail(self, key, message: str) -> int:
        self.log.append(f"{key}: {message}")
        return 1

    def _shuffled(self, items, pass_no: int):
        items = list(items)
        random.Random(f"{self.seed}/{pass_no}").shuffle(items)
        return items


class CliWorkload(Workload):
    def _call(self, argv):
        return lambda: cli_call(self.fk, argv)

    def check_exit(self, key, output, expected_rc: int = 0) -> str | None:
        if isinstance(output, BaseException):
            return f"raised {output!r}"
        rc, _, stderr = output
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}: {stderr.strip()}"
        return None


# ---------------------------------------------------------------------------
# cable-tower


class CableTower(CliWorkload):
    """``report`` on each member of the iterated trefoil cable tower."""

    name = "cable-tower"
    CABLES = ((1, 2), (3, 2), (1, 2), (3, 2), (1, 2))
    size = len(CABLES)

    def __init__(self, fk, work, seed):
        super().__init__(fk, work, seed)
        trefoil = fk.corpus.trefoil_data()
        base = fk.textfmt.GroupFile(
            trefoil.name,
            trefoil.presentation,
            trefoil.phi,
            trefoil.meridian,
            trefoil.longitude,
        )
        (work / "k0.grp").write_text(fk.textfmt.format_group(base), encoding="utf-8")
        self.expected = {}
        for depth, (p, q) in enumerate(self.CABLES, start=1):
            rc, _, err = cli_call(
                fk,
                ["cable", str(work / f"k{depth - 1}.grp"), "-p", str(p), "-q", str(q),
                 "-o", str(work / f"k{depth}.grp")],
            )
            if rc != 0:
                raise RuntimeError(f"cable verb failed at depth {depth}: {err}")
            delta = oracles.cable_alexander((2, 3), self.CABLES[:depth])
            self.expected[depth] = {
                "alexander": oracles.format_poly(delta),
                "degree": str(oracles.poly_span(delta)),
                "abelianization": "Z",
                "verdict": "consistent with fibered",
            }

    def ops(self, pass_no):
        keys = range(3) if pass_no < 0 else range(self.size)
        for key in self._shuffled(keys, pass_no):
            yield key, self._call(["report", str(self.work / f"k{key + 1}.grp")])

    def check(self, key, output):
        depth = key + 1
        problem = self.check_exit(depth, output)
        if problem:
            return self.fail(f"depth {depth}", problem)
        fields = report_fields(output[1])
        for key, want in self.expected[depth].items():
            if fields.get(key) != want:
                return self.fail(f"depth {depth}", f"{key} = {fields.get(key)!r}, expected {want!r}")
        return 0


# ---------------------------------------------------------------------------
# relator-rank


class RelatorRank(CliWorkload):
    """``fiber-rank --nielsen ...`` on Nielsen-scrambled ``x^a y^b`` groups.

    Target lengths are spread evenly over ``LENGTHS``.  The scrambles come
    from the fixed ``SCRAMBLE_SEED`` and the run's seed relabels each one
    by a length-preserving symmetry, so every seed times different inputs
    with the same per-stage relator lengths, hence the same costs.
    """

    name = "relator-rank"
    size = 24
    LENGTHS = (250, 700)
    SCRAMBLE_SEED = 20091002

    def __init__(self, fk, work, seed):
        super().__init__(fk, work, seed)
        scramble, relabel = random.Random(self.SCRAMBLE_SEED), random.Random(seed)
        lo, hi = self.LENGTHS
        self.groups = []
        for i in range(self.size):
            target = round(lo + (hi - lo) * i / (self.size - 1))
            alpha, beta, word, moves = oracles.scrambled_relator(scramble, target)
            word, hints = oracles.relabelled(relabel, word, moves)
            path = work / f"g{i:02d}.grp"
            path.write_text(
                f"group G{i}\ngen x y\nrel {oracles.format_word(word)}\n", encoding="utf-8"
            )
            argv = ["fiber-rank", str(path)]
            for hint in hints:
                argv += ["--nielsen", hint]
            self.groups.append((argv, f"rank = {oracles.base_case_rank(alpha, beta)}\n"))

    def ops(self, pass_no):
        indices = (0,) if pass_no < 0 else range(self.size)
        for i in self._shuffled(indices, pass_no):
            yield i, self._call(self.groups[i][0])

    def check(self, i, output):
        problem = self.check_exit(i, output)
        if problem:
            return self.fail(f"group {i}", problem)
        want = self.groups[i][1]
        if output[1] != want:
            return self.fail(f"group {i}", f"printed {output[1]!r}, expected {want!r}")
        return 0


# ---------------------------------------------------------------------------
# inference-sweep

SWEEP_CHUNK = 3 ** 6


def sweep_spaces(flag_names):
    """(kind, flags) of the amalgam 3^11 sweep and the HNN 3^9 sweep."""
    amalgam = tuple(flag_names[:11])
    hnn = tuple(f for f in amalgam if f not in ("n_and_b_fg", "n_and_b_free"))
    return (("amalgam", amalgam), ("hnn", hnn))


class InferenceSweep(Workload):
    """``fg_inference`` on every 3-valued premise assignment, with
    ``c_free_abelian`` and ``n_nontrivial`` pinned to yes."""

    name = "inference-sweep"
    PINNED = {"c_free_abelian": True, "n_nontrivial": True}

    def __init__(self, fk, work, seed):
        super().__init__(fk, work, seed)
        self.spaces = sweep_spaces(fk.inference.FLAG_NAMES)
        self.size = sum(3 ** len(flags) for _, flags in self.spaces)
        golden = load_golden("inference_sweep.json")
        # both space sizes are multiples of the chunk, so chunks line up
        self.golden = [digest for kind, _ in self.spaces for digest in golden.get(kind, [])]
        self._hasher = hashlib.sha256()

    def ops(self, pass_no):
        inference = self.fk.inference
        premises_cls = inference.FgPremises
        contradiction = self.fk.errors.ContradictionError
        key = 0
        for kind, flags in self.spaces:
            for index, combo in enumerate(product((None, True, False), repeat=len(flags))):
                if pass_no < 0 and index >= SWEEP_CHUNK:
                    break
                premises = premises_cls(**dict(zip(flags, combo)), **self.PINNED)

                def call(kind=kind, premises=premises):
                    try:
                        return inference.fg_inference(kind, premises)
                    except contradiction as exc:
                        return exc

                yield key, call
                key += 1

    def encode(self, output) -> bytes:
        """One truth-table entry: yes/no masks and sorted clauses, or the
        contradiction and the rule that raised it."""
        if isinstance(output, self.fk.errors.ContradictionError):
            return f"contradiction {output.rule}".encode()
        if isinstance(output, BaseException):
            return f"raised {output!r}".encode()
        yes = no = 0
        for i, value in enumerate(output.flags):
            if value is True:
                yes |= 1 << i
            elif value is False:
                no |= 1 << i
        clauses = sorted(sorted(clause) for clause in output.disjunctions)
        return f"{yes} {no} {clauses}".encode()

    def chunk_digest(self, key, output) -> str | None:
        """Feed one entry to the running chunk hash; the chunk's digest when
        ``key`` ends a chunk, else None."""
        self._hasher.update(self.encode(output) + b"\n")
        if (key + 1) % SWEEP_CHUNK:
            return None
        digest = self._hasher.hexdigest()[:16]
        self._hasher = hashlib.sha256()
        return digest

    def check(self, key, output):
        digest = self.chunk_digest(key, output)
        if digest is None:
            return 0
        chunk = key // SWEEP_CHUNK
        want = self.golden[chunk] if chunk < len(self.golden) else None
        if digest != want:
            return SWEEP_CHUNK * self.fail(
                f"sweep entries {key + 1 - SWEEP_CHUNK}..{key}",
                f"truth-table digest {digest}, expected {want}",
            )
        return 0


# ---------------------------------------------------------------------------
# corpus-cli

SPLITTING_FILES = {
    "a_x.grp": "group A\ngen x\n",
    "b_y.grp": "group B\ngen y\n",
    "torus_2_3.spl": "amalgam A=a_x.grp B=b_y.grp\nedge inA=x^2 inB=y^3\nphi x=3 y=2\n",
    "torus_3_5.spl": "amalgam A=a_x.grp B=b_y.grp\nedge inA=x^3 inB=y^5\nphi x=5 y=3\n",
    "hnn_x2.spl": "hnn A=a_x.grp stable=t\nedge inC=x^2 inD=x^2\nphi x=1 t=1\n",
}
INFER_FILES = {
    "amalgam.inf": "kind amalgam\npremise n_fg yes\npremise n_in_c no\n"
    "premise n_and_c_fg yes\npremise c_free_abelian yes\n"
    "premise factors_have_no_fg_normal yes\n",
    "hnn.inf": "kind hnn\npremise nc_finite_index yes\npremise n_and_a_fg yes\n"
    "premise c_over_n_finite no\n",
    "clash.inf": "kind amalgam\npremise n_fg yes\npremise n_in_c no\n"
    "premise nc_finite_index no\n",
}
SHOWCASE_HINT = "u->u y"
TORUS_REPORTS = ((2, 5), (3, 4), (3, 7), (5, 6))
TORUS_ALEXANDER = ((2, 5), (3, 5), (4, 7), (6, 7))
SPLITTING_RANKS = {"torus_2_3.spl": 2, "torus_3_5.spl": 8}


def corpus_cli_mix() -> list[list[str]]:
    """The fixed op mix, as argv lists relative to the work directory."""
    mix = [["report", "corpus/trefoil.grp"],
           ["report", "corpus/showcase.grp", "--nielsen", SHOWCASE_HINT]]
    mix += [["report", f"corpus/torus_{p}_{q}.grp"] for p, q in TORUS_REPORTS]
    mix += [["alexander", f"corpus/{name}.grp"]
            for name in ("trefoil", "showcase", "showcase_descended")]
    mix += [["alexander", f"corpus/torus_{p}_{q}.grp"] for p, q in TORUS_ALEXANDER]
    mix += [["fiber-rank", f"corpus/{name}.grp", "--nielsen", SHOWCASE_HINT]
            for name in ("showcase", "showcase_descended")]
    mix += [["fiber-rank", "corpus/torus_2_7.grp"]]
    mix += [["infer", f"files/{name}"] for name in INFER_FILES]
    mix += [["abelianize", f"corpus/{name}.grp"]
            for name in ("trefoil", "showcase", "splice_trefoil_trefoil", "torus_4_5")]
    mix += [["phi", "corpus/showcase.grp"], ["phi", "corpus/torus_3_5.grp"]]
    mix += [["analyze", f"corpus/{name}.grp"]
            for name in ("showcase", "showcase_descended", "torus_2_7")]
    for name in ("torus_2_3.spl", "torus_3_5.spl", "hnn_x2.spl"):
        mix.append(["graph", f"files/{name}"])
        mix.append(["rank", f"files/{name}"])
    mix.append(["corpus", "--dir", "out"])
    return mix


class CorpusCli(CliWorkload):
    """A fixed mix of small CLI calls on the bundled corpus; the ``corpus``
    verb is the only op that writes files."""

    name = "corpus-cli"

    def __init__(self, fk, work, seed):
        super().__init__(fk, work, seed)
        rc, _, err = cli_call(fk, ["corpus", "--dir", str(work / "corpus")])
        if rc != 0:
            raise RuntimeError(f"corpus verb failed: {err}")
        files = work / "files"
        files.mkdir()
        for name, text in {**SPLITTING_FILES, **INFER_FILES}.items():
            (files / name).write_text(text, encoding="utf-8")
        self.mix = [argv[:1] + [self._path(a) for a in argv[1:]] for argv in corpus_cli_mix()]
        self.size = len(self.mix)
        self.keys = [self.key(argv) for argv in self.mix]
        golden = load_golden("corpus_cli.json")
        self.golden_ops = golden.get("ops", {})
        self.golden_files = golden.get("corpus_files", {})

    def _path(self, arg: str) -> str:
        head = arg.split("/", 1)[0]
        return str(self.work / arg) if head in ("corpus", "files", "out") else arg

    def key(self, argv) -> str:
        return " ".join(argv).replace(f"{self.work}/", "")

    def ops(self, pass_no):
        for i in self._shuffled(range(self.size), pass_no):
            yield i, self._call(self.mix[i])

    def normalized(self, output) -> dict:
        rc, stdout, stderr = output
        prefix = f"{self.work}/"
        return {"rc": rc, "stdout": stdout.replace(prefix, ""), "stderr": stderr.replace(prefix, "")}

    def check(self, i, output):
        key = self.keys[i]
        verb = key.split()[0]
        problem = self.check_exit(key, output, 3 if key.endswith("clash.inf") else 0)
        if problem:
            return self.fail(key, problem)
        got = self.normalized(output)
        if got != self.golden_ops.get(key):
            return self.fail(key, f"output differs from the golden: {got!r}")
        problem = self.independent_check(verb, key, got["stdout"])
        if problem:
            return self.fail(key, problem)
        return 0

    def independent_check(self, verb, key, stdout) -> str | None:
        """Closed forms and known ranks, where the op has one."""
        if verb == "corpus":
            return self.check_corpus_files()
        name = key.split()[1].rsplit("/", 1)[-1]
        fields = report_fields(stdout)
        if verb == "alexander":
            fields["alexander"] = stdout.rstrip("\n")
        if verb == "fiber-rank":
            fields["fiber-rank"] = fields.get("rank")
        expected = {}
        if name == "trefoil.grp":
            expected = {"alexander": "1 - t + t^2"}
        elif name == "showcase.grp":
            expected = {"fiber-rank": "4"}
        elif name in SPLITTING_RANKS and verb == "rank":
            expected = {"rank": str(SPLITTING_RANKS[name])}
        elif name.startswith("torus_") and name.endswith(".grp"):
            p, q = map(int, name[len("torus_"):-len(".grp")].split("_"))
            rank = str(oracles.base_case_rank(p, q))
            expected = {"alexander": oracles.format_poly(oracles.torus_alexander(p, q)),
                        "degree": rank, "fiber-rank": rank}
        for field, want in expected.items():
            if field in fields and fields[field] != want:
                return f"{field} = {fields[field]!r}, independent value {want!r}"
        return None

    def check_corpus_files(self) -> str | None:
        out = self.work / "out"
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        if written != self.golden_files:
            changed = sorted(set(written.items()) ^ set(self.golden_files.items()))
            return f"corpus files differ from the golden: {changed[:4]}"
        return None

    def encode(self, output) -> bytes:
        if isinstance(output, BaseException):
            return repr(output).encode()
        return json.dumps(self.normalized(output), sort_keys=True).encode()


WORKLOADS = {w.name: w for w in (CableTower, RelatorRank, InferenceSweep, CorpusCli)}
