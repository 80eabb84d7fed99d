"""Command line front end.

Each verb is a short handler: it reads its files through ``textfmt``, calls
the library, and prints a deterministic key=value style report.  ``main``
maps the toolkit's errors onto exit codes: 0 on success, 1 on parse errors,
2 on hypothesis violations, 3 on inference contradictions.
"""

from __future__ import annotations

import argparse
import sys

from . import corpus
from .errors import ContradictionError, FiberkitError, HypothesisError, ParseError
from .fox import alexander_poly
from .inference import FLAG_NAMES, fg_inference
from .links import KnotGroupData, cable_group, splice, stallings_report
from .one_relator import analyze, fiber_rank
from .presentations import ZMap, abelianize, canonical_zmap, torsion_number
from .splittings import Splitting, coset_graph, free_kernel_rank
from .textfmt import (
    GroupFile,
    format_group,
    parse_group_file,
    parse_premise_file,
    parse_splitting_file,
    parse_word,
    writing,
)
from .words import Word, cyclic_reduce

__all__ = ["main", "entry"]


def _parse_nielsen(text: str) -> dict[str, Word]:
    if "->" not in text:
        raise ParseError(f"bad hint {text!r}, expected 'gen->word'")
    gen, _, image = text.partition("->")
    gen = gen.strip()
    if not gen or any(ch.isspace() for ch in gen):
        raise ParseError(f"bad hint generator in {text!r}")
    word = parse_word(image.strip(), None)
    return {gen: word}


def _require_phi(group: GroupFile) -> ZMap:
    if group.phi is not None:
        return group.phi
    return canonical_zmap(group.presentation)


def _knot_data(group: GroupFile) -> KnotGroupData:
    return KnotGroupData(
        presentation=group.presentation,
        meridian=group.meridian,
        longitude=group.longitude,
        phi=_require_phi(group),
        name=group.name,
    )


def _emit(text: str, output: str | None):
    if output:
        with writing(output) as path:
            path.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verb handlers

def _cmd_abelianize(args) -> int:
    group = parse_group_file(args.file)
    print(abelianize(group.presentation))
    return 0


def _cmd_phi(args) -> int:
    group = parse_group_file(args.file)
    phi = canonical_zmap(group.presentation)
    print(f"phi {phi}")
    print(f"m = {torsion_number(group.presentation)}")
    return 0


def _cmd_analyze(args) -> int:
    group = parse_group_file(args.file)
    pres = group.presentation
    if len(pres.generators) != 2 or len(pres.relators) != 1:
        raise HypothesisError("analyze needs two generators and one relator")
    x, y = pres.generators
    relator = cyclic_reduce(pres.relators[0], order=(x, y))
    data = analyze(relator, x, y)
    print(f"relator = {relator}")
    for name in ("p", "q", "m", "a", "b", "e"):
        print(f"{name} = {getattr(data, name)}")
    return 0


def _cmd_fiber_rank(args) -> int:
    group = parse_group_file(args.file)
    hints = [_parse_nielsen(h) for h in args.nielsen]
    rank = fiber_rank(group.presentation, hints)
    print(f"rank = {rank if rank is not None else 'unknown'}")
    return 0


def _cmd_alexander(args) -> int:
    group = parse_group_file(args.file)
    print(alexander_poly(group.presentation, _require_phi(group)))
    return 0


def _splitting_with_phi(path: str) -> tuple[Splitting, ZMap]:
    split, phi = parse_splitting_file(path)
    if phi is None:
        raise HypothesisError("splitting file has no phi line")
    return split, phi


def _cmd_graph(args) -> int:
    split, phi = _splitting_with_phi(args.file)
    graph = coset_graph(split, phi)
    print(f"kind = {graph.kind}")
    print(f"a_idx = {graph.a_idx}")
    if graph.b_idx is not None:
        print(f"b_idx = {graph.b_idx}")
    print(f"c_idx = {graph.c_idx}")
    print(f"vertices = {graph.vertex_count}")
    print(f"edges = {graph.edge_count}")
    print(f"chi = {graph.euler_characteristic}")
    for k, (side_u, i), (side_v, j) in graph.edges:
        print(f"edge {k}: {side_u}{i} - {side_v}{j}")
    return 0


def _cmd_rank(args) -> int:
    split, phi = _splitting_with_phi(args.file)
    graph = coset_graph(split, phi)
    rank = free_kernel_rank(
        split.kind,
        graph.a_idx,
        graph.b_idx,
        graph.c_idx,
        args.rank_a,
        args.rank_b if split.kind == "amalgam" else None,
        graph=graph,
    )
    print(f"chi = {graph.euler_characteristic}")
    print(f"rank = {rank}")
    return 0


def _cmd_infer(args) -> int:
    kind, premises, nontrivial = parse_premise_file(args.file)
    conclusions = fg_inference(kind, premises, nontrivial_decomposition=nontrivial)
    for flag in FLAG_NAMES:
        value = conclusions[flag]
        if value is not None:
            print(f"{flag} = {'yes' if value else 'no'}")
    for clause in sorted(
        conclusions.disjunctions,
        key=lambda c: sorted((f, v) for f, v in c),
    ):
        rendered = " | ".join(
            f"{f}={'yes' if v else 'no'}" for f, v in sorted(clause)
        )
        print(f"disjunction: {rendered}")
    return 0


def _cmd_splice(args) -> int:
    first = _knot_data(parse_group_file(args.file_a))
    second = _knot_data(parse_group_file(args.file_b))
    pres, phi = splice(first, second)
    out = GroupFile(
        name=f"{first.name}+{second.name}", presentation=pres, phi=phi
    )
    _emit(format_group(out), args.output)
    return 0


def _cmd_cable(args) -> int:
    knot = _knot_data(parse_group_file(args.file))
    out = GroupFile.from_knot(cable_group(knot, args.p, args.q))
    _emit(format_group(out), args.output)
    return 0


def _cmd_report(args) -> int:
    group = parse_group_file(args.file)
    hints = [_parse_nielsen(h) for h in args.nielsen]
    report = stallings_report(group.presentation, _require_phi(group), hints)
    print(report.render())
    return 0


def _cmd_corpus(args) -> int:
    with writing(args.dir) as target:
        target.mkdir(parents=True, exist_ok=True)
    for filename, content in corpus.corpus_files():
        with writing(target / filename) as path:
            path.write_text(content, encoding="utf-8")
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiberkit",
        description="Exact computations with kernels of maps to Z for "
        "amalgams, HNN extensions, and knot-flavored groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, handler, summary, *files):
        p = sub.add_parser(name, help=summary)
        for file in files:
            p.add_argument(file)
        p.set_defaults(func=handler)
        return p

    verb("abelianize", _cmd_abelianize, "abelianization of a group file", "file")
    verb("phi", _cmd_phi,
         "canonical class to Z of a two-generator one-relator group", "file")
    verb("analyze", _cmd_analyze, "exponent analysis of the relator", "file")
    p = verb("fiber-rank", _cmd_fiber_rank, "rank of the free kernel, if derivable", "file")
    p.add_argument("--nielsen", action="append", default=[], metavar="GEN->WORD")
    verb("alexander", _cmd_alexander, "order polynomial of the twisted kernel", "file")
    verb("graph", _cmd_graph, "coset graph of the kernel over a splitting", "file")
    verb("infer", _cmd_infer, "close finite-generation premises under the rules", "file")
    p = verb("rank", _cmd_rank, "free kernel rank over a splitting", "file")
    p.add_argument("--rank-a", type=int, default=0)
    p.add_argument("--rank-b", type=int, default=0)
    p = verb("splice", _cmd_splice, "splice two knot group files", "file_a", "file_b")
    p.add_argument("-o", "--output")
    p = verb("cable", _cmd_cable, "cable a knot group file", "file")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-o", "--output")
    p = verb("report", _cmd_report, "fibering consistency report", "file")
    p.add_argument("--nielsen", action="append", default=[], metavar="GEN->WORD")
    p = verb("corpus", _cmd_corpus, "write the bundled example corpus")
    p.add_argument("--dir", default="corpus")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FiberkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return 1
        return 3 if isinstance(exc, ContradictionError) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
