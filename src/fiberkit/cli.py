"""Command line front end.

Each verb is a short handler: it reads its files through ``textfmt``, calls
the library, and prints a deterministic key=value style report.  The verbs
are declared once, in ``_VERBS``.  A verb named first on the command line
gets its own parser, ``fiberkit <verb>``, which reads the rest of the line
exactly as that verb's subparser in the full tree would; any other first
word (none, ``-h``, a typo, ``--``) gets the full tree, and so do leftover
arguments, whose error shows every verb on its usage line.  A verb's own
parser is built once per process and reused by every later ``main`` call
that names it, so callers that run ``main`` many times in one process
(tests, scripts, the benchmark) no longer rebuild it; a one-shot ``python
-m fiberkit.cli`` builds one parser either way.  The full tree is built
afresh whenever it is needed.  ``main`` maps the toolkit's errors onto exit
codes: 0 on success, 1 on parse errors, 2 on hypothesis violations, 3 on
inference contradictions.  Files are written through ``textfmt.write_file``,
which leaves a file that already holds the same bytes untouched, so a
repeated ``corpus`` or ``-o`` keeps the files' mtimes.  ``entry`` exits 1
without a traceback when stdout is closed early, as in ``| head -1``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

from . import corpus
from .errors import ContradictionError, FiberkitError, HypothesisError, ParseError
from .fox import alexander_poly
from .inference import FLAG_NAMES, fg_inference
from .links import cable_group, splice, stallings_report
from .one_relator import analyze, fiber_rank
from .presentations import (
    ZMap, abelianize, canonical_zmap, torsion_number, two_generator_relator)
from .splittings import Splitting, coset_graph, free_kernel_rank
from .textfmt import (
    GroupFile,
    format_group,
    parse_group_file,
    parse_premise_file,
    parse_splitting_file,
    parse_word,
    write_file,
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


def _read_knot(path: str) -> GroupFile:
    group = parse_group_file(path)
    return replace(group, phi=_require_phi(group))


def _emit(text: str, output: str | None):
    if output:
        write_file(output, text)
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
    x, y, relator = two_generator_relator(group.presentation)
    relator = cyclic_reduce(relator, order=(x, y))
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
    spliced = splice(_read_knot(args.file_a), _read_knot(args.file_b))
    _emit(format_group(spliced), args.output)
    return 0


def _cmd_cable(args) -> int:
    cable = cable_group(_read_knot(args.file), args.p, args.q)
    _emit(format_group(cable), args.output)
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
        print(f"wrote {write_file(target / filename, content)}")
    return 0


# ---------------------------------------------------------------------------

def _arg(*flags, **spec):
    return flags, spec


_FILE = _arg("file")
_NIELSEN = _arg("--nielsen", action="append", default=[], metavar="GEN->WORD")
_OUTPUT = _arg("-o", "--output")

# name: (handler, summary, arguments), in help order
_VERBS = {
    "abelianize": (_cmd_abelianize, "abelianization of a group file", (_FILE,)),
    "phi": (_cmd_phi, "canonical class to Z of a two-generator one-relator group",
            (_FILE,)),
    "analyze": (_cmd_analyze, "exponent analysis of the relator", (_FILE,)),
    "fiber-rank": (_cmd_fiber_rank, "rank of the free kernel, if derivable",
                   (_FILE, _NIELSEN)),
    "alexander": (_cmd_alexander, "order polynomial of the twisted kernel", (_FILE,)),
    "graph": (_cmd_graph, "coset graph of the kernel over a splitting", (_FILE,)),
    "infer": (_cmd_infer, "close finite-generation premises under the rules", (_FILE,)),
    "rank": (_cmd_rank, "free kernel rank over a splitting", (
        _FILE,
        _arg("--rank-a", type=int, default=0),
        _arg("--rank-b", type=int, default=0),
    )),
    "splice": (_cmd_splice, "splice two knot group files",
               (_arg("file_a"), _arg("file_b"), _OUTPUT)),
    "cable": (_cmd_cable, "cable a knot group file", (
        _FILE,
        _arg("-p", type=int, required=True),
        _arg("-q", type=int, required=True),
        _OUTPUT,
    )),
    "report": (_cmd_report, "fibering consistency report", (_FILE, _NIELSEN)),
    "corpus": (_cmd_corpus, "write the bundled example corpus",
               (_arg("--dir", default="corpus"),)),
}


def _add_verb(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the arguments and the handler of verb ``name``."""
    handler, _, arguments = _VERBS[name]
    for flags, spec in arguments:
        parser.add_argument(*flags, **spec)
    parser.set_defaults(func=handler)
    return parser


@functools.cache
def _verb_parser(name: str) -> argparse.ArgumentParser:
    """Verb ``name``'s own parser, built on its first use in a process.

    Reuse is safe: parsing leaves a parser as it was (``append`` copies its
    ``[]`` default before adding to it), and help is laid out afresh for
    ``COLUMNS`` on each call.
    """
    # the full tree would name this subparser "fiberkit <verb>"
    return _add_verb(argparse.ArgumentParser(prog=f"fiberkit {name}"), name)


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: a subparser for each verb."""
    parser = argparse.ArgumentParser(
        prog="fiberkit",
        description="Exact computations with kernels of maps to Z for "
        "amalgams, HNN extensions, and knot-flavored groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, summary, _) in _VERBS.items():
        _add_verb(sub.add_parser(name, help=summary), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    extras = True
    if argv and argv[0] in _VERBS:
        # the full tree would hand the verb's subparser every later string,
        # "--" included
        args, extras = _verb_parser(argv[0]).parse_known_args(argv[1:])
    if extras:
        # the full tree reports leftovers, with every verb on its usage line
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FiberkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return 1
        return 3 if isinstance(exc, ContradictionError) else 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush at
        # exit cannot fail again and print "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
