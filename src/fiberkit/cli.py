"""Command line front end.

Each verb is a short handler: it reads its files through ``textfmt``, calls
the library, and prints a deterministic key=value style report.  The verbs
are declared once, in ``_VERBS``.  A command line takes one of two paths.
A plain one, a verb followed by its positionals and by options spelled in
full, each with its value, is matched against that verb's declaration
(``_plain_args``) with no argparse parser built; the result is the
namespace the full tree would build, less its ``verb``.  Anything else
(``-h``, an abbreviation, ``--x=y``, ``--``, ``-``, a usage error, no
verb) goes to the full tree of all verbs, built afresh by
``_build_parser``, so argparse stays the specification and the only
source of help, usage and error text.  The texts ``corpus`` writes are
built once per process, by ``corpus.corpus_files``, so a later ``corpus``
call only checks and writes files.  ``main`` maps the toolkit's errors onto
exit codes: 0 on success, 1 on parse errors, 2 on hypothesis violations, 3
on inference contradictions.  Files are written through
``textfmt.write_file``, which leaves a file that already holds the same
bytes untouched, so a repeated ``corpus`` or ``-o`` keeps the files' mtimes.
Paths are used and shown as spelled on the command line, with no
``pathlib`` normalization: ``corpus --dir ./sub/`` writes and reports
``./sub/unknot.grp``, and ``--dir ""`` writes bare names into the current
directory.
``entry`` exits 1 without a traceback when stdout is closed early, as in
``| head -1``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import corpus
from .errors import ContradictionError, FiberkitError, HypothesisError, ParseError
from .fox import alexander_poly
from .inference import AMALGAM, FLAG_NAMES, HNN, fg_inference
from .links import cable_group, splice, stallings_report
from .one_relator import analyze, fiber_rank
from .presentations import (
    ZMap, abelianize, canonical_zmap, torsion_number, two_generator_relator)
from .splittings import Splitting, coset_graph, free_kernel_rank
from .textfmt import (
    GroupFile,
    format_group,
    parse_group_file,
    parse_hints,
    parse_premise_file,
    parse_splitting_file,
    write_file,
    writing,
)
from .words import cyclic_reduce

__all__ = ["main", "entry"]


def _require_phi(group: GroupFile) -> ZMap:
    if group.phi is not None:
        return group.phi
    return canonical_zmap(group.presentation)


def _read_knot(path: str) -> GroupFile:
    group = parse_group_file(path)
    return group._replace(phi=_require_phi(group))


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
    hints = parse_hints(args.nielsen)
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
    (c_idx,) = graph.edge_indices  # a splitting file holds one edge
    print(f"kind = {HNN if split.edges[0].stable else AMALGAM}")
    for name, idx in zip("ab", graph.vertex_indices):
        print(f"{name}_idx = {idx}")
    print(f"c_idx = {c_idx}")
    print(f"vertices = {graph.vertex_count}")
    print(f"edges = {graph.edge_count}")
    print(f"chi = {graph.euler_characteristic}")
    for k, (side_u, i), (side_v, j) in graph.edges:
        print(f"edge {k}: {side_u}{i} - {side_v}{j}")
    return 0


def _cmd_rank(args) -> int:
    split, phi = _splitting_with_phi(args.file)
    ranks = [args.rank_a]
    if len(split.vertices) > 1:
        ranks.append(args.rank_b or 0)
    elif args.rank_b is not None:
        raise HypothesisError("--rank-b is the rank of factor B; an HNN splitting has none")
    graph = coset_graph(split, phi)
    rank = free_kernel_rank(graph, ranks)
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
    hints = parse_hints(args.nielsen)
    report = stallings_report(group.presentation, _require_phi(group), hints)
    print(report.render())
    return 0


def _cmd_corpus(args) -> int:
    if args.dir:
        # "" is the current directory, which os.makedirs refuses to create
        with writing(args.dir):
            os.makedirs(args.dir, exist_ok=True)
    for filename, content in corpus.corpus_files():
        print(f"wrote {write_file(os.path.join(args.dir, filename), content)}")
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
        _arg("--rank-b", type=int, default=None),
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


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: a subparser for each verb."""
    parser = argparse.ArgumentParser(
        prog="fiberkit",
        description="Exact computations with kernels of maps to Z for "
        "amalgams, HNN extensions, and knot-flavored groups.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (handler, summary, arguments) in _VERBS.items():
        verb = sub.add_parser(name, help=summary)
        for flags, spec in arguments:
            verb.add_argument(*flags, **spec)
        verb.set_defaults(func=handler)
    return parser


@functools.cache
def _plain_table(name: str):
    """Verb ``name``'s declaration as the matcher reads it: each option
    string mapped to its ``(dest, type, appends)``, the positional dests in
    order, the required dests, and every dest's default with ``func``."""
    handler, _, arguments = _VERBS[name]
    options, positionals, required, defaults = {}, [], set(), {"func": handler}
    for flags, spec in arguments:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        # argparse's dest: the first long flag, else the short one
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        options.update(dict.fromkeys(flags, (dest, spec.get("type"), "action" in spec)))
        defaults[dest] = spec.get("default")
        if spec.get("required"):
            required.add(dest)
    return options, positionals, required, defaults


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that the full tree would build from ``argv``, less its
    ``verb``, if the rest of ``argv`` is plain, else None.

    Plain: each string that starts with ``-`` is an option the verb
    declares, spelled in full, and is followed by a value that does not
    start with ``-`` and converts to the option's type; the other strings
    fill the positional slots exactly, and every required option is given.
    """
    options, positionals, required, defaults = _plain_table(argv[0])
    values = dict(defaults)
    given = set()
    filled = []
    rest = iter(argv[1:])
    for token in rest:
        if token[:1] != "-":
            filled.append(token)
            continue
        option = options.get(token)
        value = next(rest, None)
        if option is None or value is None or value[:1] == "-":
            return None
        dest, convert, appends = option
        if convert is not None:
            try:
                value = convert(value)
            except ValueError:
                return None
        if appends:
            if dest not in given:
                # argparse appends to a copy of the default
                values[dest] = list(defaults[dest])
            values[dest].append(value)
        else:
            values[dest] = value
        given.add(dest)
    if len(filled) != len(positionals) or not required <= given:
        return None
    values.update(zip(positionals, filled))
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) if argv and argv[0] in _VERBS else None
    if args is None:
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
