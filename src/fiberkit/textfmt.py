"""Line-oriented plain-text formats for groups, splittings and premises.

Group file::

    group trefoil
    gen x y
    rel x^2 y^-3
    phi x=3 y=2
    peripheral meridian=x y^-1 longitude=x^2 x y^-1 ...

Words are whitespace-separated ``<id>^<int>`` tokens with ``^1`` omitted
and ``1`` for the empty word.  An ``<id>`` (a letter or ``_``, then
letters, digits, ``_`` or ``'``) is the one form of a generator name: on a
``gen`` line, in ``stable=`` and on the left of a hint.  A group file reads into the
``presentations.GroupFile`` that ``links`` splices and cables; the phi and
peripheral lines are optional.  A splitting file names its factor files and
reads into a ``splittings.Splitting`` with one edge: a tree edge from A to
B, or a loop at A with its stable letter.  Each edge line adds one word at
either end::

    amalgam A=a.grp B=b.grp
    edge inA=x^2 inB=y^3
    phi x=3 y=2

    hnn A=a.grp stable=t
    edge inC=x^2 inD=x^2
    phi x=1 t=0

Premise files feed the finite-generation inference::

    kind amalgam
    nontrivial yes
    premise n_fg yes

Nielsen hints, the ``--nielsen`` values of ``fiber-rank`` and ``report``,
read ``GEN->WORD``: the image of one generator, over no declared list.

Blank lines and ``#`` comments are ignored; unknown keywords are parse
errors, and an error in a line names it as ``<file>:<line>:``.  Every file
is read and written here, and a file that cannot be read or is not UTF-8,
or a path that cannot be written, is a parse error too.  ``write_file``
leaves a file that already holds the bytes it would write untouched, so its
mtime stays as it was.  Paths go to ``open`` and ``os`` as given, a ``str``
or an ``os.PathLike``, and a message shows a path as the caller spelled it:
``./g.grp`` stays ``./g.grp``, and a splitting file's factor files are its
directory joined with their names as written.

The words of one file over one generator list share a table from each
token to its syllable, so a token is matched and checked once per file,
not once per line; the two ends of a splitting file's edge each have their
own, and the hints of one call share one.  A word is its tokens looked up
in that table, and ``reduce_word`` runs only when two adjacent tokens share
a generator.
"""

from __future__ import annotations

import os
import re
import stat
from contextlib import contextmanager
from functools import partial
from typing import Callable, Iterable

from .errors import ParseError
from .inference import AMALGAM, FLAG_NAMES, HNN, FgPremises
from .presentations import GroupFile, Presentation, ZMap
from .splittings import Edge, Splitting
from .words import Syllable, Word, _word, reduce_word

__all__ = [
    "GroupFile",
    "parse_word",
    "parse_hints",
    "parse_group_text",
    "parse_group_file",
    "format_group",
    "parse_splitting_file",
    "parse_premise_file",
    "writing",
    "write_file",
]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TOKEN = re.compile(rf"^({_NAME.pattern})(?:\^(-?\d+))?$")


def parse_word(text: str, generators=None) -> Word:
    """Parse a word; exponents must be nonzero, and when a generator list
    is given every name must be declared on it.

    >>> parse_word("x x^-1 y", ("x", "y"))
    Word('y')
    """
    return _read_word({}, None if generators is None else set(generators), text)


def parse_hints(texts: Iterable[str]) -> list[dict[str, Word]]:
    """Parse Nielsen hints ``GEN->WORD`` in order, each into ``{GEN: WORD}``;
    the images of one call share one token table, as the words of a group
    file do.

    >>> parse_hints(["x->x y", "y -> y^-1"])
    [{'x': Word('x y')}, {'y': Word('y^-1')}]
    """
    table: dict[str, Syllable] = {}
    hints = []
    for text in texts:
        if "->" not in text:
            raise ParseError(f"bad hint {text!r}, expected 'gen->word'")
        gen, _, image = text.partition("->")
        gen = gen.strip()
        if not _NAME.fullmatch(gen):
            raise ParseError(f"bad hint generator in {text!r}")
        hints.append({gen: _read_word(table, None, image)})
    return hints


def _read_word(table: dict[str, Syllable], declared: set[str] | None, text: str) -> Word:
    """``parse_word`` through ``table``, which maps each token already read
    over ``declared`` to its syllable and gains every new one."""
    text = text.strip()
    if not text or text == "1":
        return Word()
    syllables = []
    for token in text.split():
        syllable = table.get(token)
        if syllable is None:
            match = _TOKEN.match(token)
            if not match:
                raise ParseError(f"bad word token {token!r}")
            gen, exp_text = match.groups()
            exp = int(exp_text) if exp_text is not None else 1
            if exp == 0:
                raise ParseError(f"zero exponent in token {token!r}")
            if declared is not None and gen not in declared:
                raise ParseError(f"undeclared generator {gen!r}")
            syllable = table[token] = gen, exp
        syllables.append(syllable)
    last = None
    for gen, _ in syllables:
        if gen == last:
            return reduce_word(syllables)
        last = gen
    # checked token by token, and no two adjacent syllables share a generator
    return _word(tuple(syllables))


def _read(path: str) -> str:
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


@contextmanager
def writing(path: str | os.PathLike):
    """Yield ``path`` unchanged for creating or writing it; an ``OSError``
    on the way is a parse error, the mirror of reading."""
    try:
        yield path
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from None


def write_file(path: str | os.PathLike, text: str) -> str | os.PathLike:
    """Write ``text`` to ``path`` as UTF-8, unless ``path`` is a regular
    file that already holds exactly those bytes; return ``path`` unchanged.

    Only a regular file of the same size is read back, so a FIFO, a tty or
    ``/dev/stdout`` on a pipe is written without being read, which would
    block.  A write that fails is a parse error, as in ``writing``.
    """
    data = text.encode("utf-8")
    with writing(path):
        if not _holds(path, data):
            with open(path, "wb") as file:
                file.write(data)
    return path


def _holds(path: str | os.PathLike, data: bytes) -> bool:
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode) or info.st_size != len(data):
            return False
        with open(path, "rb") as file:
            return file.read() == data
    except OSError:
        # whatever stops the read, the write reports
        return False


def _lines(text: str, source: str):
    """Yield ``(where, line)`` for every line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield f"{source}:{lineno}", line


def _split_phi(args: str, where: str) -> dict[str, int]:
    values = {}
    for item in args.split():
        if "=" not in item:
            raise ParseError(f"{where}: bad phi assignment {item!r}")
        gen, _, value = item.partition("=")
        if gen in values:
            raise ParseError(f"{where}: phi names generator {gen!r} twice")
        try:
            values[gen] = int(value)
        except ValueError:
            raise ParseError(f"{where}: bad phi value in {item!r}") from None
    if not values:
        raise ParseError(f"{where}: empty phi line")
    return values


def _phi_map(phi_line: tuple[str, dict[str, int]] | None, generators) -> ZMap | None:
    """The class of a ``(where, values)`` phi line, which must name exactly
    the declared generators; None when the file has no phi line."""
    if phi_line is None:
        return None
    where, values = phi_line
    for g in values:
        if g not in generators:
            raise ParseError(f"{where}: phi names undeclared generator {g!r}")
    for g in generators:
        if g not in values:
            raise ParseError(f"{where}: phi misses generator {g!r}")
    return ZMap(values)


def _split_keyed_words(args: str, keys: tuple[str, str], where: str) -> tuple[str, str]:
    """Split e.g. ``meridian=x y^-1 longitude=x^2`` into the two word
    strings; word tokens may contain spaces, so we cut at the second key."""
    first_key, second_key = keys
    prefix = first_key + "="
    marker = second_key + "="
    if not args.startswith(prefix):
        raise ParseError(f"{where}: expected {prefix!r} first")
    rest = args[len(prefix):]
    pieces = rest.split(marker)
    if len(pieces) != 2:
        raise ParseError(f"{where}: expected exactly one {marker!r}")
    return pieces[0].strip(), pieces[1].strip()


def _line_words(where: str, read: Callable[[str], Word], *texts: str) -> list[Word]:
    """Read the words of the file line at ``where``, naming it in any error."""
    try:
        return [read(text) for text in texts]
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def parse_group_text(text: str, source: str = "<string>") -> GroupFile:
    name = None
    generators: list[str] = []
    relator_lines: list[tuple[str, str]] = []
    phi_line = None
    peripheral_line = None

    for where, line in _lines(text, source):
        keyword, _, args = line.partition(" ")
        args = args.strip()
        if keyword == "group":
            if name is not None:
                raise ParseError(f"{where}: repeated group line")
            if not args:
                raise ParseError(f"{where}: group needs a name")
            name = args
        elif keyword == "gen":
            if not args:
                raise ParseError(f"{where}: gen needs at least one name")
            for g in args.split():
                if not _NAME.fullmatch(g):
                    raise ParseError(f"{where}: bad generator name {g!r}")
                if g in generators:
                    raise ParseError(f"{where}: duplicate generator {g!r}")
                generators.append(g)
        elif keyword == "rel":
            relator_lines.append((where, args))
        elif keyword == "phi":
            if phi_line is not None:
                raise ParseError(f"{where}: repeated phi line")
            phi_line = where, _split_phi(args, where)
        elif keyword == "peripheral":
            if peripheral_line is not None:
                raise ParseError(f"{where}: repeated peripheral line")
            peripheral_line = where, _split_keyed_words(
                args, ("meridian", "longitude"), where
            )
        else:
            raise ParseError(f"{where}: unknown keyword {keyword!r}")

    if not generators:
        raise ParseError(f"{source}: no generators declared")
    # one token table for every word of the file
    read = partial(_read_word, {}, set(generators))
    relators = []
    for where, args in relator_lines:
        relators += _line_words(where, read, args)
    pres = Presentation(tuple(generators), tuple(relators))
    phi = _phi_map(phi_line, generators)

    meridian = longitude = None
    if peripheral_line is not None:
        where, texts = peripheral_line
        meridian, longitude = _line_words(where, read, *texts)

    return GroupFile(
        name=name or "G",
        presentation=pres,
        phi=phi,
        meridian=meridian,
        longitude=longitude,
    )


def parse_group_file(path: str | os.PathLike) -> GroupFile:
    path = os.fspath(path)
    return parse_group_text(_read(path), source=path)


def format_group(group: GroupFile) -> str:
    lines = [f"group {group.name}", "gen " + " ".join(group.presentation.generators)]
    for r in group.presentation.relators:
        lines.append(f"rel {r}")
    if group.phi is not None:
        assignments = " ".join(
            f"{g}={group.phi.values[g]}" for g in group.presentation.generators
        )
        lines.append(f"phi {assignments}")
    if group.meridian is not None and group.longitude is not None:
        lines.append(
            f"peripheral meridian={group.meridian} longitude={group.longitude}"
        )
    return "\n".join(lines) + "\n"


def _split_assignments(args: str, keys: tuple[str, ...], where: str) -> dict[str, str]:
    values = {}
    for item in args.split():
        key, eq, value = item.partition("=")
        if not eq or key not in keys:
            raise ParseError(f"{where}: expected {'/'.join(keys)} assignments")
        if key in values:
            raise ParseError(f"{where}: repeated {key}=...")
        values[key] = value
    missing = [k for k in keys if k not in values]
    if missing:
        raise ParseError(f"{where}: missing {missing[0]}=...")
    return values


# splitting line -> (its keys, the keys of its edge lines)
_SPLITTING_LINES = {
    AMALGAM: (("A", "B"), ("inA", "inB")),
    HNN: (("A", "stable"), ("inC", "inD")),
}


def parse_splitting_file(path: str | os.PathLike) -> tuple[Splitting, ZMap | None]:
    """Parse a splitting file into its ``Splitting`` and its class; factor
    file paths resolve relative to it."""
    path = os.fspath(path)
    edge_keys = None
    vertices: list[Presentation] = []
    stable = None
    edge_lines: list[tuple[str, str, str]] = []
    phi_line = None

    for where, line in _lines(_read(path), path):
        keyword, _, args = line.partition(" ")
        args = args.strip()
        if keyword in _SPLITTING_LINES:
            if edge_keys is not None:
                raise ParseError(f"{where}: repeated splitting line")
            keys, edge_keys = _SPLITTING_LINES[keyword]
            parts = _split_assignments(args, keys, where)
            folder = os.path.dirname(path)
            vertices = [parse_group_file(os.path.join(folder, parts[k])).presentation
                        for k in ("A", "B") if k in parts]
            stable = parts.get("stable")
            if stable and not _NAME.fullmatch(stable):
                raise ParseError(f"{where}: bad generator name {stable!r}")
        elif keyword == "edge":
            if edge_keys is None:
                raise ParseError(f"{where}: edge before the splitting line")
            edge_lines.append((where, *_split_keyed_words(args, edge_keys, where)))
        elif keyword == "phi":
            if phi_line is not None:
                raise ParseError(f"{where}: repeated phi line")
            phi_line = where, _split_phi(args, where)
        else:
            raise ParseError(f"{where}: unknown keyword {keyword!r}")

    if edge_keys is None:
        raise ParseError(f"{path}: no amalgam or hnn line")

    dst = len(vertices) - 1  # B, or A again for the loop
    # a token table per end, as each checks against its own generators
    read_src = partial(_read_word, {}, set(vertices[0].generators))
    read_dst = partial(_read_word, {}, set(vertices[dst].generators))
    words_src: list[Word] = []
    words_dst: list[Word] = []
    for where, u, v in edge_lines:
        words_src += _line_words(where, read_src, u)
        words_dst += _line_words(where, read_dst, v)
    edge = Edge(0, dst, tuple(words_src), tuple(words_dst), stable)
    try:
        split = Splitting(tuple(vertices), (edge,))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return split, _phi_map(phi_line, split.generators)


def _yes_no(value: str, what: str) -> bool:
    if value not in ("yes", "no"):
        raise ParseError(f"{what} must be yes or no")
    return value == "yes"


def parse_premise_file(path: str | os.PathLike) -> tuple[str, FgPremises, bool]:
    """Parse a premise file into ``(kind, premises, nontrivial)``; the
    nontriviality assertion A != C != B defaults to yes."""
    path = os.fspath(path)
    kind = None
    nontrivial = None
    assignments = {}
    for where, line in _lines(_read(path), path):
        parts = line.split()
        if parts[0] == "kind" and len(parts) == 2:
            if kind is not None:
                raise ParseError(f"{where}: repeated kind line")
            kind = parts[1]
        elif parts[0] == "nontrivial" and len(parts) == 2:
            if nontrivial is not None:
                raise ParseError(f"{where}: repeated nontrivial line")
            nontrivial = _yes_no(parts[1], f"{where}: nontrivial")
        elif parts[0] == "premise" and len(parts) == 3:
            flag, value = parts[1], parts[2]
            if flag not in FLAG_NAMES:
                raise ParseError(f"{where}: unknown flag {flag!r}")
            if flag in assignments:
                raise ParseError(f"{where}: repeated premise {flag!r}")
            assignments[flag] = _yes_no(value, f"{where}: flag value")
        else:
            raise ParseError(f"{where}: unknown line {line!r}")
    if kind not in (AMALGAM, HNN):
        raise ParseError(f"{path}: needs a line 'kind amalgam' or 'kind hnn'")
    return kind, FgPremises(**assignments), nontrivial is not False
