"""Bus and line primitives shared across the package.

A line is an unordered pair of distinct bus names, stored as a tuple sorted
lexicographically so that equal lines compare equal everywhere.  Multiple
physical circuits on the same tower pair are represented by one line plus a
multiplicity kept on the network.

:func:`components` is the package's one connected-components walk: a
pattern is a component of one generation's lines, and a network is the
largest component of the lines ever outaged.

:func:`read_table` and :func:`write_table` are the package's one CSV
format: every table file is read and written through them.
"""

from __future__ import annotations

import csv
from collections import deque
from typing import Callable, Iterable, TypeVar

from .errors import InputFormatError

Line = tuple[str, str]
T = TypeVar("T")

# Characters with structural meaning in the text formats.  Bus names that
# contain them cannot be serialized unambiguously, so they are rejected at
# the point of formatting; an alias map is the supported workaround.
RESERVED_CHARS = "-;|,"


def canonical_line(a: str, b: str) -> Line:
    """Return the canonical (sorted) form of the line between buses a and b.

    Raises ValueError if the endpoints coincide, since a line from a bus to
    itself is meaningless here.
    """
    if a == b:
        raise ValueError(f"line endpoints coincide: {a!r}")
    return (a, b) if a < b else (b, a)


def check_serializable_bus(name: str) -> str:
    """Validate that a bus name can appear in the text formats."""
    if not name:
        raise ValueError("empty bus name")
    for ch in RESERVED_CHARS:
        if ch in name:
            raise ValueError(
                f"bus name {name!r} contains reserved character {ch!r}; "
                "map it to a clean name with an alias file"
            )
    return name


def format_line(line: Line) -> str:
    """Format a line as ``FROM-TO`` with endpoints in canonical order."""
    a, b = line
    return f"{check_serializable_bus(a)}-{check_serializable_bus(b)}"


def parse_line(text: str) -> Line:
    """Parse a ``FROM-TO`` token back into a canonical line.

    Bus names :func:`format_line` would reject are rejected here too.
    """
    parts = text.split("-")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ValueError(f"malformed line token: {text!r}")
    return canonical_line(check_serializable_bus(parts[0]), check_serializable_bus(parts[1]))


def components(lines: Iterable[Line]) -> list[tuple[set[Line], set[Line]]]:
    """Connected components of a set of canonical lines, as ``(lines, tree)``.

    A breadth-first walk starts at each smallest bus not yet reached, takes
    buses first in, first out, and visits each bus's lines in the order they
    were given.  ``tree`` holds the line by which each other bus of the
    component was first reached, so it has one line fewer than the
    component has buses.  Components come in order of their smallest bus.
    """
    adjacency: dict[str, list[Line]] = {}
    for line in lines:
        adjacency.setdefault(line[0], []).append(line)
        adjacency.setdefault(line[1], []).append(line)
    seen: set[str] = set()
    out: list[tuple[set[Line], set[Line]]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        seen.add(start)
        comp: set[Line] = set()
        tree: set[Line] = set()
        queue = deque([start])
        while queue:
            bus = queue.popleft()
            for line in adjacency[bus]:
                comp.add(line)
                other = line[1] if line[0] == bus else line[0]
                if other not in seen:
                    seen.add(other)
                    tree.add(line)
                    queue.append(other)
        out.append((comp, tree))
    return out


def read_table(path, columns: tuple[str, ...], parse: Callable[..., T]) -> list[T]:
    """``parse(*row)`` for every non-blank row of a CSV table, in file order.

    The header must equal ``columns`` once trimmed and lower-cased.  An
    empty file, another header, a row of another width or one the csv
    module cannot split, or a ValueError from ``parse`` raises
    InputFormatError; row errors name the row's line.
    """
    out: list[T] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise InputFormatError(f"{path}: empty file, expected header {','.join(columns)}")
            names = tuple(cell.strip().lower() for cell in header)
            if names != columns:
                raise InputFormatError(f"{path}: bad header {','.join(names)!r}, expected {','.join(columns)!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise InputFormatError(f"{path}: line {lineno}: expected {len(columns)} fields, got {len(row)}")
                try:
                    out.append(parse(*row))
                except ValueError as exc:
                    raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
        except csv.Error as exc:
            raise InputFormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    return out


def write_table(path, columns: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    """Write a CSV table: the ``columns`` header, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
