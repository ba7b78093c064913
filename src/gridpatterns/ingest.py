"""Parsing and grouping of automatic line outage records.

The outage history is a CSV with header ``timestamp,from_bus,to_bus,
circuit_id,automatic``.  Only automatic outages are kept.  Records are then
grouped into generations: all outage rows sharing the same wall-clock minute
form one generation, the unordered set of lines outaged close enough in time
to belong to the same fast cascade step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Mapping

from .errors import InputFormatError
from .lines import Line, canonical_line, check_serializable_bus

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"
OUTAGE_COLUMNS = ("timestamp", "from_bus", "to_bus", "circuit_id", "automatic")
# Values of the ``automatic`` column treated as automatic, case-insensitive.
AUTOMATIC_VALUES = frozenset({"auto", "1", "true"})
DEFAULT_CIRCUIT_ID = "1"


def normalize_bus(name: str, aliases: Mapping[str, str] | None = None) -> str:
    """Normalize a raw bus name.

    Trims surrounding whitespace, folds to upper case, collapses internal
    whitespace runs to single spaces, then applies the alias map if one is
    given.  Alias lookup happens after normalization, so alias keys are
    matched in normalized form.
    """
    out = " ".join(name.split()).upper()
    if aliases:
        out = aliases.get(out, out)
    return out


@dataclass(frozen=True)
class OutageRecord:
    """One automatic outage of one circuit, normalized."""

    timestamp: datetime
    from_bus: str
    to_bus: str
    circuit_id: str

    @property
    def line(self) -> Line:
        return canonical_line(self.from_bus, self.to_bus)


@dataclass(frozen=True)
class GenerationGroup:
    """All lines outaged within one minute, with per-line circuit counts."""

    minute: datetime
    lines: frozenset[Line]
    circuit_counts: Mapping[Line, int] = field(hash=False)

    def __post_init__(self):
        if not self.lines:
            raise ValueError("generation group has no lines")


@dataclass
class ParseResult:
    """Outcome of parsing one outage file."""

    records: list[OutageRecord]
    dropped_non_automatic: int = 0
    dropped_self_loops: int = 0


def load_alias_map(path) -> dict[str, str]:
    """Load a ``raw_name,canonical_name`` CSV into a normalized alias map.

    An empty raw name, or a canonical name the writers would reject, raises
    InputFormatError naming the offending line.
    """
    aliases: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader, ("raw_name", "canonical_name"), path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            raw, canon = (normalize_bus(cell) for cell in row)
            try:
                if not raw:
                    raise ValueError("empty raw bus name")
                aliases[raw] = check_serializable_bus(canon)
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
    return aliases


def load_exclusions(path, aliases: Mapping[str, str] | None = None) -> list[Line]:
    """Load a ``from_bus,to_bus`` CSV of lines to drop from the network.

    A bus name that is empty, or that the writers would reject once aliases
    are applied, raises InputFormatError naming the offending line.
    """
    out: list[Line] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader, ("from_bus", "to_bus"), path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise InputFormatError(f"{path}: line {lineno}: expected 2 fields, got {len(row)}")
            a, b = (normalize_bus(cell, aliases) for cell in row)
            try:
                out.append(canonical_line(check_serializable_bus(a), check_serializable_bus(b)))
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def _read_header(reader, expected: tuple[str, ...], path) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise InputFormatError(f"{path}: empty file, expected header {','.join(expected)}")
    names = tuple(cell.strip().lower() for cell in header)
    if names != expected:
        raise InputFormatError(
            f"{path}: bad header {','.join(names)!r}, expected {','.join(expected)!r}"
        )
    return list(names)


def parse_outage_file(path, aliases: Mapping[str, str] | None = None) -> ParseResult:
    """Parse an outage CSV, keeping normalized automatic records.

    Non-automatic rows and self-loop rows (both endpoints normalize to the
    same bus) are dropped and counted in the result.  Malformed rows, and
    rows with a bus name the writers would reject once aliases are applied,
    raise InputFormatError naming the offending line.
    """
    result = ParseResult(records=[])
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader, OUTAGE_COLUMNS, path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise InputFormatError(f"{path}: line {lineno}: expected 5 fields, got {len(row)}")
            raw_ts, raw_from, raw_to, raw_circuit, raw_auto = row
            try:
                ts = datetime.strptime(raw_ts.strip(), TIMESTAMP_FORMAT)
            except ValueError as exc:
                raise InputFormatError(
                    f"{path}: line {lineno}: bad timestamp {raw_ts.strip()!r}, "
                    f"expected YYYY-MM-DD HH:MM"
                ) from exc
            if raw_auto.strip().lower() not in AUTOMATIC_VALUES:
                result.dropped_non_automatic += 1
                continue
            try:
                from_bus = check_serializable_bus(normalize_bus(raw_from, aliases))
                to_bus = check_serializable_bus(normalize_bus(raw_to, aliases))
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
            if from_bus == to_bus:
                result.dropped_self_loops += 1
                continue
            circuit = raw_circuit.strip() or DEFAULT_CIRCUIT_ID
            result.records.append(OutageRecord(ts, from_bus, to_bus, circuit))
    return result


def group_into_generations(records: Iterable[OutageRecord]) -> list[GenerationGroup]:
    """Group records into one generation per distinct minute.

    The result is sorted by minute and does not depend on input order.
    """
    by_minute: dict[datetime, dict[Line, set[str]]] = {}
    for rec in records:
        minute = rec.timestamp.replace(second=0, microsecond=0)
        circuits = by_minute.setdefault(minute, {}).setdefault(rec.line, set())
        circuits.add(rec.circuit_id)
    groups = []
    for minute in sorted(by_minute):
        per_line = by_minute[minute]
        groups.append(
            GenerationGroup(
                minute=minute,
                lines=frozenset(per_line),
                circuit_counts={line: len(ids) for line, ids in sorted(per_line.items())},
            )
        )
    return groups


def write_outage_csv(path, records: Iterable[OutageRecord]) -> None:
    """Write records in the outage CSV format (all marked automatic)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OUTAGE_COLUMNS)
        for rec in records:
            writer.writerow(
                (
                    rec.timestamp.strftime(TIMESTAMP_FORMAT),
                    check_serializable_bus(rec.from_bus),
                    check_serializable_bus(rec.to_bus),
                    rec.circuit_id,
                    "auto",
                )
            )


def write_generations_csv(path, groups: Iterable[GenerationGroup]) -> None:
    """Write generations as ``minute,from_bus,to_bus,circuits`` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("minute", "from_bus", "to_bus", "circuits"))
        for group in groups:
            for line in sorted(group.lines):
                writer.writerow(
                    (
                        group.minute.strftime(TIMESTAMP_FORMAT),
                        line[0],
                        line[1],
                        group.circuit_counts.get(line, 1),
                    )
                )


def read_generations_csv(path) -> list[GenerationGroup]:
    """Read back a generations CSV written by :func:`write_generations_csv`.

    Bus names the other writers would reject are rejected here, with the row.
    """
    by_minute: dict[datetime, dict[Line, int]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        _read_header(reader, ("minute", "from_bus", "to_bus", "circuits"), path)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise InputFormatError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            try:
                minute = datetime.strptime(row[0].strip(), TIMESTAMP_FORMAT)
                line = canonical_line(check_serializable_bus(row[1]), check_serializable_bus(row[2]))
                circuits = int(row[3])
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
            if circuits < 1:
                raise InputFormatError(f"{path}: line {lineno}: circuits must be positive")
            by_minute.setdefault(minute, {})[line] = circuits
    return [
        GenerationGroup(minute, frozenset(per_line), dict(sorted(per_line.items())))
        for minute, per_line in sorted(by_minute.items())
    ]
