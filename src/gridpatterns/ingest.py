"""Parsing and grouping of automatic line outage records.

The outage history is a CSV with header ``timestamp,from_bus,to_bus,
circuit_id,automatic``.  Only automatic outages are kept.  Records are then
grouped into generations: all outage rows sharing the same wall-clock minute
form one generation, the unordered set of lines outaged close enough in time
to belong to the same fast cascade step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Mapping

from .lines import Line, _bus_checker, canonical_line, check_serializable_bus, read_table, write_table

TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M"
OUTAGE_COLUMNS = ("timestamp", "from_bus", "to_bus", "circuit_id", "automatic")
GENERATION_COLUMNS = ("minute", "from_bus", "to_bus", "circuits")
# Values of the ``automatic`` column treated as automatic, case-insensitive.
AUTOMATIC_VALUES = frozenset({"auto", "1", "true"})
DEFAULT_CIRCUIT_ID = "1"
# The zero-padded form the writers produce.  The hour stays below 24 so that
# the fast path never rests on whether ``fromisoformat`` reads "24:00",
# which ISO 8601 allows and ``strptime`` rejects.
_PADDED_MINUTE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2} (?:[01][0-9]|2[0-3]):[0-9]{2}")


def _parse_minute(text: str) -> datetime:
    """The minute ``datetime.strptime(text, TIMESTAMP_FORMAT)`` reads from ``text``.

    The zero-padded form goes through ``datetime.fromisoformat``, about ten
    times cheaper; on that form both accept the same strings and agree.
    Every other string, such as one with a one-digit field, a space-padded
    day or full-width digits, gets ``strptime``'s verdict.  A rejected
    string raises ValueError with the one message every reader reports.
    """
    try:
        if _PADDED_MINUTE.fullmatch(text):
            return datetime.fromisoformat(text)
        return datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError:
        raise ValueError(f"bad timestamp {text!r}, expected YYYY-MM-DD HH:MM") from None


def _format_minute(moment: datetime) -> str:
    """``moment`` as ``YYYY-MM-DD HH:MM``, the year padded to four digits
    (``strftime``'s ``%Y`` leaves years before 1000 unpadded on glibc)."""
    return moment.isoformat(" ", "minutes")[:16]


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
    """One automatic outage of one circuit, normalized.

    ``line`` is the canonical line of the two buses, computed once here, as
    the network, the row filter and the grouping each read it.
    """

    timestamp: datetime
    from_bus: str
    to_bus: str
    circuit_id: str
    line: Line = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "line", canonical_line(self.from_bus, self.to_bus))


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


def _bus(name: str, aliases: Mapping[str, str] | None = None) -> str:
    """A normalized, aliased bus name, rejected if the writers could not write it."""
    return check_serializable_bus(normalize_bus(name, aliases))


def load_alias_map(path) -> dict[str, str]:
    """Load a ``raw_name,canonical_name`` CSV into a normalized alias map.

    An empty raw name, a raw name given twice once normalized, or a
    canonical name the writers would reject raises InputFormatError naming
    the offending line.
    """
    aliases: dict[str, str] = {}

    def parse(raw_name: str, canonical_name: str) -> None:
        raw = normalize_bus(raw_name)
        if not raw:
            raise ValueError("empty raw bus name")
        canon = _bus(canonical_name)
        if raw in aliases:
            raise ValueError(f"duplicate raw name {raw!r}")
        aliases[raw] = canon

    read_table(path, ("raw_name", "canonical_name"), parse)
    return aliases


def load_exclusions(path, aliases: Mapping[str, str] | None = None) -> list[Line]:
    """Load a ``from_bus,to_bus`` CSV of lines to drop from the network.

    A bus name that is empty, or that the writers would reject once aliases
    are applied, raises InputFormatError naming the offending line.
    """
    return read_table(path, ("from_bus", "to_bus"), lambda a, b: canonical_line(_bus(a, aliases), _bus(b, aliases)))


def parse_outage_file(path, aliases: Mapping[str, str] | None = None) -> ParseResult:
    """Parse an outage CSV, keeping normalized automatic records.

    Non-automatic rows and self-loop rows (both endpoints normalize to the
    same bus) are dropped and counted in the result.  Malformed rows, and
    rows with a bus name the writers would reject once aliases are applied,
    raise InputFormatError naming the offending line.
    """
    result = ParseResult(records=[])
    bus = _bus_checker(lambda raw: normalize_bus(raw, aliases))

    def parse(raw_ts: str, raw_from: str, raw_to: str, raw_circuit: str, raw_auto: str) -> None:
        ts = _parse_minute(raw_ts.strip())
        if raw_auto.strip().lower() not in AUTOMATIC_VALUES:
            result.dropped_non_automatic += 1
        elif (from_bus := bus(raw_from)) == (to_bus := bus(raw_to)):
            result.dropped_self_loops += 1
        else:
            result.records.append(OutageRecord(ts, from_bus, to_bus, raw_circuit.strip() or DEFAULT_CIRCUIT_ID))

    read_table(path, OUTAGE_COLUMNS, parse)
    return result


def group_into_generations(records: Iterable[OutageRecord]) -> list[GenerationGroup]:
    """Group records into one generation per distinct minute.

    The result is sorted by minute and does not depend on input order.
    """
    by_minute: dict[datetime, dict[Line, set[str]]] = {}
    for rec in records:
        minute = rec.timestamp
        if minute.second or minute.microsecond:
            minute = minute.replace(second=0, microsecond=0)
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
    rows = (
        (
            _format_minute(rec.timestamp),
            check_serializable_bus(rec.from_bus),
            check_serializable_bus(rec.to_bus),
            rec.circuit_id,
            "auto",
        )
        for rec in records
    )
    write_table(path, OUTAGE_COLUMNS, rows)


def write_generations_csv(path, groups: Iterable[GenerationGroup]) -> None:
    """Write generations as ``minute,from_bus,to_bus,circuits`` rows."""

    def rows():
        for group in groups:
            minute = _format_minute(group.minute)
            for line in sorted(group.lines):
                yield minute, *line, group.circuit_counts.get(line, 1)

    write_table(path, GENERATION_COLUMNS, rows())


def read_generations_csv(path) -> list[GenerationGroup]:
    """Read back a generations CSV written by :func:`write_generations_csv`.

    Bus names the other writers would reject, and a second row for the same
    minute and line, are rejected here, with the row.
    """
    by_minute: dict[datetime, dict[Line, int]] = {}
    bus = _bus_checker()

    def parse(raw_minute: str, from_bus: str, to_bus: str, raw_circuits: str) -> None:
        minute = _parse_minute(raw_minute.strip())
        line = canonical_line(bus(from_bus), bus(to_bus))
        circuits = int(raw_circuits)
        if circuits < 1:
            raise ValueError("circuits must be positive")
        per_line = by_minute.setdefault(minute, {})
        if line in per_line:
            raise ValueError(f"duplicate line {line}")
        per_line[line] = circuits

    read_table(path, GENERATION_COLUMNS, parse)
    return [
        GenerationGroup(minute, frozenset(per_line), dict(sorted(per_line.items())))
        for minute, per_line in sorted(by_minute.items())
    ]
