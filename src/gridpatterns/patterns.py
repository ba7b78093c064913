"""Outage patterns and their degree-sequence statistics.

A pattern is the set of lines of one connected component of the subgraph
induced by a generation group.  Patterns are summarized by the degree
sequence of the buses they touch, sorted in nonincreasing order, which is
the statistic all later comparisons are built on.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Sequence

from .errors import DegenerateDataError, InputFormatError
from .ingest import GenerationGroup
from .lines import Line, canonical_line, format_line, parse_line
from .network import Network, pattern_degrees

DegreeSequence = tuple[int, ...]


@dataclass(frozen=True)
class Pattern:
    """A connected set of simultaneously outaged lines."""

    lines: frozenset[Line]
    source_minute: datetime | None = None

    def __post_init__(self):
        if not self.lines:
            raise ValueError("pattern has no lines")
        for line in self.lines:
            if not (isinstance(line, tuple) and len(line) == 2 and line[0] < line[1]):
                raise ValueError(f"line {line!r} is not in canonical form")
        if not _lines_connected(self.lines):
            raise ValueError("pattern lines do not form a connected subgraph")

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)

    @property
    def buses(self) -> frozenset[str]:
        return frozenset(bus for line in self.lines for bus in line)


def _trusted_pattern(lines: frozenset[Line]) -> Pattern:
    """A Pattern built without the checks of ``Pattern.__post_init__``.

    Only for line sets that are non-empty, canonical and connected by
    construction, such as those the generator grows from network lines.
    """
    pattern = object.__new__(Pattern)
    object.__setattr__(pattern, "lines", lines)
    object.__setattr__(pattern, "source_minute", None)
    return pattern


def _lines_connected(lines: Iterable[Line]) -> bool:
    adjacency: dict[str, list[str]] = {}
    for a, b in lines:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if not adjacency:
        return False
    stack = [next(iter(adjacency))]
    seen = set(stack)
    while stack:
        bus = stack.pop()
        for other in adjacency[bus]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(adjacency)


def split_into_patterns(group: GenerationGroup, network: Network) -> list[Pattern]:
    """Split a generation group into patterns, one per connected component.

    Raises ValueError if the group references lines outside the network.
    The result is sorted by each pattern's smallest line, so it does not
    depend on set iteration order.
    """
    extra = group.lines - network.line_set
    if extra:
        raise ValueError(f"generation references lines outside the network: {sorted(extra)[:3]}")
    adjacency: dict[str, list[Line]] = {}
    for line in group.lines:
        adjacency.setdefault(line[0], []).append(line)
        adjacency.setdefault(line[1], []).append(line)
    unvisited_buses = set(adjacency)
    components: list[frozenset[Line]] = []
    while unvisited_buses:
        start = min(unvisited_buses)
        comp_lines: set[Line] = set()
        comp_buses = {start}
        stack = [start]
        while stack:
            bus = stack.pop()
            for line in adjacency[bus]:
                comp_lines.add(line)
                other = line[1] if line[0] == bus else line[0]
                if other not in comp_buses:
                    comp_buses.add(other)
                    stack.append(other)
        unvisited_buses -= comp_buses
        components.append(frozenset(comp_lines))
    components.sort(key=min)
    return [Pattern(lines, source_minute=group.minute) for lines in components]


def extract_patterns(groups: Iterable[GenerationGroup], network: Network) -> list[Pattern]:
    """All patterns of an outage history, in minute order."""
    out: list[Pattern] = []
    for group in groups:
        out.extend(split_into_patterns(group, network))
    return out


def degree_sequence(pattern: Pattern | Iterable[Line]) -> DegreeSequence:
    """Nonincreasing degree sequence of the buses touched by a pattern."""
    lines = pattern.lines if isinstance(pattern, Pattern) else pattern
    degrees = pattern_degrees(lines)
    if not degrees:
        raise ValueError("empty pattern has no degree sequence")
    return tuple(sorted(degrees.values(), reverse=True))


def check_degree_sequence(seq: Sequence[int]) -> DegreeSequence:
    """Validate and return a canonical (nonincreasing, positive) sequence."""
    out = tuple(int(d) for d in seq)
    if not out:
        raise ValueError("empty degree sequence")
    if any(d < 1 for d in out):
        raise ValueError(f"degree sequence has non-positive entries: {out}")
    if any(out[i] < out[i + 1] for i in range(len(out) - 1)):
        raise ValueError(f"degree sequence is not nonincreasing: {out}")
    return out


def _as_sequences(items: Iterable) -> list[DegreeSequence]:
    """Degree sequence of each item: a Pattern, anything with a ``pattern`` attribute, a line set, or a degree-sequence tuple."""
    out: list[DegreeSequence] = []
    for item in items:
        if hasattr(item, "pattern"):
            item = item.pattern
        if isinstance(item, tuple) and item and isinstance(item[0], int):
            out.append(check_degree_sequence(item))
        else:
            out.append(degree_sequence(item))
    return out


def line_count(seq: Sequence[int]) -> int:
    """Number of lines in a pattern with this degree sequence."""
    total = sum(check_degree_sequence(seq))
    if total % 2:
        raise ValueError(f"degree sequence sums to an odd number: {tuple(seq)}")
    return total // 2


def n_one_plus(seq: Sequence[int]) -> int:
    """Count of buses at which the pattern branched or chained.

    This is the count of buses with pattern degree 2 or more, except for the
    two loop shapes where the chain closes on itself: a 3-line loop has the
    branching weight of a 2-step chain and a 4-line loop that of a 3-step
    chain.
    """
    canon = check_degree_sequence(seq)
    if canon == (2, 2, 2):
        return 2
    if canon == (2, 2, 2, 2):
        return 3
    return sum(1 for d in canon if d >= 2)


def p_one_plus_observed(patterns: Iterable[Pattern | Sequence[int]]) -> float | None:
    """Pooled branching-probability estimate over patterns with >= 3 lines.

    Each growth step beyond the second line of a pattern either extends the
    pattern at a new bus or thickens it at an already-doubled bus; pooling
    (n_one_plus - 1) successes over (line_count - 2) steps across all
    qualifying patterns estimates the probability of the first kind of step.
    Returns None when no pattern has 3 or more lines.
    """
    numerator = 0
    denominator = 0
    for item in patterns:
        seq = degree_sequence(item) if isinstance(item, Pattern) else check_degree_sequence(item)
        n = line_count(seq)
        if n < 3:
            continue
        numerator += n_one_plus(seq) - 1
        denominator += n - 2
    if denominator == 0:
        return None
    return numerator / denominator


def estimate_p_circuits(groups: Iterable[GenerationGroup], network: Network) -> float | None:
    """Probability that a generation doubles a multi-circuit line.

    Counts generations containing at least two outaged circuits of some
    multi-circuit network line, relative to generations touching any
    multi-circuit line at all.  Returns None if no generation touches a
    multi-circuit line.
    """
    multi = set(network.multi_circuit_lines)
    touched = 0
    doubled = 0
    for group in groups:
        lines = group.lines & multi
        if not lines:
            continue
        touched += 1
        if any(group.circuit_counts.get(line, 1) >= 2 for line in lines):
            doubled += 1
    if touched == 0:
        return None
    return doubled / touched


@dataclass(frozen=True)
class SizeHistogram:
    """Counts of patterns by line count."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def frequencies(self) -> dict[int, float]:
        total = self.total
        return {size: count / total for size, count in sorted(self.counts.items())}

    @property
    def sizes(self) -> list[int]:
        return sorted(self.counts)


def size_histogram(patterns: Iterable[Pattern]) -> SizeHistogram:
    """Histogram of pattern sizes in lines."""
    counts: dict[int, int] = {}
    for pattern in patterns:
        size = len(pattern.lines)
        counts[size] = counts.get(size, 0) + 1
    if not counts:
        raise DegenerateDataError("no patterns to histogram")
    return SizeHistogram(dict(sorted(counts.items())))


def format_pattern(lines: Iterable[Line]) -> str:
    """Format a pattern as ``A-B;B-C`` with lines sorted."""
    ordered = sorted(lines)
    if not ordered:
        raise ValueError("pattern has no lines")
    return ";".join(format_line(line) for line in ordered)


def parse_pattern(text: str) -> frozenset[Line]:
    """Parse a ``A-B;B-C`` pattern token into a set of lines."""
    tokens = text.strip().split(";")
    if not tokens or not tokens[0]:
        raise ValueError(f"malformed pattern: {text!r}")
    return frozenset(parse_line(tok) for tok in tokens)


def write_patterns_file(path, patterns: Iterable[Pattern]) -> None:
    """Write one pattern per line in input order."""
    with open(path, "w", newline="") as fh:
        for pattern in patterns:
            fh.write(format_pattern(pattern.lines))
            fh.write("\n")


def read_patterns_file(path) -> list[Pattern]:
    """Read a pattern file written by :func:`write_patterns_file`."""
    out: list[Pattern] = []
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                out.append(Pattern(parse_pattern(text)))
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def format_degree_sequence(seq: Sequence[int]) -> str:
    """Format a degree sequence as ``3,1,1,1``."""
    return ",".join(str(d) for d in check_degree_sequence(seq))


def parse_degree_sequence(text: str) -> DegreeSequence:
    """Parse a ``3,1,1,1`` token, tolerating unsorted input."""
    try:
        values = [int(tok) for tok in text.strip().split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed degree sequence: {text!r}") from exc
    return check_degree_sequence(sorted(values, reverse=True))


def write_degree_sequence_counts(path, patterns: Iterable[Pattern]) -> None:
    """Write ``degree_sequence,count`` rows, most frequent first."""
    counts: dict[DegreeSequence, int] = {}
    for pattern in patterns:
        seq = degree_sequence(pattern)
        counts[seq] = counts.get(seq, 0) + 1
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("degree_sequence", "count"))
        for seq, count in rows:
            writer.writerow((format_degree_sequence(seq), count))
