"""Outage patterns and their degree-sequence statistics.

A pattern is the set of lines of one connected component of the subgraph
induced by a generation group.  Patterns are summarized by the degree
sequence of the buses they touch, sorted in nonincreasing order, which is
the statistic all later comparisons are built on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from numbers import Integral
from typing import Iterable, Mapping, Sequence

from .errors import DegenerateDataError, InputFormatError
from .ingest import GenerationGroup
from .lines import Line, components, format_line, parse_line, write_table
from .network import Network

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
        _check_connected(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def __iter__(self):
        return iter(self.lines)


def _check_connected(lines: frozenset[Line]) -> None:
    if len(lines) > 1 and len(components(lines)) > 1:
        raise ValueError("pattern lines do not form a connected subgraph")


def _trusted_pattern(lines: frozenset[Line], source_minute: datetime | None = None) -> Pattern:
    """A Pattern built without the checks of ``Pattern.__post_init__``.

    Only for line sets that are non-empty, canonical and connected by
    construction, such as those the generator grows from network lines and
    the components :func:`split_into_patterns` takes of them.
    """
    pattern = object.__new__(Pattern)
    object.__setattr__(pattern, "lines", lines)
    object.__setattr__(pattern, "source_minute", source_minute)
    return pattern


def split_into_patterns(group: GenerationGroup, network: Network) -> list[Pattern]:
    """Split a generation group into patterns, one per connected component.

    Raises ValueError if the group references lines outside the network.
    The result is sorted by each pattern's smallest line, so it does not
    depend on set iteration order.
    """
    extra = group.lines - network.line_set
    if extra:
        raise ValueError(f"generation references lines outside the network: {sorted(extra)[:3]}")
    if len(group.lines) == 1:  # most generations; one line is one component
        return [_trusted_pattern(frozenset(group.lines), group.minute)]
    # lines are canonical, so a component's smallest line starts with its
    # smallest bus, and the components already come in smallest-line order
    return [_trusted_pattern(frozenset(lines), group.minute) for lines, _ in components(group.lines)]


def extract_patterns(groups: Iterable[GenerationGroup], network: Network) -> list[Pattern]:
    """All patterns of an outage history, in minute order."""
    out: list[Pattern] = []
    for group in groups:
        out.extend(split_into_patterns(group, network))
    return out


def degree_sequence(pattern: Pattern | Iterable[Line]) -> DegreeSequence:
    """Nonincreasing degree sequence of the buses touched by a pattern."""
    degrees: dict[str, int] = {}
    for a, b in pattern.lines if isinstance(pattern, Pattern) else pattern:
        degrees[a] = degrees.get(a, 0) + 1
        degrees[b] = degrees.get(b, 0) + 1
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


def _sequence_counts(items: Iterable) -> Counter[DegreeSequence]:
    """Degree-sequence counts of items: Patterns, anything with a ``pattern`` attribute, line sets, or checked degree sequences."""
    counts: Counter[DegreeSequence] = Counter()
    for item in items:
        item = getattr(item, "pattern", item)
        # int before the Integral ABC (numpy integers), whose check alone costs about 0.6 us
        is_sequence = isinstance(item, (tuple, list)) and item and isinstance(item[0], (int, Integral))
        counts[check_degree_sequence(item) if is_sequence else degree_sequence(item)] += 1
    return counts


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


def _branching_sums(counts: Mapping[DegreeSequence, int]) -> tuple[int, int]:
    """Pooled (n_one_plus - 1) and (line_count - 2) over the counted sequences of 3 or more lines."""
    numerator = denominator = 0
    for seq, count in counts.items():
        n = line_count(seq)
        if n >= 3:
            numerator += count * (n_one_plus(seq) - 1)
            denominator += count * (n - 2)
    return numerator, denominator


def p_one_plus_observed(patterns: Iterable) -> float | None:
    """Pooled branching-probability estimate over patterns with >= 3 lines.

    Accepts Patterns, generated patterns, line sets, or degree-sequence
    tuples.  Each growth step beyond the second line of a pattern either
    extends the pattern at a new bus or thickens it at an already-doubled
    bus; pooling (n_one_plus - 1) successes over (line_count - 2) steps
    across all qualifying patterns estimates the probability of the first
    kind of step.  Returns None when no pattern has 3 or more lines.
    """
    numerator, denominator = _branching_sums(_sequence_counts(patterns))
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
    """Parse a ``A-B;B-C`` pattern token into a set of lines.

    A pattern that names the same line twice is rejected.
    """
    tokens = text.split(";")
    if not tokens[0]:
        raise ValueError(f"malformed pattern: {text!r}")
    lines = frozenset(parse_line(tok) for tok in tokens)
    if len(lines) < len(tokens):
        raise ValueError(f"pattern names a line twice: {text!r}")
    return lines


def write_patterns_file(path, patterns: Iterable[Pattern]) -> None:
    """Write one pattern per line in input order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for pattern in patterns:
            fh.write(format_pattern(pattern.lines))
            fh.write("\n")


def read_patterns_file(path) -> list[Pattern]:
    """Read a pattern file written by :func:`write_patterns_file`.

    Blank lines are skipped.  Other lines keep their spaces, which belong to
    the bus names, just as in the network file.  :func:`parse_pattern`
    already yields a non-empty set of canonical lines, so of the checks of
    ``Pattern`` only connectivity runs here.
    """
    out: list[Pattern] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.rstrip("\n")
            if not text.strip():
                continue
            try:
                lines = parse_pattern(text)
                _check_connected(lines)
                out.append(_trusted_pattern(lines))
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out


def format_degree_sequence(seq: Sequence[int]) -> str:
    """Format a degree sequence as ``3,1,1,1``."""
    return ",".join(str(d) for d in check_degree_sequence(seq))


def write_degree_sequence_counts(path, patterns: Iterable[Pattern]) -> None:
    """Write ``degree_sequence,count`` rows, most frequent first."""
    rows = sorted(_sequence_counts(patterns).items(), key=lambda item: (-item[1], item[0]))
    write_table(path, ("degree_sequence", "count"), ((format_degree_sequence(seq), count) for seq, count in rows))
