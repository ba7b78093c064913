"""Transmission network as a connected simple graph with line multiplicities.

Multiple circuits between the same pair of buses are collapsed into a single
line whose multiplicity records the distinct circuit count.  All pattern
extraction and generation happens on this single-line graph.  Connectivity
is decided by the one component walk, :func:`lines.components`: a network
is one component, and the network of an outage history is its largest.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import DegenerateDataError, InputFormatError
from .ingest import OutageRecord
from .lines import Line, _bus_checker, canonical_line, check_serializable_bus, components, read_table, write_table

NETWORK_COLUMNS = ("from_bus", "to_bus", "multiplicity")


class Network:
    """Immutable connected network of buses and lines.

    Parameters
    ----------
    lines:
        Iterable of bus pairs.  Pairs are canonicalized and deduplicated.
    multiplicity:
        Optional map from line to distinct circuit count (default 1).

    Line i is ``lines[i]``, in sorted order, and bus j is the j-th bus name
    in sorted order.  ``ends[i]`` holds the bus ids of line i, and
    ``incident[j]`` the ids of the lines at bus j in ascending order; growth
    runs on these ids, and names appear only where patterns are built.

    Raises ValueError if the resulting graph is empty or not connected;
    callers that start from raw data should reduce to the largest connected
    component first (see :func:`build_network_from_outages`).
    """

    def __init__(self, lines: Iterable[tuple[str, str]], multiplicity: Mapping[Line, int] | None = None):
        canon = sorted({canonical_line(a, b) for a, b in lines})
        if not canon:
            raise ValueError("network has no lines")
        self.lines: tuple[Line, ...] = tuple(canon)
        self.line_set: frozenset[Line] = frozenset(canon)
        mult = {line: 1 for line in canon}
        if multiplicity:
            for line, count in multiplicity.items():
                key = canonical_line(*line)
                if key not in mult:
                    raise ValueError(f"multiplicity given for unknown line {key}")
                if int(count) < 1:
                    raise ValueError(f"multiplicity for line {key} must be >= 1")
                mult[key] = int(count)
        self.multiplicity: dict[Line, int] = mult
        names = sorted({bus for line in canon for bus in line})
        bus_ids = {bus: j for j, bus in enumerate(names)}
        self.ends: tuple[tuple[int, int], ...] = tuple((bus_ids[a], bus_ids[b]) for a, b in canon)
        incident: list[list[int]] = [[] for _ in names]
        for i, (a, b) in enumerate(self.ends):
            incident[a].append(i)
            incident[b].append(i)
        self.incident: tuple[tuple[int, ...], ...] = tuple(map(tuple, incident))
        self.buses: frozenset[str] = frozenset(names)
        self.multi_circuit_lines: tuple[Line, ...] = tuple(
            line for line in canon if mult[line] >= 2
        )
        if len(components(canon)) > 1:
            raise ValueError("network is not connected")

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.lines == other.lines and self.multiplicity == other.multiplicity

    def __repr__(self) -> str:
        return f"Network({self.n_buses} buses, {self.n_lines} lines)"


def build_network_from_outages(
    records: Iterable[OutageRecord], exclusions: Iterable[Line] = ()
) -> Network:
    """Build the network implied by an outage history.

    Every line ever outaged becomes a network line; its multiplicity is the
    number of distinct circuit identifiers seen for it across the whole
    history.  Excluded lines are removed, then the largest connected
    component is retained: the most lines, then the most buses, then the
    smallest bus name.
    """
    circuits: dict[Line, set[str]] = {}
    for rec in records:
        circuits.setdefault(rec.line, set()).add(rec.circuit_id)
    if not circuits:
        raise DegenerateDataError("no outage records to build a network from")
    for line in exclusions:
        circuits.pop(canonical_line(*line), None)
    if not circuits:
        raise DegenerateDataError("all lines were excluded")
    # components come in order of their smallest bus, and max() keeps the
    # first of equal keys; a tree has one line fewer than its buses
    keep, _ = max(components(circuits), key=lambda comp: (len(comp[0]), len(comp[1])))
    return Network(keep, {line: len(circuits[line]) for line in keep})


def write_network_csv(path, network: Network) -> None:
    """Write ``from_bus,to_bus,multiplicity`` rows sorted by line."""
    rows = (
        (check_serializable_bus(a), check_serializable_bus(b), network.multiplicity[a, b]) for a, b in network.lines
    )
    write_table(path, NETWORK_COLUMNS, rows)


def read_network_csv(path) -> Network:
    """Read a network CSV written by :func:`write_network_csv`.

    Bus names the writers would reject are rejected here, with the row.
    """
    multiplicity: dict[Line, int] = {}
    bus = _bus_checker()

    def parse(from_bus: str, to_bus: str, raw_count: str) -> None:
        line = canonical_line(bus(from_bus), bus(to_bus))
        count = int(raw_count)
        if line in multiplicity:
            raise ValueError(f"duplicate line {line}")
        if count < 1:
            raise ValueError("multiplicity must be >= 1")
        multiplicity[line] = count

    read_table(path, NETWORK_COLUMNS, parse)
    if not multiplicity:
        raise DegenerateDataError(f"{path}: network file has no lines")
    try:
        return Network(multiplicity.keys(), multiplicity)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
