"""Synthetic networks and outage histories for desk-scale experiments.

Three network families cover the shapes that matter for the growth model:
a meshed grid, a random tree, and a preferential-attachment graph with a
heavy-tailed degree distribution, all built by :func:`synthetic_network`,
which checks its arguments before it draws an edge.  A synthetic outage
history turns a generated ensemble back into outage CSV rows, one
generation per minute, so the whole pipeline can be exercised against
known ground truth.
"""

from __future__ import annotations

import heapq
from datetime import datetime, timedelta
from numbers import Integral

import numpy as np

from .generator import GeneratedPattern, GeneratorConfig, generate_ensemble
from .ingest import OutageRecord
from .lines import Line, canonical_line, components
from .network import Network
from .rng import substream


def _grid_mesh_edges(lines: int, rng: np.random.Generator) -> list[Line]:
    """Square-grid mesh trimmed to exactly ``lines`` lines; draws nothing.

    Starts from the smallest n-by-n grid with at least the requested line
    count, then removes surplus edges, cycle edges first so the graph stays
    connected and meshed as long as possible.
    """
    n = 2
    while 2 * n * n - 2 * n < lines:
        n += 1
    width = len(str(n - 1))
    name = lambda r, c: f"R{r:0{width}d}C{c:0{width}d}"
    edges: list[Line] = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                edges.append(canonical_line(name(r, c), name(r, c + 1)))
            if r + 1 < n:
                edges.append(canonical_line(name(r, c), name(r + 1, c)))
    excess = len(edges) - lines
    if excess > 0:
        _, tree = components(sorted(edges))[0]
        cycle_edges = sorted(set(edges) - tree, reverse=True)
        removed = set(cycle_edges[:excess])
        kept = [e for e in edges if e not in removed]
        while len(kept) > lines:
            kept = _peel_leaf(kept)
        edges = kept
    return edges


def _peel_leaf(edges: list[Line]) -> list[Line]:
    degree: dict[str, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    leaf_lines = [e for e in edges if degree[e[0]] == 1 or degree[e[1]] == 1]
    drop = max(leaf_lines)
    return [e for e in edges if e != drop]


def _random_tree_edges(lines: int, rng: np.random.Generator) -> list[Line]:
    """Uniform random labeled tree with ``lines`` lines, decoded from a
    random Pruefer sequence."""
    n_buses = lines + 1
    width = len(str(n_buses - 1))
    name = lambda i: f"B{i:0{width}d}"
    if n_buses == 2:
        return [canonical_line(name(0), name(1))]
    prufer = rng.integers(0, n_buses, size=n_buses - 2)
    degree = [1] * n_buses
    for v in prufer:
        degree[int(v)] += 1
    edges = []
    leaves = [i for i in range(n_buses) if degree[i] == 1]
    heapq.heapify(leaves)
    for v in prufer:
        v = int(v)
        leaf = heapq.heappop(leaves)
        edges.append(canonical_line(name(leaf), name(v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    # the two remaining degree-1 buses close the tree
    edges.append(canonical_line(name(heapq.heappop(leaves)), name(heapq.heappop(leaves))))
    return edges


def _ba_like_edges(lines: int, rng: np.random.Generator) -> list[Line]:
    """Preferential-attachment network grown to ``lines`` lines.

    New buses attach with two edges to degree-weighted existing buses (one
    edge when only one line remains), giving a heavy-tailed degree
    distribution unlike the grid or tree fixtures.
    """
    width = max(4, len(str(lines + 2)))
    name = lambda i: f"B{i:0{width}d}"
    if lines == 1:
        return [canonical_line(name(0), name(1))]
    edges = [canonical_line(name(0), name(1)), canonical_line(name(1), name(2))]
    degree = {name(0): 1, name(1): 2, name(2): 1}
    while len(edges) < lines:
        m = 2 if lines - len(edges) >= 2 else 1
        buses = sorted(degree)
        weights = np.array([degree[b] for b in buses], dtype=float)
        weights /= weights.sum()
        chosen: list[str] = []
        while len(chosen) < m:
            pick = buses[int(rng.choice(len(buses), p=weights))]
            if pick not in chosen:
                chosen.append(pick)
        new = name(len(degree))
        degree[new] = 0
        for bus in chosen:
            edges.append(canonical_line(new, bus))
            degree[bus] += 1
            degree[new] += 1
    return edges


_EDGE_BUILDERS = {
    "grid-mesh": _grid_mesh_edges,
    "random-tree": _random_tree_edges,
    "ba-like": _ba_like_edges,
}
NETWORK_KINDS = tuple(_EDGE_BUILDERS)


def synthetic_network(
    kind: str, lines: int, multi_circuit_fraction: float = 0.0, seed: int = 0
) -> Network:
    """A network of one of the :data:`NETWORK_KINDS` with ``lines`` lines, arguments checked first.

    The edges draw from stream ``(seed, 0)``; then each line in sorted order
    is doubled with probability ``multi_circuit_fraction`` on stream ``(seed, 1)``.
    """
    if kind not in _EDGE_BUILDERS:
        raise ValueError(f"unknown network kind {kind!r}; expected one of {NETWORK_KINDS}")
    if not isinstance(lines, Integral) or lines < 1:
        raise ValueError(f"line count must be an integer >= 1, got {lines!r}")
    if not 0.0 <= multi_circuit_fraction <= 1.0:
        raise ValueError(f"multi_circuit_fraction must lie in [0, 1], got {multi_circuit_fraction}")
    edges = _EDGE_BUILDERS[kind](lines, substream(seed, 0))
    rng = substream(seed, 1)
    return Network(edges, {line: 2 if rng.random() < multi_circuit_fraction else 1 for line in sorted(edges)})


def synthetic_history(
    network: Network, config: GeneratorConfig, count: int
) -> tuple[list[OutageRecord], list[GeneratedPattern]]:
    """Generate an ensemble and lay it out as an outage history.

    Pattern i occupies minute i counted from 2020-01-01 00:00; every
    pattern line contributes a circuit-1 outage row and every extra circuit
    a circuit-2 row.  Returns the records together with the ground-truth
    ensemble they encode.
    """
    ensemble = generate_ensemble(network, config, count)
    records: list[OutageRecord] = []
    for i, gp in enumerate(ensemble):
        minute = datetime(2020, 1, 1) + timedelta(minutes=i)
        for line in sorted(gp.pattern.lines):
            records.append(OutageRecord(minute, line[0], line[1], "1"))
            if line in gp.extra_circuits:
                records.append(OutageRecord(minute, line[0], line[1], "2"))
    return records, ensemble
