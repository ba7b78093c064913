"""Synthetic networks and outage histories for desk-scale experiments.

Three network families cover the shapes that matter for the growth model:
a meshed grid, a random tree, and a preferential-attachment graph with a
heavy-tailed degree distribution.  A synthetic outage history turns a
generated ensemble back into outage CSV rows, one generation per minute, so
the whole pipeline can be exercised against known ground truth.
"""

from __future__ import annotations

import heapq
from datetime import datetime, timedelta
from typing import Iterable

import numpy as np

from .generator import GeneratedPattern, GeneratorConfig, generate_ensemble
from .ingest import OutageRecord
from .lines import Line, canonical_line, components
from .network import Network
from .rng import substream

NETWORK_KINDS = ("grid-mesh", "random-tree", "ba-like")


def _assign_multiplicities(
    edges: Iterable[Line], fraction: float, rng: np.random.Generator
) -> dict[Line, int]:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"multi_circuit_fraction must lie in [0, 1], got {fraction}")
    return {line: 2 if rng.random() < fraction else 1 for line in sorted(edges)}


def grid_mesh_network(lines: int, multi_circuit_fraction: float = 0.0, seed: int = 0) -> Network:
    """Square-grid mesh trimmed to exactly ``lines`` lines.

    Starts from the smallest n-by-n grid with at least the requested line
    count, then removes surplus edges, cycle edges first so the graph stays
    connected and meshed as long as possible.
    """
    if lines < 1:
        raise ValueError("line count must be >= 1")
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
    rng = substream(seed, 1)
    return Network(edges, _assign_multiplicities(edges, multi_circuit_fraction, rng))


def _peel_leaf(edges: list[Line]) -> list[Line]:
    degree: dict[str, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    leaf_lines = [e for e in edges if degree[e[0]] == 1 or degree[e[1]] == 1]
    drop = max(leaf_lines)
    return [e for e in edges if e != drop]


def random_tree_network(lines: int, multi_circuit_fraction: float = 0.0, seed: int = 0) -> Network:
    """Uniform random labeled tree with ``lines`` lines, decoded from a
    random Pruefer sequence."""
    if lines < 1:
        raise ValueError("line count must be >= 1")
    n_buses = lines + 1
    width = len(str(n_buses - 1))
    name = lambda i: f"B{i:0{width}d}"
    rng = substream(seed, 0)
    if n_buses == 2:
        edges = [canonical_line(name(0), name(1))]
    else:
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
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append(canonical_line(name(u), name(w)))
    mult_rng = substream(seed, 1)
    return Network(edges, _assign_multiplicities(edges, multi_circuit_fraction, mult_rng))


def ba_like_network(lines: int, multi_circuit_fraction: float = 0.0, seed: int = 0) -> Network:
    """Preferential-attachment network grown to ``lines`` lines.

    New buses attach with two edges to degree-weighted existing buses (one
    edge when only one line remains), giving a heavy-tailed degree
    distribution unlike the grid or tree fixtures.
    """
    if lines < 1:
        raise ValueError("line count must be >= 1")
    rng = substream(seed, 0)
    width = max(4, len(str(lines + 2)))
    name = lambda i: f"B{i:0{width}d}"
    if lines == 1:
        edges = [canonical_line(name(0), name(1))]
    else:
        edges = [canonical_line(name(0), name(1)), canonical_line(name(1), name(2))]
        degree = {name(0): 1, name(1): 2, name(2): 1}
        next_bus = 3
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
            new = name(next_bus)
            next_bus += 1
            degree[new] = 0
            for bus in chosen:
                edges.append(canonical_line(new, bus))
                degree[bus] += 1
                degree[new] += 1
    mult_rng = substream(seed, 1)
    return Network(edges, _assign_multiplicities(edges, multi_circuit_fraction, mult_rng))


def synthetic_network(
    kind: str, lines: int, multi_circuit_fraction: float = 0.0, seed: int = 0
) -> Network:
    """Build one of the named synthetic network kinds."""
    builders = {
        "grid-mesh": grid_mesh_network,
        "random-tree": random_tree_network,
        "ba-like": ba_like_network,
    }
    try:
        builder = builders[kind]
    except KeyError:
        raise ValueError(f"unknown network kind {kind!r}; expected one of {NETWORK_KINDS}") from None
    return builder(lines, multi_circuit_fraction, seed)


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
