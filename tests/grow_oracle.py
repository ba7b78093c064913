"""Reference growth that rebuilds the candidate sides from scratch on every step.

``generator._grow`` keeps its two candidate sides up to date as lines join
the pattern.  The functions here recompute the partition from the whole
pattern instead, which is slow (O(k^2 log k) for a k-line pattern) but
follows the model's definition directly, so tests compare the incremental
grower against them draw for draw.  They draw from a numpy Generator, while
the package draws from its own PCG64 stream, so they also check the
package's draws against numpy's.  They name lines and buses by their
strings and build their own adjacency from ``network.lines``, so they read
none of the integer indexes the package grows on.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from gridpatterns.generator import GeneratedPattern, GeneratorConfig
from gridpatterns.lines import Line, canonical_line
from gridpatterns.network import Network
from gridpatterns.patterns import Pattern


class AttachablePartition(NamedTuple):
    """Candidate lines for growing a pattern, split by pattern-bus degree."""

    at_degree_1: frozenset[Line]
    at_degree_2plus: frozenset[Line]


def bus_lines(network: Network) -> dict[str, list[Line]]:
    """Each bus name's lines, from ``network.lines`` alone."""
    adjacency: dict[str, list[Line]] = {}
    for line in network.lines:
        for bus in line:
            adjacency.setdefault(bus, []).append(line)
    return adjacency


def partition_attachable(
    adjacency: Mapping[str, Iterable[Line]], pattern_lines: frozenset[Line] | set[Line], degrees: Mapping[str, int]
) -> tuple[tuple[Line, ...], tuple[Line, ...]]:
    """Split the lines adjacent to a pattern by the degree of the bus they touch.

    A candidate line incident to both a degree-1 bus and a degree-2-or-more
    bus of the pattern appears on both sides.  Each side is sorted so that
    uniform selection by index is deterministic given a random stream.
    """
    at_deg1: set[Line] = set()
    at_deg2: set[Line] = set()
    for bus, degree in degrees.items():
        side = at_deg1 if degree == 1 else at_deg2
        for line in adjacency[bus]:
            if line not in pattern_lines:
                side.add(line)
    return tuple(sorted(at_deg1)), tuple(sorted(at_deg2))


def attachable_lines(network: Network, pattern_lines: Iterable[Line]) -> AttachablePartition:
    """The attachable-line partition of a whole pattern.

    Raises ValueError if the pattern is empty or uses lines outside the
    network.
    """
    pat = frozenset(canonical_line(a, b) for a, b in pattern_lines)
    if not pat:
        raise ValueError("pattern has no lines")
    extra = pat - network.line_set
    if extra:
        raise ValueError(f"pattern uses lines outside the network: {sorted(extra)[:3]}")
    deg1, deg2 = partition_attachable(bus_lines(network), pat, Counter(bus for line in pat for bus in line))
    return AttachablePartition(frozenset(deg1), frozenset(deg2))


def grow(network: Network, first: Line, target: int, p_one_plus: float, rng) -> set[Line]:
    """Grow a connected line set from ``first`` toward ``target`` lines, rebuilding the sides each step.

    Draws from ``rng`` exactly as the model prescribes: the side choice only
    when both sides are non-empty, then a uniform index into the chosen
    sorted side; growth stops when both sides are empty.
    """
    adjacency = bus_lines(network)
    lines = {first}
    degrees = {first[0]: 1, first[1]: 1}
    while len(lines) < target:
        at_deg1, at_deg2 = partition_attachable(adjacency, lines, degrees)
        if at_deg1 and at_deg2:
            side = at_deg1 if rng.random() < p_one_plus else at_deg2
        elif at_deg1:
            side = at_deg1
        elif at_deg2:
            side = at_deg2
        else:
            break
        line = side[int(rng.integers(len(side)))]
        lines.add(line)
        for bus in line:
            degrees[bus] = degrees.get(bus, 0) + 1
    return lines


def first_draws(network: Network, config: GeneratorConfig, rng) -> tuple[Line, int]:
    """A pattern's first draws: its seed line (uniform, or by inverse transform of the weights), then its target size."""
    n = network.n_lines
    if config.initial_weights is None:
        first = network.lines[int(rng.integers(n))]
    else:
        weights = np.array([float(config.initial_weights.get(line, 0.0)) for line in network.lines])
        cum = np.cumsum(weights / weights.sum())
        first = network.lines[min(int(np.searchsorted(cum, rng.random(), "right")), n - 1)]
    return first, int(config.size_model.sample_sizes(rng, n, 1)[0])


def generate_pattern(network: Network, config: GeneratorConfig, rng) -> GeneratedPattern:
    """One pattern drawn entirely from ``rng``: first draws, growth, then a circuit draw per multi-circuit line in line order."""
    first, target = first_draws(network, config, rng)
    lines = grow(network, first, target, config.p_one_plus, rng)
    extra = set()
    if config.p_circuits > 0.0:
        for line in sorted(lines):
            if network.multiplicity.get(line, 1) >= 2 and rng.random() < config.p_circuits:
                extra.add(line)
    return GeneratedPattern(Pattern(frozenset(lines)), frozenset(extra), target, len(lines))
