"""Independent oracles for degree-sequence validity, adjacency, and transport.

Validity comes from exhaustive connected-graph enumeration (small sizes),
and from the Erdos-Gallai inequalities at every position and Havel-Hakimi
reduction (larger sizes), adjacency from a padded-increment formulation,
distances from networkx BFS, and optimal transport from enumeration of basic
feasible solutions of the transport polytope; none of these shares code with
the package.  Past networkx's reach, :func:`best_first_distance` checks the
package's search alone: it walks the package's neighbours under the
package's bound, but in best-first order.
"""

from __future__ import annotations

import heapq
import itertools
from functools import lru_cache

import networkx as nx
import numpy as np

from gridpatterns.distance import _alignment_bound, _neighbors


@lru_cache(maxsize=None)
def connected_graph_sequences(max_lines: int) -> dict[int, set[tuple[int, ...]]]:
    """Degree sequences of every connected simple graph with <= max_lines
    edges and no isolated vertices, found by brute-force enumeration."""
    out: dict[int, set[tuple[int, ...]]] = {L: set() for L in range(1, max_lines + 1)}
    for n_vertices in range(2, max_lines + 2):
        possible = list(itertools.combinations(range(n_vertices), 2))
        for n_edges in range(max(1, n_vertices - 1), max_lines + 1):
            for edges in itertools.combinations(possible, n_edges):
                g = nx.Graph()
                g.add_nodes_from(range(n_vertices))
                g.add_edges_from(edges)
                if min(dict(g.degree).values()) < 1:
                    continue
                if not nx.is_connected(g):
                    continue
                seq = tuple(sorted((d for _, d in g.degree), reverse=True))
                out[n_edges].add(seq)
    return out


def erdos_gallai_graphical(seq: tuple[int, ...]) -> bool:
    """Erdos-Gallai characterization of simple graphicality."""
    d = sorted(seq, reverse=True)
    n = len(d)
    if sum(d) % 2:
        return False
    for k in range(1, n + 1):
        lhs = sum(d[:k])
        rhs = k * (k - 1) + sum(min(x, k) for x in d[k:])
        if lhs > rhs:
            return False
    return True


def eg_connected_valid(seq: tuple[int, ...]) -> bool:
    """Connected-graphical test built on Erdos-Gallai instead of
    Havel-Hakimi."""
    if not seq or min(seq) < 1:
        return False
    if sum(seq) < 2 * (len(seq) - 1):
        return False
    return erdos_gallai_graphical(seq)


def havel_hakimi_connected_valid(seq: tuple[int, ...]) -> bool:
    """Connected-graphical test built on Havel-Hakimi: join the largest
    remaining degree to the next largest ones until all are used up, after
    the two connectivity conditions (every degree positive, degree sum at
    least 2 * (bus count - 1))."""
    work = sorted(seq, reverse=True)
    if not work or work[-1] < 1:
        return False
    total = sum(work)
    if total % 2 or total < 2 * (len(work) - 1):
        return False
    while work:
        work.sort(reverse=True)
        d = work.pop(0)
        if d == 0:
            return True
        if d > len(work):
            return False
        for i in range(d):
            work[i] -= 1
            if work[i] < 0:
                return False
    return True


def partitions_with_sum(total: int, max_part: int | None = None):
    """Nonincreasing positive integer tuples summing to ``total``."""
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions_with_sum(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def valid_sequences(max_lines: int) -> dict[int, list[tuple[int, ...]]]:
    """EG-valid connected degree sequences grouped by line count."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for lines in range(1, max_lines + 1):
        found = []
        for seq in partitions_with_sum(2 * lines):
            # a simple graph needs every degree below the vertex count
            if len(seq) > lines + 1 or seq[0] >= len(seq):
                continue
            if eg_connected_valid(seq):
                found.append(seq)
        out[lines] = found
    return out


def padded_additions(seq: tuple[int, ...]) -> set[tuple[int, ...]]:
    """One-line additions via the padded-zero formulation: append a virtual
    degree-0 bus, then increment any two distinct positions."""
    padded = list(seq) + [0]
    out = set()
    for i, j in itertools.combinations(range(len(padded)), 2):
        cand = padded[:]
        cand[i] += 1
        cand[j] += 1
        out.add(tuple(sorted((d for d in cand if d > 0), reverse=True)))
    return out


@lru_cache(maxsize=None)
def oracle_graph(max_lines: int) -> nx.Graph:
    """The degree-sequence edit graph up to ``max_lines``, as networkx."""
    by_lines = valid_sequences(max_lines)
    g = nx.Graph()
    for seqs in by_lines.values():
        g.add_nodes_from(seqs)
    for lines in range(1, max_lines):
        upper = set(by_lines[lines + 1])
        for seq in by_lines[lines]:
            for cand in padded_additions(seq):
                if cand in upper:
                    g.add_edge(seq, cand)
    return g


def oracle_distance(a: tuple[int, ...], b: tuple[int, ...], max_lines: int = 8) -> int:
    return nx.shortest_path_length(oracle_graph(max_lines), a, b)


def best_first_distance(a, b, lower, upper) -> int:
    """Exact shortest-path length given a known path of length ``upper``.

    Best-first search toward ``b`` with the alignment bound as an admissible
    heuristic, reopening nodes on shorter arrivals.  Every estimate in the
    queue shares the parity of the line-count gap, so once the cheapest open
    estimate reaches ``best`` no path can undercut it and ``best`` is exact.
    The graph is infinite, but the search still ends: a node is queued only
    while its estimate is below ``best`` <= ``upper``, and the estimate
    covers the line-count gap to ``b``, so every queued node has fewer than
    ``upper`` + line_count(b) lines and only finitely many such nodes exist.
    Deeper nodes win ties to reach ``b`` and tighten ``best`` early.
    """
    best = upper
    depths = {a: 0}
    heap = [(lower, 0, a)]
    while heap:
        estimate, neg_depth, node = heapq.heappop(heap)
        if estimate >= best:
            break
        depth = -neg_depth
        if depth > depths.get(node, depth):
            continue  # superseded by a shorter arrival
        for nb in _neighbors(node):
            through = depth + 1
            seen = depths.get(nb)
            if seen is not None and seen <= through:
                continue
            depths[nb] = through
            if nb == b:
                if through < best:
                    best = through
                continue
            guess = through + _alignment_bound(nb, b)
            if guess < best:
                heapq.heappush(heap, (guess, -through, nb))
    return best


def brute_force_transport(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Exact optimal transport value by enumerating basic feasible solutions.

    Every vertex of the transport polytope is supported on a spanning-tree
    basis of n + m - 1 cells; enumerating all full-rank bases and keeping
    feasible ones visits every vertex, and the optimum is attained at one.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    b = np.concatenate([np.asarray(p, float), np.asarray(q, float)])
    a_full = np.zeros((n + m, n * m))
    for i in range(n):
        for j in range(m):
            a_full[i, i * m + j] = 1.0
            a_full[n + j, i * m + j] = 1.0
    k = n + m - 1
    best = None
    for basis in itertools.combinations(range(n * m), k):
        a = a_full[:, basis]
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < k:
            continue
        if np.linalg.norm(a @ x - b) > 1e-9:
            continue
        if np.any(x < -1e-9):
            continue
        x = np.clip(x, 0.0, None)
        value = float(sum(cost.ravel()[c] * xi for c, xi in zip(basis, x)))
        if best is None or value < best:
            best = value
    assert best is not None, "no feasible basis found"
    return best
