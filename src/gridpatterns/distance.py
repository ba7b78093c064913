"""Distances between degree sequences and between pattern distributions.

Degree sequences of connected patterns form a graph: two sequences are
adjacent when one arises from the other by adding or removing a single line.
The edit distance between two sequences is the shortest path length in that
graph, and the distance between two pattern sets is the Wasserstein distance
between their empirical degree-sequence distributions under that ground
metric, computed exactly as a minimum-cost flow by successive shortest paths.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, DegenerateDataError
from .patterns import DegreeSequence, _as_sequences, check_degree_sequence, line_count


def is_connected_graphical(seq: Sequence[int]) -> bool:
    """Whether some connected simple graph has this degree sequence.

    Combines the Havel-Hakimi test for simple graphicality with the two
    conditions that make a connected realization possible: every degree is
    at least 1 and the degree sum is at least 2*(bus count - 1).  A
    graphical sequence satisfying those bounds always has a connected
    realization, because disconnected realizations can be rewired by edge
    swaps that merge components without changing degrees.
    """
    values = tuple(sorted((int(d) for d in seq), reverse=True))
    if not values or values[-1] < 1:
        return False
    return _valid_canonical(values)


@functools.cache
def _valid_canonical(values: DegreeSequence) -> bool:
    # values nonincreasing and positive; candidates recur across many parent
    # sequences, so the verdict is memoized process-wide
    total = sum(values)
    if total % 2:
        return False
    if total < 2 * (len(values) - 1):
        return False
    work = list(values)
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


def sequence_additions(seq: Sequence[int]) -> set[DegreeSequence]:
    """Valid degree sequences reachable by adding one line.

    Adding a line either joins two existing buses (two entries increment) or
    taps one existing bus to a new bus (one entry increments and a 1 is
    appended).  Candidates failing :func:`is_connected_graphical` are
    discarded.
    """
    return set(_additions_canonical(check_degree_sequence(seq)))


def _expand(counts: dict[int, int]) -> DegreeSequence:
    """Desc-sorted tuple from a degree -> multiplicity map, zeros dropped."""
    out: list[int] = []
    for val in sorted(counts, reverse=True):
        if val > 0 and counts[val] > 0:
            out.extend([val] * counts[val])
    return tuple(out)


@functools.cache
def _additions_canonical(canon: DegreeSequence) -> tuple[DegreeSequence, ...]:
    # iterate distinct degree values, not positions: same canonical results,
    # and long near-uniform sequences stay cheap
    counts = collections.Counter(canon)
    values = sorted(counts)
    candidates: set[DegreeSequence] = set()
    for i, u in enumerate(values):
        for v in values[i:]:
            if u == v and counts[u] < 2:
                continue
            new = counts.copy()
            new[u] -= 1
            new[v] -= 1
            new[u + 1] = new.get(u + 1, 0) + 1
            new[v + 1] = new.get(v + 1, 0) + 1
            candidates.add(_expand(new))
    for u in values:
        new = counts.copy()
        new[u] -= 1
        new[u + 1] = new.get(u + 1, 0) + 1
        new[1] = new.get(1, 0) + 1
        candidates.add(_expand(new))
    return tuple(sorted(c for c in candidates if is_connected_graphical(c)))


def sequence_removals(seq: Sequence[int]) -> set[DegreeSequence]:
    """Valid degree sequences reachable by removing one line.

    Exact inverse of :func:`sequence_additions`: decrement two entries, and a
    bus dropping to degree 0 leaves the sequence.  At most one entry may drop
    to 0, because a line between two degree-1 buses would be a component of
    its own and could not belong to a connected pattern with other lines.
    Candidates failing the validity test are discarded.
    """
    return set(_removals_canonical(check_degree_sequence(seq)))


@functools.cache
def _removals_canonical(canon: DegreeSequence) -> tuple[DegreeSequence, ...]:
    counts = collections.Counter(canon)
    values = sorted(counts)
    candidates: set[DegreeSequence] = set()
    for i, u in enumerate(values):
        for v in values[i:]:
            if u == 1 and v == 1:
                continue
            if u == v and counts[u] < 2:
                continue
            new = counts.copy()
            new[u] -= 1
            new[v] -= 1
            new[u - 1] = new.get(u - 1, 0) + 1
            new[v - 1] = new.get(v - 1, 0) + 1
            reduced = _expand(new)
            if reduced:
                candidates.add(reduced)
    return tuple(sorted(c for c in candidates if is_connected_graphical(c)))


def sequence_neighbors(seq: Sequence[int]) -> set[DegreeSequence]:
    """All one-line-edit neighbors of a sequence."""
    canon = check_degree_sequence(seq)
    return set(_additions_canonical(canon)) | set(_removals_canonical(canon))


def _alignment_bound(a: DegreeSequence, b: DegreeSequence) -> int:
    """Lower bound from counting degree increments and decrements.

    Every addition raises two bus degrees by one (a fresh bus rises from a
    padded zero) and every removal lowers two by one, so against the sorted
    zero-padded alignment, which minimizes the demanded rise and fall over
    all alignments, additions A >= ceil(rise / 2) and removals
    R >= ceil(fall / 2).  One addition touches a given bus at most once, and
    pairing sorted with sorted minimizes the worst per-bus climb over all
    bus assignments, so A also covers the largest aligned climb, and R the
    largest aligned drop.  Each move is moreover either a leaf move,
    shifting the bus count, or a cycle move, shifting the cycle count
    lines - buses + 1, so A and R each cover the positive and negative
    shifts of those two totals.  With A - R pinned to the line-count change,
    minimizing A + R under the constraints gives the bound; its parity
    matches the line-count gap, as any path's length must.
    """
    delta = (sum(b) - sum(a)) // 2
    buses = len(b) - len(a)
    cycles = delta - buses
    width = max(len(a), len(b))
    pa = a + (0,) * (width - len(a))
    pb = b + (0,) * (width - len(b))
    rise = fall = climb = drop = 0
    for x, y in zip(pa, pb):
        if y > x:
            rise += y - x
            climb = max(climb, y - x)
        else:
            fall += x - y
            drop = max(drop, x - y)
    add_min = max(climb, (rise + 1) // 2, max(buses, 0) + max(cycles, 0))
    rem_min = max(drop, (fall + 1) // 2, max(-buses, 0) + max(-cycles, 0))
    adds = max(add_min, rem_min + delta, delta, 0)
    return 2 * adds - delta


def _bounded_search(a, b, lower, upper, neighbors_fn) -> int:
    """Exact shortest-path length given a known path of length ``upper``.

    Best-first search toward ``b`` with the alignment bound as an admissible
    heuristic, reopening nodes on shorter arrivals.  Every estimate in the
    queue shares the parity of the line-count gap, so once the cheapest open
    estimate reaches ``best`` no path can undercut it and ``best`` is exact.
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
        for nb in neighbors_fn(node):
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


class SequenceGraph:
    """Degree-sequence edit distances under a line-count cap.

    Each distance starts from the counting lower bound; a bounded best-first
    search over the capped graph settles the pairs the bound does not decide
    outright, diving along bound-tight moves first.  Pair results and
    neighbor tuples are memoized on the instance.
    """

    def __init__(self, max_lines: int):
        if int(max_lines) < 1:
            raise ValueError("max_lines must be >= 1")
        self.max_lines = int(max_lines)
        self._adj: dict[DegreeSequence, tuple[DegreeSequence, ...]] = {}
        self._pairs: dict[tuple[DegreeSequence, DegreeSequence], int] = {}

    def _check_node(self, seq: Sequence[int]) -> DegreeSequence:
        canon = check_degree_sequence(seq)
        if not is_connected_graphical(canon):
            raise ValueError(f"{canon} is not a connected-graphical degree sequence")
        if line_count(canon) > self.max_lines:
            raise CapExceededError(
                f"sequence {canon} has {line_count(canon)} lines, above the cap {self.max_lines}"
            )
        return canon

    def neighbors(self, seq: Sequence[int]) -> tuple[DegreeSequence, ...]:
        return self._neighbors(self._check_node(seq))

    def _neighbors(self, canon: DegreeSequence) -> tuple[DegreeSequence, ...]:
        # the search reaches only canonical connected-graphical nodes within
        # the cap (additions are filtered below), so it skips _check_node
        cached = self._adj.get(canon)
        if cached is None:
            cap = 2 * self.max_lines
            cached = tuple(
                nb
                for nb in _additions_canonical(canon)
                if sum(nb) <= cap
            ) + _removals_canonical(canon)
            self._adj[canon] = cached
        return cached

    def distance(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Shortest one-line-edit path length between two sequences."""
        return self._distance(self._check_node(a), self._check_node(b))

    def _distance(self, ca: DegreeSequence, cb: DegreeSequence) -> int:
        if ca == cb:
            return 0
        key = (ca, cb) if ca <= cb else (cb, ca)
        hit = self._pairs.get(key)
        if hit is None:
            lower = _alignment_bound(ca, cb)
            # removals down to a single line and additions back up form a
            # genuine path at any cap, so la + lb - 2 always bounds above
            upper = (sum(ca) + sum(cb)) // 2 - 2
            if upper == lower:
                hit = upper
            else:
                hit = _bounded_search(ca, cb, lower, upper, self._neighbors)
            self._pairs[key] = hit
        return hit

    def distance_matrix(
        self, sources: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Matrix of pairwise distances over the two supports."""
        src_canon = [self._check_node(s) for s in sources]
        tgt_canon = [self._check_node(t) for t in targets]
        out = np.zeros((len(src_canon), len(tgt_canon)), dtype=float)
        for i, src in enumerate(src_canon):
            for j, tgt in enumerate(tgt_canon):
                out[i, j] = self._distance(src, tgt)
        return out


_SHARED_GRAPHS: dict[int, SequenceGraph] = {}


def shared_sequence_graph(max_lines: int) -> SequenceGraph:
    """Process-wide SequenceGraph per cap value.

    The cap fixes the graph's node set, so two comparisons at the same cap
    see identical distances whether or not they share an instance; sharing
    only keeps the lazily built caches warm.  Instances are not safe for
    concurrent mutation from threads; parallel evaluation uses processes.
    """
    graph = _SHARED_GRAPHS.get(int(max_lines))
    if graph is None:
        graph = _SHARED_GRAPHS[int(max_lines)] = SequenceGraph(max_lines)
    return graph


def sequence_distance(a: Sequence[int], b: Sequence[int], cap: int | None = None) -> int:
    """Edit distance between two degree sequences.

    The search is restricted to sequences with at most ``cap`` lines; the
    default cap is two lines above the larger endpoint, which is enough
    slack for every shortest path at the scales checked exhaustively in the
    test suite.
    """
    ca = check_degree_sequence(a)
    cb = check_degree_sequence(b)
    if cap is None:
        cap = max(line_count(ca), line_count(cb)) + 2
    return shared_sequence_graph(cap).distance(ca, cb)


@dataclass(frozen=True)
class PatternDistribution:
    """Probability distribution over degree sequences.

    The support is stored sorted by line count then lexicographically, with
    probabilities reordered to match, so equal distributions compare equal.
    """

    support: tuple[DegreeSequence, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        support = tuple(check_degree_sequence(s) for s in self.support)
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 1 or len(support) != probs.size:
            raise ValueError("support and probabilities must have equal length")
        if probs.size == 0:
            raise ValueError("empty distribution")
        if len(set(support)) != len(support):
            raise ValueError("support sequences must be distinct")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        order = sorted(range(len(support)), key=lambda i: (line_count(support[i]), support[i]))
        object.__setattr__(self, "support", tuple(support[i] for i in order))
        object.__setattr__(self, "probabilities", probs[order])

    @property
    def max_lines(self) -> int:
        return max(line_count(s) for s in self.support)

    def probability_of(self, seq: Sequence[int]) -> float:
        canon = check_degree_sequence(seq)
        for s, p in zip(self.support, self.probabilities):
            if s == canon:
                return float(p)
        return 0.0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternDistribution):
            return NotImplemented
        return self.support == other.support and np.array_equal(
            self.probabilities, other.probabilities
        )


def empirical_distribution(items: Iterable) -> PatternDistribution:
    """Empirical degree-sequence distribution of a pattern collection.

    Accepts Pattern objects, generated-pattern wrappers (anything with a
    ``pattern`` attribute), raw line sets, or degree-sequence tuples.  Extra
    circuits on generated patterns do not change the degree sequence.
    """
    seqs = _as_sequences(items)
    if not seqs:
        raise DegenerateDataError("no patterns to build a distribution from")
    counts = collections.Counter(seqs)
    total = len(seqs)
    support = tuple(sorted(counts, key=lambda s: (line_count(s), s)))
    probs = np.array([counts[s] / total for s in support], dtype=float)
    return PatternDistribution(support, probs)


class TransportSolver:
    """Exact minimum-cost transport between masses on fixed supports.

    Successive shortest paths with node potentials (Ahuja, Magnanti & Orlin,
    *Network Flows*, 1993) on the bipartite graph of the rows with nonzero
    supply and the columns with nonzero demand.  Each round runs a dense
    Dijkstra over reduced costs from every row with supply left until the
    cheapest path to a column with demand left is settled, then pushes the
    bottleneck mass along that path; the loop ends when no such path
    remains.  Integer masses on an integral cost matrix keep every quantity
    a Python int, so the value is exact; float masses run through the same
    loop in float arithmetic.
    """

    def __init__(self, cost: np.ndarray):
        cost = np.asarray(cost, dtype=float)
        if cost.ndim != 2:
            raise ValueError("cost must be a matrix")
        if not np.all(np.isfinite(cost)) or np.any(cost < 0):
            raise ValueError("costs must be finite and nonnegative")
        self.cost = cost
        self._cost_rows = cost.tolist()
        if np.array_equal(cost, np.floor(cost)):
            self._cost_rows = [[int(c) for c in row] for row in self._cost_rows]

    @staticmethod
    def _masses(mass, size: int, name: str) -> tuple[list, bool]:
        """The masses as a list of Python numbers, and whether they are integers."""
        arr = np.asarray(mass)
        if arr.shape != (size,):
            raise ValueError(f"{name} has shape {arr.shape}, but the cost needs ({size},)")
        exact = arr.dtype.kind in "iu"
        if not exact:
            arr = arr.astype(float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError(f"{name} must be finite and nonnegative")
        return arr.tolist(), exact

    def solve(self, p: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
        """Minimum transport cost and an optimal plan moving p onto q.

        The plan's row sums are ``p`` and its column sums are ``q``.  Raises
        ValueError when a mass does not match the cost shape or is negative,
        or when the totals differ: exactly for integer masses, by more than
        1e-9 relative for float ones.
        """
        n, m = self.cost.shape
        supply, exact_p = self._masses(p, n, "p")
        demand, exact_q = self._masses(q, m, "q")
        exact = exact_p and exact_q
        total_p, total_q = sum(supply), sum(demand)
        if abs(total_p - total_q) > (0 if exact else 1e-9 * max(total_p, total_q)):
            raise ValueError(f"p totals {total_p} but q totals {total_q}")
        cost = self._cost_rows
        rows = [i for i in range(n) if supply[i] > 0]
        cols = [j for j in range(m) if demand[j] > 0]
        flow = [[0] * m for _ in range(n)]
        # node potentials, pot_t that of a common sink behind every column
        # with demand left; they keep each residual arc's reduced cost >= 0
        pot_r, pot_c, pot_t = [0] * n, [0] * m, 0
        while any(supply[i] > 0 for i in rows) and any(demand[j] > 0 for j in cols):
            dist_r = [0 if supply[i] > 0 else math.inf for i in range(n)]
            dist_c = [math.inf] * m
            via_c: dict[int, int] = {}  # column <- row, by a forward arc
            via_r: dict[int, int] = {}  # row <- column, back along positive flow
            open_r, open_c = set(rows), set(cols)
            reach, end = math.inf, -1  # reduced distance to the sink, last column
            while open_r or open_c:
                i = min(open_r, key=dist_r.__getitem__, default=None)
                j = min(open_c, key=dist_c.__getitem__, default=None)
                if j is None or (i is not None and dist_r[i] <= dist_c[j]):
                    if dist_r[i] >= reach:
                        break
                    open_r.remove(i)
                    base = dist_r[i] + pot_r[i]
                    row = cost[i]
                    for k in open_c:
                        d = base + row[k] - pot_c[k]
                        if d < dist_c[k]:
                            dist_c[k], via_c[k] = d, i
                else:
                    if dist_c[j] >= reach:
                        break
                    open_c.remove(j)
                    base = dist_c[j] + pot_c[j]
                    if demand[j] > 0 and base - pot_t < reach:
                        reach, end = base - pot_t, j
                    for k in open_r:
                        if flow[k][j] > 0:
                            d = base - cost[k][j] - pot_r[k]
                            if d < dist_r[k]:
                                dist_r[k], via_r[k] = d, j
            # nodes still open when the sink settles are at least as far away
            for i in rows:
                pot_r[i] += min(dist_r[i], reach)
            for j in cols:
                pot_c[j] += min(dist_c[j], reach)
            pot_t += reach
            delta, steps, j = demand[end], [], end
            while True:
                i = via_c[j]
                back = via_r.get(i)
                steps.append((i, j, back))
                if back is None:
                    break
                delta = min(delta, flow[i][back])
                j = back
            delta = min(delta, supply[i])
            supply[i] -= delta
            demand[end] -= delta
            for i, j, back in steps:
                flow[i][j] += delta
                if back is not None:
                    flow[i][back] -= delta
        value = sum(cost[i][j] * flow[i][j] for i in rows for j in cols if flow[i][j])
        plan = np.array(flow, dtype=np.int64 if exact else float)
        return (value if exact else float(value)), plan


@dataclass(frozen=True)
class TransportPlan:
    """Optimal transport plan between two pattern distributions."""

    sources: tuple[DegreeSequence, ...]
    targets: tuple[DegreeSequence, ...]
    matrix: np.ndarray
    objective: float


def wasserstein(
    p: PatternDistribution,
    q: PatternDistribution,
    graph: SequenceGraph | None = None,
) -> tuple[float, TransportPlan]:
    """Wasserstein distance between two degree-sequence distributions.

    The ground metric is the one-line-edit distance.  Returns the distance
    together with an optimal plan; the plan's row sums recover ``p`` and its
    column sums recover ``q`` up to float rounding.
    """
    if graph is None:
        graph = shared_sequence_graph(max(p.max_lines, q.max_lines) + 2)
    cost = graph.distance_matrix(p.support, q.support)
    value, plan = TransportSolver(cost).solve(p.probabilities, q.probabilities)
    return value, TransportPlan(p.support, q.support, plan, value)

