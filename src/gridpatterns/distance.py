"""Distances between degree sequences and between pattern distributions.

Degree sequences of connected patterns form a graph: two sequences are
adjacent when one arises from the other by adding or removing a single line.
The edit distance between two sequences is the shortest path length in that
graph, and the distance between two pattern sets is the Wasserstein distance
between their empirical degree-sequence distributions under that ground
metric, computed exactly as a minimum-cost flow by successive shortest paths.
Validity verdicts and neighbour tuples depend on the sequence alone, so they
are memoized process-wide; pair distances are memoized per
:class:`SequenceGraph`.
"""

from __future__ import annotations

import collections
import functools
import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateDataError
from .patterns import DegreeSequence, _sequence_counts, check_degree_sequence, line_count


@functools.cache
def _valid_canonical(values: DegreeSequence) -> bool:
    """Whether some connected simple graph has the nonincreasing positive degrees ``values``.

    Erdős–Gallai decides simple graphicality; a connected realization also
    needs a degree sum of at least 2*(bus count - 1), and that suffices, as
    edge swaps that merge components keep the degrees.  Candidates recur
    across many parent sequences, so the verdict is memoized process-wide.
    """
    total = sum(values)
    if total % 2 or total < 2 * (len(values) - 1):
        return False
    # Erdős–Gallai: the k largest degrees sum to at most k*(k-1) plus
    # min(d, k) over the other degrees d.  Checking the k that end a run of
    # equal degrees suffices (Tripathi & Vijay, Discrete Math. 265, 2003).
    runs = list(collections.Counter(values).items())  # (degree, count), degree falling
    k = head = 0
    for i, (degree, count) in enumerate(runs):
        k += count
        head += degree * count
        if head > k * (k - 1) + sum(min(d, k) * c for d, c in runs[i + 1 :]):
            return False
    return True


def _moves(canon: DegreeSequence, step: int) -> tuple[DegreeSequence, ...]:
    """Valid degree sequences one line away from a canonical one, sorted.

    ``step`` is +1 to add a line and -1 to remove one.  The move shifts the
    degrees of the line's two end buses by ``step``: any two buses of the
    sequence, or for an addition one bus and a fresh bus of degree 0; a bus
    lowered to 0 leaves the sequence.  Pairs are taken over distinct degree
    values, not positions, which gives the same sequences and keeps long
    near-uniform sequences cheap.  A line whose two ends both have degree 1
    after an addition or before a removal is a component of its own, so
    that pair is skipped; the other candidates failing the validity test
    are discarded.  The two directions are exact inverses.
    """
    counts = collections.Counter(canon)
    values = sorted(counts) if step < 0 else [0, *sorted(counts)]
    candidates: set[DegreeSequence] = set()
    for i, u in enumerate(values):
        for v in values[i:]:
            if max(u, u + step) == max(v, v + step) == 1:
                continue
            if u == v and counts[u] < 2:
                continue
            new = counts.copy()
            new[u] -= 1
            new[v] -= 1
            new[u + step] += 1
            new[v + step] += 1
            candidates.add(tuple(d for d in sorted(new, reverse=True) if d > 0 for _ in range(new[d])))
    return tuple(sorted(c for c in candidates if _valid_canonical(c)))


@functools.cache
def _neighbors(canon: DegreeSequence) -> tuple[DegreeSequence, ...]:
    """Every one-line-edit neighbour of a canonical valid sequence, additions first."""
    return _moves(canon, 1) + _moves(canon, -1)


def _check_node(seq: Sequence[int]) -> DegreeSequence:
    """The canonical form of a sequence, or ValueError if it is not a node of the graph."""
    canon = check_degree_sequence(seq)
    if not _valid_canonical(canon):
        raise ValueError(f"{canon} is not a connected-graphical degree sequence")
    return canon


def sequence_neighbors(seq: Sequence[int]) -> set[DegreeSequence]:
    """All one-line-edit neighbors of a connected-graphical sequence."""
    return set(_neighbors(_check_node(seq)))


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


def _tight_walk(a: DegreeSequence, b: DegreeSequence, lower: int) -> bool:
    """Whether ``lower`` tight moves lead from ``a`` to ``b``.

    Each step goes to the first neighbour whose alignment bound to ``b`` is
    one below the current node's.  Reaching ``b`` in ``lower`` steps is a
    real path as long as a lower bound on every path, so ``lower`` is then
    the exact distance.  False when some step finds no such neighbour.
    """
    node = a
    for left in range(lower - 1, -1, -1):
        for nb in _neighbors(node):
            if _alignment_bound(nb, b) == left:
                node = nb
                break
        else:
            return False
    return node == b


def _bounded_search(a, b, lower, upper) -> int:
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


class SequenceGraph:
    """Degree-sequence edit distances over the whole, uncapped graph.

    The nodes are every connected-graphical degree sequence, so a distance
    is the true one-line-edit metric.  Each distance starts from the
    counting lower bound of :func:`_alignment_bound`.  A walk of tight
    moves, each lowering the bound to the target by exactly one, then tries
    to reach the target in that many steps; when it does, the bound is the
    distance (:func:`_tight_walk`).  Only when a step finds no tight move
    does a bounded best-first search on depth plus bound settle the pair,
    with ties going to the deeper node.  ``settled_by`` counts the pairs
    each of the two settled, under ``"walk"`` and ``"search"``.  Pair
    results are memoized on the instance; validity verdicts and neighbour
    tuples depend on the sequence alone, so they are memoized process-wide
    and shared by every instance.
    """

    def __init__(self):
        self._pairs: dict[tuple[DegreeSequence, DegreeSequence], int] = {}
        self.settled_by: collections.Counter[str] = collections.Counter()

    def distance(self, a: Sequence[int], b: Sequence[int]) -> int:
        """Shortest one-line-edit path length between two sequences."""
        return self._distance(_check_node(a), _check_node(b))

    def _distance(self, ca: DegreeSequence, cb: DegreeSequence) -> int:
        if ca == cb:
            return 0
        key = (ca, cb) if ca <= cb else (cb, ca)
        hit = self._pairs.get(key)
        if hit is None:
            lower = _alignment_bound(ca, cb)
            if _tight_walk(ca, cb, lower):
                hit = lower
                self.settled_by["walk"] += 1
            else:
                # removals down to a single line and additions back up form
                # a genuine path, so la + lb - 2 always bounds above
                hit = _bounded_search(ca, cb, lower, (sum(ca) + sum(cb)) // 2 - 2)
                self.settled_by["search"] += 1
            self._pairs[key] = hit
        return hit

    def distance_matrix(
        self, sources: Sequence[Sequence[int]], targets: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """Matrix of pairwise distances over the two supports."""
        src_canon = [_check_node(s) for s in sources]
        tgt_canon = [_check_node(t) for t in targets]
        out = np.zeros((len(src_canon), len(tgt_canon)), dtype=float)
        for i, src in enumerate(src_canon):
            for j, tgt in enumerate(tgt_canon):
                out[i, j] = self._distance(src, tgt)
        return out


# One process-wide graph keeps its caches warm across comparisons.  It is not
# safe for concurrent mutation from threads; parallel evaluation uses
# processes, each with its own copy.
_GRAPH = SequenceGraph()


def sequence_distance(a: Sequence[int], b: Sequence[int]) -> int:
    """Edit distance between two degree sequences: the true shortest path
    length in the uncapped one-line-edit graph (see :func:`_bounded_search`
    for why the search ends)."""
    return _GRAPH.distance(a, b)


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
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        order = sorted(range(len(support)), key=lambda i: (line_count(support[i]), support[i]))
        object.__setattr__(self, "support", tuple(support[i] for i in order))
        object.__setattr__(self, "probabilities", probs[order])

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
    counts = _sequence_counts(items)
    if not counts:
        raise DegenerateDataError("no patterns to build a distribution from")
    return PatternDistribution(tuple(counts), np.array(list(counts.values())) / counts.total())


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
        self._rows, self._pot_r = rows, pot_r
        return (value if exact else float(value)), plan

    def _potential(self) -> np.ndarray:
        """An optimal dual potential of the last solve, over the columns.

        The c-transform ``f_k = min over rows i with supply of pot_r[i] +
        c[i, k]`` is 1-Lipschitz under a metric cost, so ``|f . (p' - q')|``
        bounds the cost of moving any ``p'`` onto ``q'`` from below, with
        equality ``f . (q - p)`` on the last solve's masses (Kantorovich
        duality; Peyre & Cuturi, arXiv:1803.00567, section 3).  Shifted to
        ``f[0] = 0``, so ``|f|`` stays within the largest cost; integer on an
        integral cost, and zeros when no row had supply.
        """
        cost, rows, pot_r = self._cost_rows, self._rows, self._pot_r
        if not rows:
            return np.zeros(self.cost.shape[1], dtype=np.int64)
        f = np.array([min(pot_r[i] + cost[i][k] for i in rows) for k in range(self.cost.shape[1])])
        return f - f[0]


def _north_west_cost(cost: np.ndarray, p: np.ndarray, q: np.ndarray) -> int:
    """Cost of the north-west-corner plan moving integer ``p`` onto ``q`` of
    equal total, an upper bound on the optimum: the unit of mass at cumulative
    position ``t`` goes from the first row whose cumulative supply reaches
    ``t`` to the first column whose cumulative demand does."""
    ends_p, ends_q = np.cumsum(p), np.cumsum(q)
    ends = np.sort(np.concatenate((ends_p, ends_q)))  # a repeated end moves no mass
    cells = cost[np.searchsorted(ends_p, ends), np.searchsorted(ends_q, ends)]
    return int(np.diff(ends, prepend=0) @ cells)


@dataclass(frozen=True)
class TransportPlan:
    """Optimal transport plan between two pattern distributions."""

    sources: tuple[DegreeSequence, ...]
    targets: tuple[DegreeSequence, ...]
    matrix: np.ndarray
    objective: float


def wasserstein(p: PatternDistribution, q: PatternDistribution) -> tuple[float, TransportPlan]:
    """Wasserstein distance between two degree-sequence distributions.

    The ground metric is the uncapped one-line-edit distance of
    :func:`sequence_distance`.  Returns the distance together with an
    optimal plan; the plan's row sums recover ``p`` and its column sums
    recover ``q`` up to float rounding.
    """
    cost = _GRAPH.distance_matrix(p.support, q.support)
    value, plan = TransportSolver(cost).solve(p.probabilities, q.probabilities)
    return value, TransportPlan(p.support, q.support, plan, value)

