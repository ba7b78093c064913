"""Growth model that generates outage patterns on a network.

Each pattern starts from one seed line, draws a target size from the Zipf
size model truncated at the network line count, then grows one adjacent line
at a time.  At every step the candidate lines split by whether they touch
the pattern at a bus of degree 1 or of degree 2 and higher; the degree-1
side is taken with probability ``p_one_plus`` when both sides are
available, and a line is drawn uniformly from the chosen side in sorted line
order.  Finally each multi-circuit line in the pattern picks up an extra
parallel circuit with probability ``p_circuits``.

Growth and calibration run on the network's integer ids, from the seed
line's draw to the degree sequence; bus names appear only when a grown
pattern is built for output.  The two sides are kept as sorted lists of
line ids and updated as each line joins, so a growth step costs about the
degree of the buses it touches, not a rebuild of the whole boundary;
heavy-tailed targets on large networks stay cheap.  Ids ascend in sorted
line order, so ``side[i]`` picks the same line as indexing a side rebuilt
and sorted by line on every step.

Pattern i of an ensemble draws from stream ``(seed, i)``, and every draw
is the package's own (``rng``).  Its first two draws, the seed line and the
target, are computed for a block of 1024 streams at once as uint64 array
arithmetic (:meth:`_Sampler.head`); growth and the circuit draws then go on
from there on the pattern's :class:`rng.Stream`.  Only the patterns that
draw again get a Stream: those with target 2 or more, and, when
``p_circuits`` is positive, the one-line patterns on a multi-circuit line,
whose one further draw is their circuit draw.  Every one-line pattern with
the same line and circuit outcome is one shared, immutable
:class:`GeneratedPattern`, and grown patterns without an extra circuit
share one empty set, so most of a light-tailed ensemble costs a list slot
per pattern.  Calibration keeps the streams of just the patterns with
target 3 or more, and with each grown pattern the interval of
``p_one_plus`` on which its draws fall the same way; an iterate regrows
only the patterns whose intervals miss its parameter.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CalibrationError
from .lines import Line, format_line
from .network import Network
from .patterns import DegreeSequence, Pattern, _branching_sums, _trusted_pattern, format_pattern
from .rng import _BLOCK, STREAMS, Stream, Words, _bounded_uint32, _next_double, _pcg64_next, _pcg64_states
from .zipf import ZipfModel


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the growth model.

    ``initial_weights`` optionally biases the seed-line draw; lines missing
    from the map get weight 0, and None means uniform over all lines.
    """

    size_model: ZipfModel
    p_one_plus: float
    p_circuits: float = 0.0
    initial_weights: Mapping[Line, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_one_plus <= 1.0:
            raise ValueError(f"p_one_plus must lie in [0, 1], got {self.p_one_plus}")
        if not 0.0 <= self.p_circuits <= 1.0:
            raise ValueError(f"p_circuits must lie in [0, 1], got {self.p_circuits}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, slots=True)
class GeneratedPattern:
    """One generated pattern plus its extra-circuit outcomes.

    Instances are immutable and may be shared: :func:`generate_ensemble`
    returns one object for all its one-line patterns on the same line with
    the same circuit outcome, and one empty ``extra_circuits`` set for all
    its patterns without an extra circuit.
    """

    pattern: Pattern
    extra_circuits: frozenset[Line]
    target_size: int
    achieved_size: int

    def __post_init__(self):
        if not self.extra_circuits <= self.pattern.lines:
            raise ValueError("extra circuits must be lines of the pattern")
        if self.achieved_size != len(self.pattern.lines):
            raise ValueError("achieved_size must equal the pattern line count")
        if self.achieved_size > self.target_size:
            raise ValueError("achieved_size cannot exceed target_size")

    @property
    def saturated(self) -> bool:
        """True when growth ran out of attachable lines before the target."""
        return self.achieved_size < self.target_size


class _Sampler:
    """Precomputed draw tables for one (network, config) pair."""

    def __init__(self, network: Network, config: GeneratorConfig):
        self.network = network
        self.config = config
        self.k_max = network.n_lines
        if config.initial_weights is None:
            self.cum_weights = None
        else:
            weights = np.zeros(network.n_lines)
            unknown = set(config.initial_weights) - network.line_set
            if unknown:
                raise ValueError(f"initial weights for lines outside the network: {sorted(unknown)[:3]}")
            for i, line in enumerate(network.lines):
                w = float(config.initial_weights.get(line, 0.0))
                if not 0 <= w < math.inf:
                    raise ValueError(f"initial weight for line {line} must be finite and nonnegative, got {w}")
                weights[i] = w
            total = weights.sum()
            if total <= 0:
                raise ValueError("initial weights sum to zero")
            self.cum_weights = np.cumsum(weights / total)

    def head(self, state: Words, inc: Words) -> _Head:
        """The first draws of a block of fresh streams: each one's seed line, then its target size.

        ``state`` and ``inc`` hold the streams' words as
        :func:`rng._pcg64_states` gives them.  A uniform seed line is the
        bounded draw on the first output, which keeps that output's high
        half; a weighted one bisects the first output's double.  The target
        bisects the second output's double.  A stream whose bounded draw
        rejects, and every stream of a one-line network, whose bounded draw
        consumes nothing, makes both draws on its :class:`rng.Stream`.
        """
        after, first = _pcg64_next(state, inc)
        after, second = _pcg64_next(after, inc)
        targets = self.config.size_model._sizes(_next_double(second), self.k_max)
        if self.cum_weights is not None:
            idx = np.searchsorted(self.cum_weights, _next_double(first), "right")
            return _Head(np.minimum(idx, self.k_max - 1), targets, after, inc, np.full(len(first), -1))
        line_ids, redo = _bounded_uint32(first, self.k_max)
        halves = (first >> np.uint64(32)).astype(np.int64)
        for i in np.flatnonzero(redo | (self.k_max == 1)).tolist():
            stream = Stream(_int_at(state, i), _int_at(inc, i))
            line_ids[i] = stream.integers(self.k_max)
            targets[i] = self.config.size_model._sizes(stream.random(), self.k_max)
            after[0][i], after[1][i] = divmod(stream.state, 1 << 64)
            halves[i] = stream.half
        return _Head(line_ids, targets, after, inc, halves)

    def heads(self, count: int) -> Iterator[_Head]:
        """:meth:`head` of streams ``(config.seed, i)``, i in [0, count), by block; ValueError past 2**32."""
        for lo in range(0, count, _BLOCK):
            yield self.head(*_pcg64_states(self.config.seed, lo, min(lo + _BLOCK, count)))


def _int_at(words: Words, i: int) -> int:
    """Entry i of a ``(hi, lo)`` pair of uint64 arrays as one 128-bit int."""
    return int(words[0][i]) << 64 | int(words[1][i])


@dataclass(frozen=True)
class _Head:
    """The first two draws of a block of streams, from :meth:`_Sampler.head`.

    Per stream: the seed line's network id, the target size, and the
    stream's state after both draws: the LCG state and increment as
    ``(hi, lo)`` uint64 words, and the kept 32-bit half or -1.
    """

    line_ids: np.ndarray
    targets: np.ndarray
    state: Words
    inc: Words
    halves: np.ndarray

    def streams(self, keep=slice(None)) -> list[Stream]:
        """The streams at indices ``keep`` (default all), each ready for its third draw."""
        s_hi, s_lo, i_hi, i_lo, halves = (a[keep].tolist() for a in (*self.state, *self.inc, self.halves))
        return [Stream(a << 64 | b, c << 64 | d, half) for a, b, c, d, half in zip(s_hi, s_lo, i_hi, i_lo, halves)]


def _grow(network: Network, first: int, target: int, p_one_plus: float, rng: Stream) -> tuple[set[int], float, float]:
    """Grow a connected set of line ids from line ``first`` toward ``target`` lines.

    A candidate is a network line outside the pattern that touches it.  It
    lies on the degree-1 side when one of its ends has pattern degree 1, and
    on the degree-2+ side when one has degree 2 or more, so it can lie on
    both.  Pattern degrees are kept by bus id, and each side is a sorted
    list of line ids; ids ascend in sorted line order, so ``side[i]`` is the
    i-th candidate in sorted line order.
    The sides are updated as each line joins: only the lines at a bus whose
    degree goes from 0 to 1 or from 1 to 2 change sides, so a step costs
    about the degree of its two buses plus a sorted insert or delete each.

    Draws ``u = rng.random()`` only when both sides are non-empty, takes the
    degree-1 side when ``u < p_one_plus``, then draws a uniform index into
    the chosen side.  Stops early only if both sides are empty, which on a
    connected network means the pattern already covers every line.

    Returns the grown line ids and the interval ``(lo, hi]`` of parameters that
    grow them the same way: ``lo`` is the largest ``u`` that chose side 1 and
    ``hi`` the smallest that chose side 2 (-inf and +inf when there are
    none).  For every ``p`` in it each comparison comes out the same, so the
    draws, the lines and the stream's final state are those at
    ``p_one_plus``.
    """
    ends = network.ends
    incident = network.incident
    grown: set[int] = set()
    degrees: dict[int, int] = {}
    # per candidate id, its ends of pattern degree 1; degrees only rise, so
    # a candidate with an end of degree >= 2 keeps one until it joins
    ends_at_1: dict[int, int] = {}
    on_side2: set[int] = set()
    side1: list[int] = []
    side2: list[int] = []
    line_id = first
    lo, hi = -math.inf, math.inf
    while True:
        grown.add(line_id)
        if len(grown) >= target:
            break
        if ends_at_1.get(line_id):
            del side1[bisect_left(side1, line_id)]
        if line_id in on_side2:
            del side2[bisect_left(side2, line_id)]
        for bus in ends[line_id]:
            degree = degrees.get(bus, 0)
            degrees[bus] = degree + 1
            if degree == 0:
                for other in incident[bus]:
                    if other not in grown:
                        count = ends_at_1.get(other, 0)
                        ends_at_1[other] = count + 1
                        if not count:
                            insort(side1, other)
            elif degree == 1:
                for other in incident[bus]:
                    if other not in grown:
                        count = ends_at_1[other] - 1
                        ends_at_1[other] = count
                        if not count:
                            del side1[bisect_left(side1, other)]
                        if other not in on_side2:
                            on_side2.add(other)
                            insort(side2, other)
        if side1 and side2:
            u = rng.random()
            if u < p_one_plus:
                side = side1
                if u > lo:
                    lo = u
            else:
                side = side2
                if u < hi:
                    hi = u
        elif side1:
            side = side1
        elif side2:
            side = side2
        else:
            break
        line_id = side[int(rng.integers(len(side)))]
    return grown, lo, hi


# The extra circuits of every generated pattern that has none.
_NO_LINES: frozenset[Line] = frozenset()


def _with_circuits(sampler: _Sampler, ids: set[int], target: int, rng: Stream) -> GeneratedPattern:
    """A grown set of line ids as a GeneratedPattern; draws a double per multi-circuit line, in line order."""
    network, p = sampler.network, sampler.config.p_circuits
    lines = [network.lines[i] for i in sorted(ids)]
    extra = [line for line in lines if p > 0.0 and network.multiplicity[line] >= 2 and rng.random() < p]
    return GeneratedPattern(
        pattern=_trusted_pattern(frozenset(lines)),
        extra_circuits=frozenset(extra) if extra else _NO_LINES,
        target_size=target,
        achieved_size=len(lines),
    )


def _one_line(network: Network, line_id: int, extra: bool) -> GeneratedPattern:
    """The one-line pattern on line ``line_id``, with its extra circuit or without."""
    lines = frozenset((network.lines[line_id],))
    return GeneratedPattern(_trusted_pattern(lines), lines if extra else _NO_LINES, 1, 1)


def generate_ensemble(network: Network, config: GeneratorConfig, count: int) -> list[GeneratedPattern]:
    """Generate ``count`` patterns in one process, pattern i drawn from stream (seed, i) alone.

    Only patterns that draw again get a Stream, and equal one-line patterns
    are one shared object.  Raises ValueError for a count outside
    [0, 2**32), the streams one seed has.
    """
    if not 0 <= count < STREAMS:
        raise ValueError(f"count must lie in [0, 2**32), got {count}")
    sampler = _Sampler(network, config)
    p = config.p_circuits
    # per line id, whether a one-line pattern on it makes a circuit draw
    draws = np.array([p > 0.0 and network.multiplicity[line] >= 2 for line in network.lines])
    singles: dict[tuple[int, bool], GeneratedPattern] = {}
    out = []
    for head in sampler.heads(count):
        needs = (head.targets >= 2) | draws[head.line_ids]
        streams = iter(head.streams(np.flatnonzero(needs)))
        for line_id, target, need in zip(head.line_ids.tolist(), head.targets.tolist(), needs.tolist()):
            rng = next(streams) if need else None
            if target >= 2:
                ids, _, _ = _grow(network, line_id, target, config.p_one_plus, rng)
                out.append(_with_circuits(sampler, ids, target, rng))
                continue
            key = (line_id, rng is not None and rng.random() < p)
            single = singles.get(key)
            if single is None:
                single = singles[key] = _one_line(network, *key)
            out.append(single)
    return out


@dataclass(frozen=True)
class CalibrationStep:
    """One evaluation of the generated branching probability; ``regrown`` counts the patterns it grew anew."""

    index: int
    p_one_plus: float
    generated_value: float
    low: float
    high: float
    regrown: int


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of calibrating ``p_one_plus`` to an observed target."""

    p_one_plus: float
    generated_value: float
    target: float
    tolerance: float
    converged: bool
    steps: tuple[CalibrationStep, ...]


_Seed = tuple[int, int, Stream]


def _seeds(network: Network, config: GeneratorConfig, count: int) -> tuple[Counter, list[_Seed]]:
    """The first ``count`` patterns: the degree-sequence counts of those with target 1 or 2, and the seeds of the rest.

    Targets 1 and 2 never draw against p_one_plus or count in the branching
    estimator, and they give ``(1, 1)`` and ``(2, 1, 1)``: growth on a
    connected network of two or more lines always reaches a second line, and
    a one-line network caps every target at 1.  A seed is the seed line's id,
    target and stream after both draws of a pattern with target 3 or more.
    """
    sampler = _Sampler(network, config)
    small: Counter[DegreeSequence] = Counter()
    seeds = []
    for head in sampler.heads(count):
        small[(1, 1)] += int(np.count_nonzero(head.targets == 1))
        small[(2, 1, 1)] += int(np.count_nonzero(head.targets == 2))
        keep = np.flatnonzero(head.targets >= 3)
        seeds += zip(head.line_ids[keep].tolist(), head.targets[keep].tolist(), head.streams(keep))
    return small, seeds


_Grown = tuple[float, float, DegreeSequence]


def _regrow(network: Network, p_one_plus: float, seeds: list[_Seed]) -> list[_Grown]:
    """Each seeded pattern grown at ``p_one_plus`` from a copy of its stream, as ``(lo, hi, degree sequence)``."""
    ends = network.ends
    out = []
    for first, target, stream in seeds:
        ids, lo, hi = _grow(network, first, target, p_one_plus, stream.copy())
        degrees = Counter(bus for i in ids for bus in ends[i])
        out.append((lo, hi, tuple(sorted(degrees.values(), reverse=True))))
    return out


def _ensemble_counts(network: Network, config: GeneratorConfig, count: int) -> Counter[DegreeSequence]:
    """Positive degree-sequence counts of :func:`generate_ensemble`'s patterns; circuits change none, so none is drawn."""
    small, seeds = _seeds(network, config, count)
    return small + Counter(seq for _, _, seq in _regrow(network, config.p_one_plus, seeds))


def calibrate_p_one_plus(
    network: Network,
    config: GeneratorConfig,
    target: float,
    *,
    ensemble_size: int = 1_000_000,
    tolerance: float = 0.005,
    max_iterations: int = 20,
) -> CalibrationResult:
    """Find the ``p_one_plus`` whose generated value matches the target.

    Bisection on [0, 1].  Every iterate measures the ensemble that
    :func:`generate_ensemble` would give at its parameter, from the same
    per-pattern streams (config.seed is held fixed), so the generated value
    is a deterministic, nearly monotone function of the parameter and the
    bisection is not chasing sampling noise.  With these common random
    numbers only patterns of target size 3 or more depend on the parameter
    or count in the estimator: their seed lines, targets and streams are
    drawn once.  Each growth of such a pattern, from a copy of its cached
    stream, is kept with the interval of parameters that grow it the same
    way (:func:`_grow`), and an iterate regrows only the patterns for which
    no kept interval holds its parameter; the rest are reused exactly.
    Bisection stops unconverged once the midpoint rounds to an end of its
    bracket.

    Raises ValueError for a target outside [0, 1], an ensemble_size outside
    [1, 2**32), a max_iterations below 1, or a tolerance that is negative or
    NaN.  Raises CalibrationError when the target lies outside what the
    network can produce at the endpoints, or when no generated pattern ever
    has 3 or more lines.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    if not 1 <= ensemble_size < STREAMS:
        raise ValueError(f"ensemble_size must lie in [1, 2**32), got {ensemble_size}")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    _, seeds = _seeds(network, config, ensemble_size)
    # per seed, one (lo, hi, sequence) per growth path met so far; paths
    # that differ have disjoint intervals, so at most one holds any p
    grown: list[list[_Grown]] = [[] for _ in seeds]

    def measure(p: float) -> tuple[float, int]:
        found = [next((seq for lo, hi, seq in entries if lo < p <= hi), None) for entries in grown]
        misses = [i for i, seq in enumerate(found) if seq is None]
        for i, entry in zip(misses, _regrow(network, p, [seeds[i] for i in misses])):
            grown[i].append(entry)
            found[i] = entry[2]
        numerator, denominator = _branching_sums(Counter(found))
        if denominator == 0:
            raise CalibrationError(
                "no generated pattern had 3 or more lines; the network or "
                "size model cannot express the branching statistic",
                target=target,
            )
        return numerator / denominator, len(misses)

    return _bisect(measure, target, tolerance, max_iterations)


def _bisect(
    measure: Callable[[float], tuple[float, int]], target: float, tolerance: float, max_iterations: int
) -> CalibrationResult:
    """Bisect [0, 1] for a p with measure(p) within tolerance of target, recording every evaluation.

    ``measure`` returns the value at p and the number of patterns it
    regrew.  Stops unconverged, at the last evaluation, once the midpoint
    rounds to an end of the bracket: that p has been measured already.
    """
    steps: list[CalibrationStep] = []

    def evaluate(p: float, low: float, high: float) -> float:
        value, regrown = measure(p)
        steps.append(CalibrationStep(len(steps), p, value, low, high, regrown))
        return value

    def result(p: float, value: float, converged: bool) -> CalibrationResult:
        return CalibrationResult(p, value, target, tolerance, converged, tuple(steps))

    g_low = evaluate(0.0, 0.0, 1.0)
    if abs(g_low - target) <= tolerance:
        return result(0.0, g_low, True)
    g_high = evaluate(1.0, 0.0, 1.0)
    if abs(g_high - target) <= tolerance:
        return result(1.0, g_high, True)
    if not min(g_low, g_high) < target < max(g_low, g_high):
        raise CalibrationError(
            f"target {target:.4f} is unreachable: generated value spans "
            f"[{min(g_low, g_high):.4f}, {max(g_low, g_high):.4f}] over p_one_plus in [0, 1]",
            target=target,
            low=g_low,
            high=g_high,
        )
    increasing = g_high > g_low
    low, high = 0.0, 1.0
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        if mid in (low, high):
            break
        g_mid = evaluate(mid, low, high)
        if abs(g_mid - target) <= tolerance:
            return result(mid, g_mid, True)
        if (g_mid < target) == increasing:
            low = mid
        else:
            high = mid
    return result(steps[-1].p_one_plus, steps[-1].generated_value, False)


def format_calibration_trace(calibration: CalibrationResult) -> str:
    """Structured text form of a calibration run."""
    lines = [
        f"target: {calibration.target:.6f}",
        f"tolerance: {calibration.tolerance:.6f}",
    ]
    for step in calibration.steps:
        lines.append(
            f"step {step.index}: p_one_plus={step.p_one_plus:.6f} "
            f"generated={step.generated_value:.6f} "
            f"bracket=[{step.low:.6f},{step.high:.6f}]"
        )
    lines.append(f"calibrated_p_one_plus: {calibration.p_one_plus:.6f}")
    lines.append(f"generated_value: {calibration.generated_value:.6f}")
    lines.append(f"converged: {str(calibration.converged).lower()}")
    return "\n".join(lines) + "\n"


def format_generated_pattern(generated: GeneratedPattern) -> str:
    """Pattern text plus a ``|+FROM-TO`` suffix per extra circuit."""
    text = format_pattern(generated.pattern.lines)
    for line in sorted(generated.extra_circuits):
        text += f"|+{format_line(line)}"
    return text


def write_generated_patterns(path, generated: Iterable[GeneratedPattern]) -> None:
    """Write one generated pattern per line in input order.

    A one-line pattern's row is formatted once per line and circuit outcome.
    """
    rows: dict[tuple[frozenset[Line], bool], str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for gp in generated:
            if gp.achieved_size > 1:
                fh.write(format_generated_pattern(gp) + "\n")
                continue
            key = (gp.pattern.lines, not gp.extra_circuits)
            row = rows.get(key)
            if row is None:
                row = rows[key] = format_generated_pattern(gp) + "\n"
            fh.write(row)
