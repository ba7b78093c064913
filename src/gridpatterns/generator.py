"""Growth model that generates outage patterns on a network.

Each pattern starts from one seed line, draws a target size from the Zipf
size model truncated at the network line count, then grows one adjacent line
at a time.  At every step the candidate lines split by whether they touch
the pattern at a bus of degree 1 or of degree 2 and higher; the degree-1
side is taken with probability ``p_one_plus`` when both sides are
available, and a line is drawn uniformly from the chosen side in sorted line
order.  Finally each multi-circuit line in the pattern picks up an extra
parallel circuit with probability ``p_circuits``.

The two sides are kept as sorted lists of network line ids and updated as
each line joins, so a growth step costs about the degree of the buses it
touches, not a rebuild of the whole boundary; heavy-tailed targets on large
networks stay cheap.  Ids ascend in sorted line order, so ``side[i]`` picks
the same line as indexing a side rebuilt and sorted by line on every step.

Pattern i of an ensemble draws from stream ``(seed, i)``.  Its first two
draws, the seed line and the target, are computed for a block of 1024
streams at once as uint64 array arithmetic (:meth:`_Sampler.head`, on the
PCG64 helpers of ``rng``), and so is the circuit draw of a one-line
pattern.  Most patterns at realistic exponents are one line, and they never
touch a Generator; only a pattern that grows has its state set on one
reused Generator, after its first two draws.  Calibration keeps the states
of just the patterns with target 3 or more.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CalibrationError, InputFormatError
from .lines import Line, format_line, parse_line
from .network import Network
from .parallel import index_chunks, pool_size, process_pool, run_all
from .patterns import (
    Pattern,
    _trusted_pattern,
    degree_sequence,
    format_pattern,
    n_one_plus,
    p_one_plus_observed,
    parse_pattern,
)
from .rng import _BLOCK, Words, _bounded_uint32, _next_double, _pcg64_next, _pcg64_states, _restore, _saved
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


@dataclass(frozen=True)
class GeneratedPattern:
    """One generated pattern plus its extra-circuit outcomes."""

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
                if w < 0:
                    raise ValueError(f"negative initial weight for line {line}")
                weights[i] = w
            total = weights.sum()
            if total <= 0:
                raise ValueError("initial weights sum to zero")
            self.cum_weights = np.cumsum(weights / total)

    def initial_line(self, rng: np.random.Generator) -> Line:
        if self.cum_weights is None:
            return self.network.lines[int(rng.integers(self.k_max))]
        idx = int(np.searchsorted(self.cum_weights, rng.random(), "right"))
        return self.network.lines[min(idx, self.k_max - 1)]

    def seed(self, rng: np.random.Generator) -> tuple[Line, int]:
        """The first draws of every pattern: its seed line, then its target size."""
        first = self.initial_line(rng)
        return first, self.config.size_model.sample_size(rng, self.k_max)

    def head(self, state: Words, inc: Words) -> _Head:
        """:meth:`seed` on a block of fresh PCG64 streams at once.

        ``state`` and ``inc`` hold the streams' words as
        :func:`rng._pcg64_states` gives them.  A uniform seed line is numpy's
        bounded draw on the first output, which leaves that output's high
        half buffered; a weighted one bisects the first output's double.
        The target bisects the second output's double.  A stream whose
        bounded draw rejects, and every stream of a one-line network, whose
        uniform draw consumes nothing, runs through :meth:`seed` on a
        Generator instead, so its draws and state stay numpy's.
        """
        after, first = _pcg64_next(state, inc)
        after, second = _pcg64_next(after, inc)
        targets = self.config.size_model._sizes(_next_double(second), self.k_max)
        if self.cum_weights is None:
            line_ids, redo = _bounded_uint32(first, self.k_max)
            redo |= self.k_max == 1
            has_uint32, uinteger = np.ones_like(first), first >> np.uint64(32)
        else:
            idx = np.searchsorted(self.cum_weights, _next_double(first), "right")
            line_ids, redo = np.minimum(idx, self.k_max - 1), np.zeros(len(first), bool)
            has_uint32, uinteger = np.zeros_like(first), np.zeros_like(first)
        if redo.any():
            rng = np.random.Generator(np.random.PCG64())
            for i in np.flatnonzero(redo).tolist():
                _restore(rng, (_int_at(state, i), _int_at(inc, i), 0, 0))
                line, targets[i] = self.seed(rng)
                line_ids[i] = self.network.line_ids[line]
                words, _, has_uint32[i], uinteger[i] = _saved(rng)
                after[0][i], after[1][i] = divmod(words, 1 << 64)
        return _Head(line_ids, targets, after, inc, has_uint32, uinteger)

    def heads(self, start: int, stop: int) -> Iterator[_Head]:
        """:meth:`head` of the streams ``(config.seed, i)`` for i in [start, stop), one block at a time."""
        for lo in range(start, stop, _BLOCK):
            yield self.head(*_pcg64_states(self.config.seed, lo, min(lo + _BLOCK, stop)))


def _int_at(words: Words, i: int) -> int:
    """Entry i of a ``(hi, lo)`` pair of uint64 arrays as one 128-bit int."""
    return int(words[0][i]) << 64 | int(words[1][i])


@dataclass(frozen=True)
class _Head:
    """The first two draws of a block of streams, from :meth:`_Sampler.head`.

    Per stream: the seed line's network id, the target size, and the
    stream's full PCG64 state after both draws, that is, the LCG state and
    increment as ``(hi, lo)`` uint64 words and numpy's buffered 32-bit half
    as a flag and a value.
    """

    line_ids: np.ndarray
    targets: np.ndarray
    state: Words
    inc: Words
    has_uint32: np.ndarray
    uinteger: np.ndarray

    def saved(self, i: int) -> tuple[int, int, int, int]:
        """Stream i's state in the form of :func:`rng._saved`."""
        return _int_at(self.state, i), _int_at(self.inc, i), int(self.has_uint32[i]), int(self.uinteger[i])


def _grow(network: Network, first: Line, target: int, p_one_plus: float, rng) -> set[Line]:
    """Grow a connected line set from ``first`` toward ``target`` lines.

    A candidate is a network line outside the pattern that touches it.  It
    lies on the degree-1 side when one of its ends has pattern degree 1, and
    on the degree-2+ side when one has degree 2 or more, so it can lie on
    both.  Each side is a sorted list of line ids, and ids ascend in sorted
    line order, so ``side[i]`` is the i-th candidate in sorted line order.
    The sides are updated as each line joins: only the lines at a bus whose
    degree goes from 0 to 1 or from 1 to 2 change sides, so a step costs
    about the degree of its two buses plus a sorted insert or delete each.

    Draws ``rng.random() < p_one_plus`` only when both sides are non-empty,
    then a uniform index into the chosen side.  Stops early only if both
    sides are empty, which on a connected network means the pattern already
    covers every line.
    """
    lines = network.lines
    incident = network.incident_ids
    grown: set[int] = set()
    degrees: dict[str, int] = {}
    # per candidate id, its ends of pattern degree 1; degrees only rise, so
    # a candidate with an end of degree >= 2 keeps one until it joins
    ends_at_1: dict[int, int] = {}
    on_side2: set[int] = set()
    side1: list[int] = []
    side2: list[int] = []
    line_id = network.line_ids[first]
    while True:
        grown.add(line_id)
        if ends_at_1.get(line_id):
            del side1[bisect_left(side1, line_id)]
        if line_id in on_side2:
            del side2[bisect_left(side2, line_id)]
        for bus in lines[line_id]:
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
        if len(grown) >= target:
            break
        if side1 and side2:
            side = side1 if rng.random() < p_one_plus else side2
        elif side1:
            side = side1
        elif side2:
            side = side2
        else:
            break
        line_id = side[int(rng.integers(len(side)))]
    return {lines[i] for i in grown}


def generate_pattern(network: Network, config: GeneratorConfig, rng: np.random.Generator) -> GeneratedPattern:
    """Generate a single pattern, drawing everything from ``rng``."""
    sampler = _Sampler(network, config)
    # Calibration and ensembles compute these two draws in bulk and grow
    # from the stream state after them, so nothing before them may depend
    # on p_one_plus.
    first, target = sampler.seed(rng)
    lines = _grow(network, first, target, config.p_one_plus, rng)
    return _with_circuits(sampler, lines, target, rng.random)


def _with_circuits(sampler: _Sampler, lines: set[Line], target: int, draw: Callable[[], float]) -> GeneratedPattern:
    """A grown line set as a GeneratedPattern; ``draw()`` gives a double per multi-circuit line, in line order."""
    config = sampler.config
    extra: list[Line] = []
    if config.p_circuits > 0.0:
        for line in sorted(lines):
            if sampler.network.multiplicity.get(line, 1) >= 2 and draw() < config.p_circuits:
                extra.append(line)
    return GeneratedPattern(
        pattern=_trusted_pattern(frozenset(lines)),
        extra_circuits=frozenset(extra),
        target_size=target,
        achieved_size=len(lines),
    )


def _ensemble_chunk(network: Network, config: GeneratorConfig, start: int, stop: int) -> list[GeneratedPattern]:
    sampler = _Sampler(network, config)
    rng = np.random.Generator(np.random.PCG64())
    out = []
    for head in sampler.heads(start, stop):
        # a one-line pattern's only further draw, its circuit draw, is the
        # double of the stream's third output
        circuit_u = _next_double(_pcg64_next(head.state, head.inc)[1]).tolist()
        for i, (line_id, target) in enumerate(zip(head.line_ids.tolist(), head.targets.tolist())):
            first = network.lines[line_id]
            if target == 1:
                lines, draw = {first}, lambda u=circuit_u[i]: u
            else:
                _restore(rng, head.saved(i))
                lines, draw = _grow(network, first, target, config.p_one_plus, rng), rng.random
            out.append(_with_circuits(sampler, lines, target, draw))
    return out


def generate_ensemble(
    network: Network, config: GeneratorConfig, count: int, workers: int = 1
) -> list[GeneratedPattern]:
    """Generate ``count`` patterns, pattern i drawn from stream (seed, i).

    The per-pattern streams make the result identical for any ``workers``
    value; workers only change how the index range is divided.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return []
    processes = pool_size(workers, count)
    tasks = [(network, config, lo, hi) for lo, hi in index_chunks(count, processes)]
    with process_pool(processes) as pool:
        parts = run_all(pool, _ensemble_chunk, tasks)
    return [generated for part in parts for generated in part]


def measure_p_one_plus_generated(generated: Iterable[GeneratedPattern]) -> float | None:
    """Branching-probability estimate over generated patterns.

    Uses the same pooled estimator as for observed patterns, so calibration
    compares like with like.  Returns None when no generated pattern has 3
    or more lines.
    """
    return p_one_plus_observed(g.pattern for g in generated)


@dataclass(frozen=True)
class CalibrationStep:
    """One evaluation of the generated branching probability."""

    index: int
    p_one_plus: float
    generated_value: float
    low: float
    high: float


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of calibrating ``p_one_plus`` to an observed target."""

    p_one_plus: float
    generated_value: float
    target: float
    tolerance: float
    converged: bool
    steps: tuple[CalibrationStep, ...]


_Seed = tuple[Line, int, tuple[int, int, int, int]]


def _seed_chunk(network: Network, config: GeneratorConfig, start: int, stop: int) -> list[_Seed]:
    """Seed line, target and stream state after both, for patterns in [start, stop) with target >= 3.

    A target of 1 or 2 never draws against p_one_plus and never counts in
    the branching estimator, so calibration can drop those patterns.
    """
    sampler = _Sampler(network, config)
    out = []
    for head in sampler.heads(start, stop):
        for i in np.flatnonzero(head.targets >= 3).tolist():
            out.append((network.lines[int(head.line_ids[i])], int(head.targets[i]), head.saved(i)))
    return out


def _branching_counts(network: Network, p_one_plus: float, seeds: list[_Seed]) -> tuple[int, int]:
    """Regrow cached patterns; sum (n_one_plus - 1) and (lines - 2) over those of 3 or more lines."""
    rng = np.random.Generator(np.random.PCG64())
    numerator = denominator = 0
    for first, target, state in seeds:
        _restore(rng, state)
        lines = _grow(network, first, target, p_one_plus, rng)
        if len(lines) >= 3:
            numerator += n_one_plus(degree_sequence(lines)) - 1
            denominator += len(lines) - 2
    return numerator, denominator


def calibrate_p_one_plus(
    network: Network,
    config: GeneratorConfig,
    target: float,
    *,
    ensemble_size: int = 1_000_000,
    tolerance: float = 0.005,
    max_iterations: int = 20,
    workers: int = 1,
) -> CalibrationResult:
    """Find the ``p_one_plus`` whose generated value matches the target.

    Bisection on [0, 1].  Every iterate measures the ensemble that
    :func:`generate_ensemble` would give at its parameter, from the same
    per-pattern streams (config.seed is held fixed), so the generated value
    is a deterministic, nearly monotone function of the parameter and the
    bisection is not chasing sampling noise.  With these common random
    numbers only patterns of target size 3 or more depend on the parameter
    or count in the estimator: their seed lines, targets and stream states
    are drawn once, and each iterate regrows only those patterns.  The
    pre-pass computes every pattern's two first draws in blocks of uint64
    array arithmetic (:meth:`_Sampler.head`) and keeps ints for the
    patterns of target 3 or more alone.  Their cached state is four ints:
    PCG64's 128-bit state and increment, and the flag and value of the
    32-bit half that a uniform seed-line draw leaves buffered for the first
    draw of growth.

    Raises ValueError for a target outside [0, 1], an ensemble_size or
    max_iterations below 1, or a negative tolerance.  Raises
    CalibrationError when the target lies outside what the network can
    produce at the endpoints, or when no generated pattern ever has 3 or
    more lines.
    """
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {target}")
    if ensemble_size < 1:
        raise ValueError(f"ensemble_size must be at least 1, got {ensemble_size}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    processes = pool_size(workers, ensemble_size)
    tasks = [(network, config, lo, hi) for lo, hi in index_chunks(ensemble_size, processes)]
    with process_pool(processes) as pool:
        seeds = [part for part in run_all(pool, _seed_chunk, tasks) if part]

        def measure(p: float) -> float:
            counts = run_all(pool, _branching_counts, [(network, p, part) for part in seeds])
            denominator = sum(d for _, d in counts)
            if denominator == 0:
                raise CalibrationError(
                    "no generated pattern had 3 or more lines; the network or "
                    "size model cannot express the branching statistic",
                    target=target,
                )
            return sum(n for n, _ in counts) / denominator

        return _bisect(measure, target, tolerance, max_iterations)


def _bisect(measure: Callable[[float], float], target: float, tolerance: float, max_iterations: int) -> CalibrationResult:
    """Bisect [0, 1] for a p with measure(p) within tolerance of target, recording every evaluation."""
    steps: list[CalibrationStep] = []

    def evaluate(p: float, low: float, high: float) -> float:
        value = measure(p)
        steps.append(CalibrationStep(len(steps), p, value, low, high))
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
        g_mid = evaluate(mid, low, high)
        if abs(g_mid - target) <= tolerance:
            return result(mid, g_mid, True)
        if (g_mid < target) == increasing:
            low = mid
        else:
            high = mid
    return result(mid, g_mid, False)


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


def parse_generated_pattern(text: str) -> GeneratedPattern:
    """Parse one line of a generated-ensemble file.

    Reading recovers the lines and extra circuits; the target size is not
    stored, so it is taken to equal the achieved size.
    """
    parts = text.strip().split("|")
    lines = parse_pattern(parts[0])
    extra: set[Line] = set()
    for token in parts[1:]:
        if not token.startswith("+"):
            raise ValueError(f"malformed extra-circuit token: {token!r}")
        extra.add(parse_line(token[1:]))
    if not extra <= lines:
        raise ValueError("extra circuit on a line not in the pattern")
    return GeneratedPattern(
        pattern=Pattern(frozenset(lines)),
        extra_circuits=frozenset(extra),
        target_size=len(lines),
        achieved_size=len(lines),
    )


def write_generated_patterns(path, generated: Iterable[GeneratedPattern]) -> None:
    """Write one generated pattern per line in input order."""
    with open(path, "w", newline="") as fh:
        for gp in generated:
            fh.write(format_generated_pattern(gp))
            fh.write("\n")


def read_generated_patterns(path) -> list[GeneratedPattern]:
    """Read a file written by :func:`write_generated_patterns`."""
    out: list[GeneratedPattern] = []
    with open(path) as fh:
        for lineno, text in enumerate(fh, start=1):
            text = text.strip()
            if not text:
                continue
            try:
                out.append(parse_generated_pattern(text))
            except ValueError as exc:
                raise InputFormatError(f"{path}: line {lineno}: {exc}") from exc
    return out
