"""Comparing generated pattern ensembles against observed patterns.

The comparison statistic is the Wasserstein distance between the empirical
degree-sequence distributions of the two sets.  Statistical significance
comes from a permutation test: pool both sets, reshuffle, resplit, and ask
how often a split at least as distant as the observed one arises by chance.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable

import numpy as np

from .distance import _GRAPH, TransportSolver, _north_west_cost
from .errors import DegenerateDataError
from .generator import GeneratorConfig, _ensemble_counts
from .lines import write_table
from .network import Network
from .patterns import DegreeSequence, SizeHistogram, _sequence_counts, line_count
from .rng import derive_seed, substream
from .zipf import ZipfModel


@dataclass(frozen=True)
class PermutationTestResult:
    """Observed distance and its permutation p-value."""

    observed_statistic: float
    p_value: float
    permutations: int


def permutation_test(
    set_a: Iterable,
    set_b: Iterable,
    permutations: int = 999,
    rng: np.random.Generator | None = None,
) -> PermutationTestResult:
    """Two-sample permutation test on the degree-sequence distance.

    The p-value is (1 + number of permuted splits at least as distant) over
    (permutations + 1), so ties count as extreme and the smallest reachable
    p-value is 1/(permutations + 1).  Each permutation is decided exactly,
    on integer counts, so ties compare exactly: by a lower bound (the dual
    potentials of the splits solved so far, or the transport between line
    counts), by the north-west-corner plan's upper bound, or else by an
    exact solve.  The two inputs are ordered canonically first, which makes
    the result invariant under swapping them.  Accepts Patterns, generated
    patterns, line sets, or degree-sequence tuples.
    """
    rng = substream(0) if rng is None else rng
    return _permutation_test(_sequence_counts(set_a), _sequence_counts(set_b), permutations, rng)


def _permutation_test(
    counts_a: Counter[DegreeSequence], counts_b: Counter[DegreeSequence], permutations: int, rng: np.random.Generator
) -> PermutationTestResult:
    """:func:`permutation_test` on the two sets' degree-sequence counts, all positive."""
    if permutations < 1:
        raise ValueError("need at least one permutation")
    if not counts_a or not counts_b:
        raise DegenerateDataError("both pattern sets must be non-empty")
    # each half as sorted (sequence, count) runs, the halves in the order of
    # their sorted expansions: by size, then at the first differing run by
    # the smaller sequence, or else by the larger count
    first, second = sorted(
        (sorted(counts_a.items()), sorted(counts_b.items())),
        key=lambda runs: (sum(c for _, c in runs), [(s, -c) for s, c in runs]),
    )
    n_first, n_second = (sum(c for _, c in runs) for runs in (first, second))
    support = sorted(counts_a.keys() | counts_b.keys(), key=lambda s: (line_count(s), s))
    index = {seq: i for i, seq in enumerate(support)}
    pool_idx = np.repeat([index[s] for s, _ in first + second], [c for _, c in first + second])
    solver = TransportSolver(_GRAPH.distance_matrix(support, support))
    cost = solver.cost.astype(np.int64)
    gaps = np.diff([line_count(s) for s in support])
    n_support = len(support)
    potentials = np.zeros((0, n_support), dtype=np.int64)
    pooled = np.bincount(pool_idx, minlength=n_support) * n_first

    def excess_of(idx: np.ndarray) -> np.ndarray:
        # n_first * n_second times the difference of the halves' distributions,
        # n_second * c1 - n_first * c2 with c2 the pooled counts less c1; the
        # edit distance is a metric, so mass both halves share stays put
        return np.bincount(idx[:n_first], minlength=n_support) * (n_first + n_second) - pooled

    def solve(excess: np.ndarray) -> int:
        nonlocal potentials
        value, _ = solver.solve(np.maximum(excess, 0), np.maximum(-excess, 0))
        potentials = np.vstack([potentials, solver._potential()])
        return value

    observed = solve(excess_of(pool_idx))
    at_least = 0
    for _ in range(permutations):
        excess = excess_of(rng.permutation(pool_idx))
        verdict = _bound_verdict(cost, potentials, gaps, excess, observed)
        at_least += solve(excess) >= observed if verdict is None else verdict
    p_value = (1 + at_least) / (permutations + 1)
    return PermutationTestResult(observed / (n_first * n_second), p_value, permutations)


def _bound_verdict(
    cost: np.ndarray, potentials: np.ndarray, gaps: np.ndarray, excess: np.ndarray, observed: int
) -> bool | None:
    """Whether moving the excess costs at least ``observed``, when a bound decides it.

    Lower bounds: each row of ``potentials`` is 1-Lipschitz under ``cost``;
    and each edit changes the line count by one, so moving the excess costs
    at least moving it between line counts, ``gaps`` apart along the support.
    Upper bound: the north-west-corner plan.  None when only a solve decides.
    """
    lower = max(np.abs(potentials @ excess).max(), np.abs(np.cumsum(excess)[:-1]) @ gaps)
    if lower >= observed:
        return True
    if _north_west_cost(cost, np.maximum(excess, 0), np.maximum(-excess, 0)) < observed:
        return False
    return None


@dataclass(frozen=True)
class EvaluationReport:
    """Distances and p-values over repeated generated ensembles."""

    distances: tuple[float, ...]
    p_values: tuple[float, ...]
    permutations: int
    seed: int

    @property
    def repetitions(self) -> int:
        return len(self.distances)

    @property
    def mean_distance(self) -> float:
        return statistics.fmean(self.distances)

    @property
    def distance_variance(self) -> float:
        """Sample variance of the distances (0 for a single repetition)."""
        if len(self.distances) < 2:
            return 0.0
        return statistics.variance(self.distances)

    @property
    def median_p_value(self) -> float:
        return statistics.median(self.p_values)

    def count_p_at_least(self, threshold: float = 0.05) -> int:
        return sum(1 for p in self.p_values if p >= threshold)


def _pool_size(requested: int, tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: min(requested, usable CPUs, tasks), at least 1."""
    if requested < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested, cpus, tasks))


def _evaluate_repetition(
    observed: Counter[DegreeSequence], network: Network, config: GeneratorConfig, permutations: int, index: int
) -> tuple[float, float]:
    generated = _ensemble_counts(network, replace(config, seed=derive_seed(config.seed, 0, index)), observed.total())
    result = _permutation_test(observed, generated, permutations, substream(config.seed, 1, index))
    return result.observed_statistic, result.p_value


def evaluate_model(
    observed: Iterable,
    network: Network,
    config: GeneratorConfig,
    *,
    repetitions: int = 100,
    permutations: int = 999,
    workers: int = 1,
) -> EvaluationReport:
    """Evaluate a generator configuration against observed patterns.

    Each repetition generates a fresh ensemble of the same size as the
    observed set from a repetition-specific stream derived from
    ``config.seed``, then records the distance between the two empirical
    distributions and its permutation p-value.  The repetitions run on
    ``workers`` processes, clamped to the CPUs and the repetitions, and come
    back in order, so results are independent of ``workers``.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    observed_counts = _sequence_counts(observed)
    if not observed_counts:
        raise DegenerateDataError("no observed patterns to evaluate against")
    task = partial(_evaluate_repetition, observed_counts, network, config, permutations)
    processes = _pool_size(workers, repetitions)
    if processes == 1:
        results = [task(i) for i in range(repetitions)]
    else:
        # imported here, so that no other process pays for loading them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: forking a process that already runs threads
        # (numpy's among them) can deadlock the child
        with ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("spawn")) as pool:
            results = list(pool.map(task, range(repetitions)))
    distances, p_values = zip(*results)
    return EvaluationReport(distances, p_values, permutations, config.seed)


def format_evaluation_report(report: EvaluationReport) -> str:
    """Structured text summary of an evaluation."""
    lines = [
        f"repetitions: {report.repetitions}",
        f"permutations: {report.permutations}",
        f"mean_distance: {report.mean_distance:.6f}",
        f"distance_variance: {report.distance_variance:.6e}",
        f"median_p_value: {report.median_p_value:.6f}",
        f"p_at_least_0.05: {report.count_p_at_least(0.05)}",
    ]
    return "\n".join(lines) + "\n"


def write_evaluation_csv(path, report: EvaluationReport) -> None:
    """One ``distance,p_value`` row per repetition."""
    rows = ((f"{dist:.12g}", f"{p:.12g}") for dist, p in zip(report.distances, report.p_values))
    write_table(path, ("distance", "p_value"), rows)


def write_size_distribution_csv(path, histogram: SizeHistogram, model: ZipfModel) -> None:
    """Log-log plot data: size, empirical probability, fitted probability."""
    freqs = histogram.frequencies
    rows = ((size, f"{freqs[size]:.12g}", f"{model.pmf(size):.12g}") for size in histogram.sizes)
    write_table(path, ("size", "empirical_probability", "fitted_probability"), rows)
