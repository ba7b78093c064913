"""Comparing generated pattern ensembles against observed patterns.

The comparison statistic is the Wasserstein distance between the empirical
degree-sequence distributions of the two sets.  Statistical significance
comes from a permutation test: pool both sets, reshuffle, resplit, and ask
how often a split at least as distant as the observed one arises by chance.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .distance import TransportSolver, shared_sequence_graph
from .errors import DegenerateDataError
from .generator import GeneratorConfig, generate_ensemble
from .network import Network
from .parallel import pool_size, process_pool, run_all
from .patterns import DegreeSequence, SizeHistogram, _as_sequences, line_count
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
    p-value is 1/(permutations + 1).  Every statistic is solved exactly on
    integer counts, so ties compare exactly.  The two inputs are ordered
    canonically first, which makes the result invariant under swapping them.
    """
    if permutations < 1:
        raise ValueError("need at least one permutation")
    seqs_a = _as_sequences(set_a)
    seqs_b = _as_sequences(set_b)
    if not seqs_a or not seqs_b:
        raise DegenerateDataError("both pattern sets must be non-empty")
    if rng is None:
        rng = substream(0)
    first, second = sorted((sorted(seqs_a), sorted(seqs_b)), key=lambda s: (len(s), s))
    pool = first + second
    n_first, n_second = len(first), len(second)
    support = sorted(set(pool), key=lambda s: (line_count(s), s))
    index = {seq: i for i, seq in enumerate(support)}
    pool_idx = np.array([index[s] for s in pool], dtype=np.int64)
    graph = shared_sequence_graph(max(line_count(s) for s in support) + 2)
    solver = TransportSolver(graph.distance_matrix(support, support))
    n_support = len(support)

    def statistic(idx: np.ndarray) -> int:
        # n_first * n_second times the distance between the two halves
        excess = (
            np.bincount(idx[:n_first], minlength=n_support) * n_second
            - np.bincount(idx[n_first:], minlength=n_support) * n_first
        )
        # the edit distance is a metric, so mass both halves share stays put
        value, _ = solver.solve(np.maximum(excess, 0), np.maximum(-excess, 0))
        return value

    observed = statistic(pool_idx)
    at_least = 0
    for _ in range(permutations):
        at_least += statistic(rng.permutation(pool_idx)) >= observed
    p_value = (1 + at_least) / (permutations + 1)
    return PermutationTestResult(observed / (n_first * n_second), p_value, permutations)


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


def _evaluate_repetition(
    observed_seqs: list[DegreeSequence],
    network: Network,
    config: GeneratorConfig,
    permutations: int,
    seed: int,
    index: int,
) -> tuple[float, float]:
    gen_config = replace(config, seed=derive_seed(seed, 0, index))
    ensemble = generate_ensemble(network, gen_config, len(observed_seqs))
    result = permutation_test(
        observed_seqs,
        _as_sequences(ensemble),
        permutations=permutations,
        rng=substream(seed, 1, index),
    )
    return result.observed_statistic, result.p_value


def evaluate_model(
    observed: Iterable,
    network: Network,
    config: GeneratorConfig,
    *,
    repetitions: int = 100,
    permutations: int = 999,
    seed: int = 0,
    workers: int = 1,
) -> EvaluationReport:
    """Evaluate a generator configuration against observed patterns.

    Each repetition generates a fresh ensemble of the same size as the
    observed set from a repetition-specific stream, then records the
    distance between the two empirical distributions and its permutation
    p-value.  Results are independent of ``workers``.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    observed_seqs = _as_sequences(observed)
    if not observed_seqs:
        raise DegenerateDataError("no observed patterns to evaluate against")
    args = [
        (observed_seqs, network, config, permutations, seed, i) for i in range(repetitions)
    ]
    with process_pool(pool_size(workers, repetitions)) as pool:
        results = run_all(pool, _evaluate_repetition, args)
    distances = tuple(r[0] for r in results)
    p_values = tuple(r[1] for r in results)
    return EvaluationReport(distances, p_values, permutations, seed)


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
    with open(path, "w", newline="") as fh:
        fh.write("distance,p_value\n")
        for dist, p in zip(report.distances, report.p_values):
            fh.write(f"{dist:.12g},{p:.12g}\n")


def write_size_distribution_csv(path, histogram: SizeHistogram, model: ZipfModel) -> None:
    """Log-log plot data: size, empirical probability, fitted probability."""
    freqs = histogram.frequencies
    with open(path, "w", newline="") as fh:
        fh.write("size,empirical_probability,fitted_probability\n")
        for size in histogram.sizes:
            fh.write(f"{size},{freqs[size]:.12g},{model.pmf(size):.12g}\n")
