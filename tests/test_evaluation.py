"""Permutation test behavior, the repeated-evaluation loop and its pool sizing."""

from __future__ import annotations

import os

import numpy as np
import pytest

from seq_oracle import valid_sequences

from gridpatterns import evaluation, generator
from gridpatterns.distance import TransportSolver
from gridpatterns.errors import DegenerateDataError
from gridpatterns.evaluation import (
    EvaluationReport,
    _pool_size,
    evaluate_model,
    format_evaluation_report,
    permutation_test,
    write_evaluation_csv,
    write_size_distribution_csv,
)
from gridpatterns.generator import GeneratorConfig, generate_ensemble
from gridpatterns.patterns import Pattern, size_histogram
from gridpatterns.rng import substream
from gridpatterns.synthnet import synthetic_network
from gridpatterns.zipf import ZipfModel


def _pattern(*lines) -> Pattern:
    return Pattern(frozenset(lines))


CHAIN3 = (2, 2, 1, 1)
STAR3 = (3, 1, 1, 1)


def test_identical_sets_give_zero_distance_and_p_one():
    sample = [(1, 1)] * 5 + [CHAIN3] * 3 + [STAR3] * 2
    result = permutation_test(sample, list(sample), permutations=99)
    assert result.observed_statistic == pytest.approx(0.0, abs=1e-12)
    assert result.p_value == 1.0


def test_disjoint_concentrated_sets_give_smallest_p():
    set_a = [(1, 1)] * 200
    set_b = [STAR3] * 200
    result = permutation_test(set_a, set_b, permutations=999, rng=substream(8))
    # every sequence must move across distance 2, and no shuffled split
    # of a pooled half-and-half mixture is as lopsided
    assert result.observed_statistic == pytest.approx(2.0)
    assert result.p_value == pytest.approx(1 / 1000)


def test_swapping_inputs_gives_identical_result():
    rng_seed = 14
    set_a = [(1, 1)] * 30 + [CHAIN3] * 10
    set_b = [(1, 1)] * 25 + [STAR3] * 20 + [(2, 1, 1)] * 5
    forward = permutation_test(set_a, set_b, permutations=199, rng=substream(rng_seed))
    backward = permutation_test(set_b, set_a, permutations=199, rng=substream(rng_seed))
    assert forward == backward


def test_accepts_patterns_and_wrapped_patterns(mesh480):
    ensemble = generate_ensemble(
        mesh480, GeneratorConfig(size_model=ZipfModel(2.5), p_one_plus=0.4, seed=3), 40
    )
    as_generated = permutation_test(ensemble, ensemble, permutations=19)
    as_patterns = permutation_test(
        [g.pattern for g in ensemble], [g.pattern for g in ensemble], permutations=19
    )
    assert as_generated == as_patterns
    assert as_generated.p_value == 1.0


def test_permutation_test_input_validation():
    with pytest.raises(DegenerateDataError):
        permutation_test([], [(1, 1)])
    with pytest.raises(DegenerateDataError):
        permutation_test([(1, 1)], [])
    with pytest.raises(ValueError):
        permutation_test([(1, 1)], [(1, 1)], permutations=0)


def test_p_value_bounds():
    rng = substream(2)
    set_a = [(1, 1)] * 10 + [CHAIN3] * 5
    set_b = [(1, 1)] * 9 + [STAR3] * 6
    for perms in (19, 99):
        result = permutation_test(set_a, set_b, permutations=perms, rng=rng)
        assert 1 / (perms + 1) <= result.p_value <= 1.0


def test_self_distance_shrinks_with_sample_size(mesh480):
    # two independent samples from one model: their distance is finite-sample
    # noise and must fall as the samples grow
    distances = {}
    for n in (100, 5000):
        a = generate_ensemble(mesh480, GeneratorConfig(ZipfModel(5.0), 0.3, seed=51), n)
        b = generate_ensemble(mesh480, GeneratorConfig(ZipfModel(5.0), 0.3, seed=52), n)
        result = permutation_test(a, b, permutations=1)
        distances[n] = result.observed_statistic
    assert distances[5000] < distances[100]


def test_observed_distance_counts_line_changes():
    # 3 of 4 sequences match; the fourth needs one line edit, so the
    # distance times the sample count is the total line-change count
    set_a = [(1, 1), (1, 1), CHAIN3, CHAIN3]
    set_b = [(1, 1), (1, 1), CHAIN3, (2, 1, 1)]
    result = permutation_test(set_a, set_b, permutations=9, rng=substream(1))
    assert result.observed_statistic * 4 == pytest.approx(1.0)


# (observed_statistic, p_value) as the float linear-program transport solver
# gave them before the exact integer one replaced it
PINNED = [
    (480, 11, 4.1, 41, 500, 500, (0.03600000000000002, 0.33)),
    (300, 5, 3.0, 31, 300, 200, (0.07166666666666671, 0.67)),
    (300, 5, 3.0, 31, 300, 0, (0.0, 1.0)),  # n_b = 0: one set against itself
]


def _pinned_sets(lines, network_seed, s, seed, n_a, n_b):
    network = synthetic_network("grid-mesh", lines, multi_circuit_fraction=0.1, seed=network_seed)

    def sample(stream, n):
        config = GeneratorConfig(size_model=ZipfModel(s), p_one_plus=0.3, seed=stream)
        return [g.pattern for g in generate_ensemble(network, config, n)]

    a = sample(seed, n_a)
    return a, sample(seed + 1, n_b) if n_b else list(a)


@pytest.mark.parametrize("lines, network_seed, s, seed, n_a, n_b, expected", PINNED)
def test_permutation_test_matches_float_solver_results(lines, network_seed, s, seed, n_a, n_b, expected):
    a, b = _pinned_sets(lines, network_seed, s, seed, n_a, n_b)
    result = permutation_test(a, b, permutations=199, rng=substream(seed + 2))
    assert result.observed_statistic == pytest.approx(expected[0], rel=1e-12, abs=0.0)
    assert result.p_value == expected[1]


def _check_verdicts_against_solves(monkeypatch, set_a, set_b, permutations, rng):
    """Run a permutation test and check every permutation's verdict, by bound
    or by solve, against a full solve of that permutation."""
    calls = []

    def spy(cost, potentials, gaps, excess, observed):
        verdict = bound_verdict(cost, potentials, gaps, excess, observed)
        calls.append((cost, excess, observed, verdict))
        return verdict

    bound_verdict = evaluation._bound_verdict
    monkeypatch.setattr(evaluation, "_bound_verdict", spy)
    result = permutation_test(set_a, set_b, permutations=permutations, rng=rng)
    assert len(calls) == permutations
    at_least = 0
    for cost, excess, observed, verdict in calls:
        value, _ = TransportSolver(cost).solve(np.maximum(excess, 0), np.maximum(-excess, 0))
        assert verdict in (None, value >= observed)
        at_least += value >= observed
    assert result.p_value == (1 + at_least) / (permutations + 1)
    return calls


@pytest.mark.parametrize("lines, network_seed, s, seed, n_a, n_b, expected", PINNED)
def test_bound_verdicts_match_full_solves_on_pinned_sets(monkeypatch, lines, network_seed, s, seed, n_a, n_b, expected):
    a, b = _pinned_sets(lines, network_seed, s, seed, n_a, n_b)
    _check_verdicts_against_solves(monkeypatch, a, b, 199, substream(seed + 2))


def test_bound_verdicts_match_full_solves_on_random_counts(monkeypatch):
    rng = np.random.default_rng(37)
    nodes = [seq for lines in range(1, 6) for seq in valid_sequences(5)[lines]]
    decided = 0
    for trial in range(12):
        size = int(rng.integers(1, 8))
        support = [nodes[i] for i in rng.choice(len(nodes), size=size, replace=False)]

        def sample():
            counts = rng.multinomial(int(rng.integers(1, 60)), rng.dirichlet(np.ones(size)))
            return [seq for seq, c in zip(support, counts) for _ in range(c)]

        calls = _check_verdicts_against_solves(monkeypatch, sample(), sample(), 49, substream(trial))
        decided += sum(verdict is not None for *_, verdict in calls)
    assert decided > 0


def test_bounds_leave_fewer_solves_than_permutations_on_mesh480(monkeypatch):
    solves = 0
    solve = TransportSolver.solve

    def counting_solve(self, p, q):
        nonlocal solves
        solves += 1
        return solve(self, p, q)

    monkeypatch.setattr(TransportSolver, "solve", counting_solve)
    lines, network_seed, s, seed, n_a, n_b, expected = PINNED[0]
    result = permutation_test(*_pinned_sets(lines, network_seed, s, seed, n_a, n_b), 199, substream(seed + 2))
    assert result.p_value == expected[1]
    assert solves < 199


def test_evaluate_model_shape_and_determinism(mesh480):
    observed = generate_ensemble(
        mesh480, GeneratorConfig(ZipfModel(4.09), 0.3, seed=61), 150
    )
    config = GeneratorConfig(ZipfModel(4.09), 0.3, seed=5)
    report = evaluate_model(observed, mesh480, config, repetitions=4, permutations=49)
    assert report.repetitions == 4
    assert report.permutations == 49
    assert len(report.p_values) == 4
    assert all(1 / 50 <= p <= 1.0 for p in report.p_values)
    assert all(d >= 0.0 for d in report.distances)
    again = evaluate_model(observed, mesh480, config, repetitions=4, permutations=49)
    assert report == again


def test_evaluate_model_takes_its_seed_from_the_config(mesh480):
    # the config's seed is the one root of every repetition's streams
    observed = generate_ensemble(mesh480, GeneratorConfig(ZipfModel(4.09), 0.3, seed=61), 150)
    reports = [
        evaluate_model(observed, mesh480, GeneratorConfig(ZipfModel(4.09), 0.3, seed=seed), repetitions=4, permutations=49)
        for seed in (5, 6)
    ]
    assert [report.seed for report in reports] == [5, 6]
    assert reports[0].distances != reports[1].distances


def test_evaluate_model_workers_do_not_change_results(mesh480):
    observed = generate_ensemble(
        mesh480, GeneratorConfig(ZipfModel(4.09), 0.3, seed=61), 100
    )
    config = GeneratorConfig(ZipfModel(4.09), 0.3, seed=7)
    serial = evaluate_model(observed, mesh480, config, repetitions=4, permutations=29, workers=1)
    parallel = evaluate_model(observed, mesh480, config, repetitions=4, permutations=29, workers=2)
    assert serial == parallel


def test_evaluate_model_self_consistency(mesh480):
    # observed patterns drawn from the very model under test: most
    # repetitions should not reject
    observed = generate_ensemble(
        mesh480, GeneratorConfig(ZipfModel(4.09), 0.3, seed=71), 200
    )
    config = GeneratorConfig(ZipfModel(4.09), 0.3, seed=9)
    report = evaluate_model(observed, mesh480, config, repetitions=10, permutations=99)
    assert report.count_p_at_least(0.05) >= 8


@pytest.mark.parametrize(
    "weighted, distances, p_values",
    [
        # recorded from the evaluation that generated every pattern of each
        # repetition's ensemble and converted them to degree sequences
        (False, (0.205, 0.39, 0.265), (0.52, 0.24, 0.42)),
        (True, (0.215, 0.39, 0.275), (0.52, 0.26, 0.4)),
    ],
)
def test_evaluate_model_is_pinned_and_builds_no_pattern(mesh480, monkeypatch, weighted, distances, p_values):
    observed = generate_ensemble(mesh480, GeneratorConfig(ZipfModel(2.5), 0.3, p_circuits=0.07, seed=61), 200)
    weights = {line: float(i % 4) for i, line in enumerate(mesh480.lines)} if weighted else None
    config = GeneratorConfig(ZipfModel(2.5), 0.35, p_circuits=0.07, initial_weights=weights, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError("evaluate_model built a generated pattern")

    monkeypatch.setattr(generator, "_with_circuits", refuse)
    report = evaluate_model(observed, mesh480, config, repetitions=3, permutations=49)
    assert (report.distances, report.p_values) == (distances, p_values)


def test_evaluate_model_input_validation(path3):
    config = GeneratorConfig(ZipfModel(2.0), 0.5)
    with pytest.raises(DegenerateDataError):
        evaluate_model([], path3, config, repetitions=1, permutations=9)
    with pytest.raises(ValueError):
        evaluate_model([(1, 1)], path3, config, repetitions=0, permutations=9)


def test_report_statistics():
    report = EvaluationReport(
        distances=(0.1, 0.3), p_values=(0.04, 0.5), permutations=99, seed=0
    )
    assert report.mean_distance == pytest.approx(0.2)
    assert report.distance_variance == pytest.approx(0.02)
    assert report.median_p_value == pytest.approx(0.27)
    assert report.count_p_at_least(0.05) == 1
    single = EvaluationReport(distances=(0.1,), p_values=(1.0,), permutations=9, seed=0)
    assert single.distance_variance == 0.0


def test_format_evaluation_report():
    report = EvaluationReport(
        distances=(0.25, 0.25), p_values=(0.5, 1.0), permutations=99, seed=0
    )
    text = format_evaluation_report(report)
    assert "repetitions: 2" in text
    assert "mean_distance: 0.250000" in text
    assert "p_at_least_0.05: 2" in text


def test_write_evaluation_csv(tmp_path):
    report = EvaluationReport(
        distances=(0.125, 0.5), p_values=(0.04, 1.0), permutations=99, seed=0
    )
    path = tmp_path / "evaluation.csv"
    write_evaluation_csv(path, report)
    assert path.read_text() == "distance,p_value\n0.125,0.04\n0.5,1\n"


def test_write_size_distribution_csv(tmp_path):
    histogram = size_histogram([_pattern(("A", "B"))] * 3 + [_pattern(("A", "B"), ("B", "C"))])
    model = ZipfModel(4.0)
    path = tmp_path / "sizes.csv"
    write_size_distribution_csv(path, histogram, model)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "size,empirical_probability,fitted_probability"
    assert rows[1].startswith("1,0.75,")
    assert rows[2].startswith("2,0.25,")
    fitted = float(rows[1].split(",")[2])
    assert fitted == pytest.approx(float(model.pmf(1)))


CPUS = len(os.sched_getaffinity(0))


# pool sizing is a pure clamp, tested without starting any process
def test_pool_size_clamps_to_cpus_and_tasks():
    assert _pool_size(10**9, 10**9) == CPUS
    assert _pool_size(10**9, 1) == 1
    assert _pool_size(1, 10**9) == 1
    assert _pool_size(2, 10**9) == min(2, CPUS)
    assert _pool_size(10**9, 0) == 1


@pytest.mark.parametrize("requested", [0, -1, -(10**9)])
def test_pool_size_rejects_fewer_than_one(requested):
    with pytest.raises(ValueError):
        _pool_size(requested, 10)
