"""Growth model: determinism, distributional fidelity, calibration."""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import grow_oracle
from test_rng import PCG_INC, fresh_state_with_output, generator_at, generator_state

from gridpatterns.errors import CalibrationError
from gridpatterns.generator import (
    CalibrationResult,
    GeneratedPattern,
    GeneratorConfig,
    _ensemble_counts,
    _grow,
    _Sampler,
    _seeds,
    calibrate_p_one_plus,
    format_calibration_trace,
    format_generated_pattern,
    generate_ensemble,
    write_generated_patterns,
)
from gridpatterns.lines import parse_line
from gridpatterns.network import Network
from gridpatterns.patterns import Pattern, _sequence_counts, degree_sequence, p_one_plus_observed, parse_pattern
from gridpatterns.rng import Stream, _pcg64_states, substream
from gridpatterns.synthnet import synthetic_network
from gridpatterns.zipf import ZipfModel


def _config(s: float, p: float, **kwargs) -> GeneratorConfig:
    return GeneratorConfig(size_model=ZipfModel(s), p_one_plus=p, **kwargs)


def _pattern(*lines) -> Pattern:
    return Pattern(frozenset(lines))


def _stream(seed: int, *path: int) -> Stream:
    """The package's stream ``(seed, *path)``, at the start numpy's substream has."""
    return Stream(*generator_state(substream(seed, *path))[:2])


def _state_of(stream: Stream) -> tuple[int, int, int]:
    return stream.state, stream.inc, stream.half


def _connected(lines) -> bool:
    lines = set(lines)
    adjacency: dict[str, set[str]] = {}
    for a, b in lines:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    start = next(iter(adjacency))
    seen = {start}
    queue = deque([start])
    while queue:
        bus = queue.popleft()
        for other in adjacency[bus]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen == set(adjacency)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(4.0, -0.1)
    with pytest.raises(ValueError):
        _config(4.0, 1.1)
    with pytest.raises(ValueError):
        _config(4.0, 0.5, p_circuits=2.0)


@pytest.mark.parametrize("seed", [-1, 1.5, "7"])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # at construction, not at the first draw, so it fails even for count=0
    with pytest.raises(ValueError, match="seed"):
        _config(4.0, 0.5, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(7), 2**160 + 3])
def test_config_accepts_any_nonnegative_integer_seed(seed):
    # stored as a plain int, the one seed type that stream derivation takes
    config = _config(4.0, 0.5, seed=seed)
    assert config.seed == seed
    assert type(config.seed) is int


def test_generated_pattern_validation():
    pat = _pattern(("A", "B"), ("B", "C"))
    with pytest.raises(ValueError):
        GeneratedPattern(pat, frozenset({("C", "D")}), 2, 2)
    with pytest.raises(ValueError):
        GeneratedPattern(pat, frozenset(), 2, 1)
    with pytest.raises(ValueError):
        GeneratedPattern(pat, frozenset(), 1, 2)
    ok = GeneratedPattern(pat, frozenset({("A", "B")}), 5, 2)
    assert ok.saturated
    assert not GeneratedPattern(pat, frozenset(), 2, 2).saturated


def test_single_line_network_always_single_line_patterns():
    # Zipf targets are capped at the network line count
    net = Network([("A", "B")])
    for gp in generate_ensemble(net, _config(1.5, 0.5), 40):
        assert gp.pattern.lines == {("A", "B")}
        assert gp.target_size == 1
        assert gp.achieved_size == 1
        assert not gp.saturated


def test_grow_along_forced_path(path4):
    # only degree-1 attachments exist on a path, so growth is forced; line
    # ids 0, 1, 2 are A-B, B-C, C-D
    ids, _, _ = _grow(path4, 0, 3, 0.0, _stream(3))
    assert ids == {0, 1, 2}
    ids, _, _ = _grow(path4, 1, 2, 0.7, _stream(4))
    assert ids in ({0, 1}, {1, 2})


def test_grow_respects_target(mesh480):
    rng = _stream(9)
    for target in (1, 2, 5, 12):
        ids, _, _ = _grow(mesh480, 0, target, 0.4, rng)
        assert len(ids) == target
        assert _connected(mesh480.lines[i] for i in ids)


def _grow_cases(network: Network, pick) -> list[tuple[int, int]]:
    """(seed line id, target) pairs: every pair on a tiny network, else sampled targets up to full cover."""
    n = network.n_lines
    if n <= 4:
        return [(first, target) for first in range(n) for target in range(2, n + 2)]
    cases = []
    for target in (2, 3, 4, 6, 10, 25, 60):
        cases += [(int(pick.integers(n)), target) for _ in range(8)]
    for target in (n // 2, n, n + 1):
        cases.append((int(pick.integers(n)), target))
    return cases


@pytest.mark.parametrize("name", ["path3", "path4", "star4", "cycle4", "mesh480", "ba500"])
def test_grow_matches_rebuild_oracle_draw_for_draw(name, request):
    # the incremental sides, drawing from the package's stream, must pick the
    # same lines with the same draws as rebuilding and sorting them every
    # step on a numpy Generator, and leave the stream in the same state,
    # because the p_circuits draws and calibration follow it
    network = request.getfixturevalue(name)
    for case, (first, target) in enumerate(_grow_cases(network, substream(97))):
        for p_one_plus in (0.0, 0.3, 1.0):
            mine, reference = _stream(5, case), substream(5, case)
            grown, _, _ = _grow(network, first, target, p_one_plus, mine)
            expected = grow_oracle.grow(network, network.lines[first], target, p_one_plus, reference)
            assert {network.lines[i] for i in grown} == expected
            assert _state_of(mine) == generator_state(reference)
            assert len(grown) == min(target, network.n_lines)


def test_grow_interval_holds_exactly_the_parameters_that_grow_alike(mesh480):
    # every p in (lo, hi] makes the same side choices, so the same draws, the
    # same lines and the same final stream; just outside, one choice flips
    config = _config(2.5, 0.3, seed=41)
    _, seeds = _seeds(mesh480, config, 400)
    assert len(seeds) > 40
    bounded = 0
    for first, target, stream in seeds:
        at_p = stream.copy()
        lines, lo, hi = _grow(mesh480, first, target, 0.3, at_p)
        assert lo < 0.3 <= hi
        inside = {hi, math.nextafter(lo, math.inf), 0.5 * (max(lo, 0.0) + min(hi, 1.0))} - {math.inf}
        for p in inside:
            again = stream.copy()
            assert _grow(mesh480, first, target, p, again) == (lines, lo, hi)
            assert _state_of(again) == _state_of(at_p)
        for p in {lo, math.nextafter(hi, math.inf)} - {-math.inf, math.inf}:
            bounded += 1
            assert _grow(mesh480, first, target, p, stream.copy())[1:] != (lo, hi)
    assert bounded > 40


_PINNED_ENSEMBLES = [
    ("mesh300", "5cbd2fb258cf231fa52be0bd3478c5210cbb553487d9b2b3429fa2c5ed04e61f"),
    ("mesh480-weighted", "3efe5d2d32b8870e226c90ab3e0e3f45775258a17847c1d6a0c0eee6121a15d9"),
]


def _pinned_case(case: str, mesh480: Network) -> tuple[Network, GeneratorConfig]:
    if case == "mesh300":
        return synthetic_network("grid-mesh", 300, seed=3), _config(2.0, 0.4, seed=17)
    weights = {line: float(i % 4) for i, line in enumerate(mesh480.lines)}
    return mesh480, _config(4.1, 0.4054, p_circuits=0.07, initial_weights=weights, seed=23)


def _ensemble_digest(tmp_path, network: Network, config: GeneratorConfig) -> str:
    path = tmp_path / "generated.txt"
    write_generated_patterns(path, generate_ensemble(network, config, 2000))
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case, digest", _PINNED_ENSEMBLES)
def test_generated_ensemble_bytes_are_pinned(tmp_path, mesh480, case, digest):
    # digests recorded from the rebuild-every-step grower; any change to the
    # draws or picks of generation changes them
    assert _ensemble_digest(tmp_path, *_pinned_case(case, mesh480)) == digest


def _pinned_calibration(mesh480: Network) -> CalibrationResult:
    config = _config(3.0, 0.5, p_circuits=0.2, seed=29)
    return calibrate_p_one_plus(mesh480, config, 0.4, ensemble_size=4000, tolerance=0.001)


# the generated value of every step of _pinned_calibration, uniform seed
# lines, so growth starts on a kept 32-bit half
_PINNED_CALIBRATION = (
    0.2707622298065984,
    0.9806598407281001,
    0.5813424345847554,
    0.3924914675767918,
    0.4800910125142207,
    0.4391353811149033,
    0.4141069397042093,
    0.40273037542662116,
    0.3993174061433447,
)


# the patterns each step of _pinned_calibration regrew: all 281 seeded
# patterns at p = 0 and 1, then only those whose kept intervals miss p
_PINNED_REGROWN = (281, 281, 92, 51, 27, 12, 7, 1, 0)


def test_calibration_is_pinned(mesh480):
    result = _pinned_calibration(mesh480)
    assert tuple(step.generated_value for step in result.steps) == _PINNED_CALIBRATION
    assert (result.p_one_plus, result.converged) == (0.2578125, True)
    assert tuple(step.regrown for step in result.steps) == _PINNED_REGROWN


def test_calibration_regrows_only_patterns_whose_intervals_miss(mesh480):
    config = _config(3.0, 0.5, p_circuits=0.2, seed=29)
    seeded = len(_seeds(mesh480, config, 4000)[1])
    result = _pinned_calibration(mesh480)
    assert result.steps[0].regrown == seeded
    assert sum(step.regrown for step in result.steps) < len(result.steps) * seeded


def test_bisection_never_measures_a_parameter_twice():
    # at tolerance 0 the bracket shrinks to adjacent doubles around a jump of
    # the generated value; once the midpoint rounds to an end, stop there
    network = synthetic_network("grid-mesh", 300, seed=3)
    config = _config(3.0, 0.5, seed=7)
    result = calibrate_p_one_plus(network, config, 0.4, ensemble_size=2000, tolerance=0.0, max_iterations=120)
    p_values = [step.p_one_plus for step in result.steps]
    assert len(set(p_values)) == len(p_values) < 122
    assert not result.converged
    assert (result.p_one_plus, result.generated_value) == (p_values[-1], result.steps[-1].generated_value)


@pytest.mark.parametrize("case", ["mesh300", "mesh480-weighted", "mesh480-s2.5", "one-line", "two-line"])
def test_ensemble_counts_equal_the_counted_ensemble(mesh480, case):
    # targets 1 and 2 are counted without growth and circuits are never
    # drawn, yet the counts must be those of the full ensemble
    if case in dict(_PINNED_ENSEMBLES):
        network, config = _pinned_case(case, mesh480)
    elif case == "mesh480-s2.5":
        network, config = mesh480, _config(2.5, 0.3, p_circuits=0.07, seed=31)
    else:
        lines = [("A", "B")] if case == "one-line" else [("A", "B"), ("B", "C")]
        network, config = Network(lines), _config(1.5, 0.5, p_circuits=1.0, seed=5)
    counts = _ensemble_counts(network, config, 2000)
    assert counts == _sequence_counts(generate_ensemble(network, config, 2000))
    assert all(count > 0 for count in counts.values())


def test_generation_never_builds_a_numpy_generator(tmp_path, mesh480, monkeypatch):
    # every stream and draw of generation and calibration is the package's
    # own, so their outputs cannot move with numpy's Generator methods; a
    # numpy-integer seed takes the same path as the int it equals
    cases = [(_pinned_case(case, mesh480), digest) for case, digest in _PINNED_ENSEMBLES]
    (network, config), digest = cases[0]
    cases.append(((network, replace(config, seed=np.int64(17))), digest))

    def refuse(*args, **kwargs):
        raise AssertionError("pattern generation seeded or built a numpy generator")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    for (network, config), digest in cases:
        assert _ensemble_digest(tmp_path, network, config) == digest
    assert tuple(step.generated_value for step in _pinned_calibration(mesh480).steps) == _PINNED_CALIBRATION


@pytest.fixture(scope="module")
def head_networks() -> dict[int, Network]:
    """Networks by line count, for the bulk first draws."""
    nets = {n: Network([(f"B{i:02d}", f"B{i + 1:02d}") for i in range(n)]) for n in (1, 2, 3)}
    nets.update({n: synthetic_network("grid-mesh", n, seed=2) for n in (300, 2000)})
    return nets


def _head_sampler(network: Network, weighted: bool, s: float = 3.0, seed: int = 0) -> _Sampler:
    weights = {line: float((i + 1) % 4) for i, line in enumerate(network.lines)} if weighted else None
    return _Sampler(network, _config(s, 0.4, initial_weights=weights, seed=seed))


def _seed_draws(sampler: _Sampler, rng: np.random.Generator) -> tuple[int, int, tuple]:
    """The per-pattern first draws on a numpy Generator: seed-line id, target, then the full stream state after both."""
    first, target = grow_oracle.first_draws(sampler.network, sampler.config, rng)
    return bisect_left(sampler.network.lines, first), target, generator_state(rng)


def _head_rows(heads) -> list[tuple[int, int, tuple]]:
    return [(int(line_id), int(target), _state_of(stream)) for h in heads for line_id, target, stream in zip(h.line_ids, h.targets, h.streams())]


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**160 + 3])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("k_max", [1, 2, 3, 300, 2000])
def test_heads_match_per_pattern_seed_draws(head_networks, k_max, weighted, seed):
    # heads crosses the 1024-stream block edge; the last streams of the
    # one-word spawn-key domain end just below index 2**32
    sampler = _head_sampler(head_networks[k_max], weighted, seed=seed)
    expected = [_seed_draws(sampler, substream(seed, i)) for i in range(1030)]
    assert _head_rows(sampler.heads(1030)) == expected
    expected = [_seed_draws(sampler, substream(seed, i)) for i in range(2**32 - 9, 2**32)]
    assert _head_rows([sampler.head(*_pcg64_states(seed, 2**32 - 9, 2**32))]) == expected


def _head_of_states(sampler: _Sampler, states: list[int]):
    def words(values):
        return (np.array([v >> 64 for v in values], np.uint64), np.array([v & (2**64 - 1) for v in values], np.uint64))

    return sampler.head(words(states), words([PCG_INC] * len(states)))


def _fresh_draws(sampler: _Sampler, state: int) -> tuple[int, int, tuple]:
    return _seed_draws(sampler, generator_at(state))


@pytest.mark.parametrize("k_max", [3, 300, 2000])
def test_head_redraws_where_the_bounded_draw_rejects(head_networks, k_max):
    # a first output with low half 0 rejects for any line count that is not
    # a power of two, so numpy draws the buffered high half next
    sampler = _head_sampler(head_networks[k_max], weighted=False)
    states = [fresh_state_with_output(1, high << 32) for high in (0, 1, 2**31 + 7, 2**32 - 1)]
    states.append(fresh_state_with_output(1, 12345))
    assert _head_rows([_head_of_states(sampler, states)]) == [_fresh_draws(sampler, s) for s in states]


@pytest.mark.parametrize("weighted", [False, True])
def test_head_size_ties_break_like_the_scalar_draw(head_networks, weighted):
    # a size double equal to a cdf entry must give that entry's size, the
    # least k with cdf(k) >= u; doubles in [0.5, 1) are multiples of 2**-53,
    # so every such entry is a possible draw
    sampler = _head_sampler(head_networks[300], weighted, s=2.0)
    cdf = np.cumsum(np.arange(1, 301, dtype=float) ** -2.0 / ZipfModel(2.0).zeta_s)
    ties = [float(c) for c in cdf[:40] if c >= 0.5]
    states = [fresh_state_with_output(2, int(u * 2**53) << 11) for u in ties]
    rows = _head_rows([_head_of_states(sampler, states)])
    assert rows == [_fresh_draws(sampler, s) for s in states]
    assert [row[1] for row in rows] == [int(np.searchsorted(cdf, u, "left")) + 1 for u in ties]


@pytest.mark.parametrize("p_circuits", [0.0, 0.07, 1.0])
def test_one_line_patterns_draw_circuits_like_the_scalar_path(mesh480, p_circuits):
    # most s=4.1 patterns are one line; every pattern's draws, the circuit
    # draws included, must equal the model's on a numpy Generator
    config = _config(4.1, 0.4, p_circuits=p_circuits, seed=19)
    count = 1500
    ensemble = generate_ensemble(mesh480, config, count)
    assert ensemble == [grow_oracle.generate_pattern(mesh480, config, substream(19, i)) for i in range(count)]
    doubled = [gp for gp in ensemble if gp.achieved_size == 1 and mesh480.multiplicity.get(min(gp.pattern.lines), 1) >= 2]
    assert len(doubled) > 20
    extra = sum(1 for gp in doubled if gp.extra_circuits)
    if p_circuits == 0.0:
        assert extra == 0
    elif p_circuits == 1.0:
        assert extra == len(doubled)
    else:
        assert 0 < extra < len(doubled)


def test_forced_initial_line(star4):
    config = _config(2.0, 0.5, initial_weights={("A", "X"): 1.0})
    for gp in generate_ensemble(star4, config, 30):
        assert ("A", "X") in gp.pattern.lines


def test_star_growth_ignores_p_one_plus(star4):
    # on a star only one candidate side is ever non-empty, so the side-choice
    # draw is never consumed and p_one_plus cannot change the stream
    low = generate_ensemble(star4, _config(2.0, 0.0, seed=5), 60)
    high = generate_ensemble(star4, _config(2.0, 1.0, seed=5), 60)
    assert low == high
    sizes = {gp.achieved_size for gp in low}
    assert sizes == {1, 2, 3, 4}


def test_same_seed_reproducible(mesh480):
    config = _config(3.0, 0.4, p_circuits=0.3, seed=21)
    assert generate_ensemble(mesh480, config, 50) == generate_ensemble(mesh480, config, 50)
    changed = generate_ensemble(mesh480, _config(3.0, 0.4, p_circuits=0.3, seed=22), 50)
    assert changed != generate_ensemble(mesh480, config, 50)


def test_ensemble_count_validation(path3):
    assert generate_ensemble(path3, _config(2.0, 0.5), 0) == []
    for count in (-1, 2**32):
        with pytest.raises(ValueError, match="count"):
            generate_ensemble(path3, _config(2.0, 0.5), count)


def test_initial_weights_validation(path3):
    with pytest.raises(ValueError):
        generate_ensemble(path3, _config(2.0, 0.5, initial_weights={("Q", "Z"): 1.0}), 1)
    with pytest.raises(ValueError):
        generate_ensemble(path3, _config(2.0, 0.5, initial_weights={("A", "B"): -1.0}), 1)
    with pytest.raises(ValueError):
        generate_ensemble(path3, _config(2.0, 0.5, initial_weights={("A", "B"): 0.0}), 1)
    # NaN compares false with everything, so it used to pass as a weight and
    # an infinite one took every draw
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            generate_ensemble(path3, _config(2.0, 0.5, initial_weights={("A", "B"): bad, ("B", "C"): 1.0}), 1)


def test_initial_weights_frequencies(path3):
    config = _config(20.0, 0.5, initial_weights={("A", "B"): 3.0, ("B", "C"): 1.0}, seed=7)
    ensemble = generate_ensemble(path3, config, 2000)
    counts = Counter(next(iter(gp.pattern.lines)) for gp in ensemble if gp.achieved_size == 1)
    freq = counts[("A", "B")] / sum(counts.values())
    assert freq == pytest.approx(0.75, abs=0.03)


def test_size_distribution_matches_model(mesh480):
    model = ZipfModel(4.09)
    config = GeneratorConfig(size_model=model, p_one_plus=0.3, seed=2)
    ensemble = generate_ensemble(mesh480, config, 1500)
    observed = Counter(min(gp.achieved_size, 4) for gp in ensemble)
    probs = [float(model.pmf(k)) for k in (1, 2, 3)]
    probs.append(1.0 - sum(probs))
    counts = [observed.get(k, 0) for k in (1, 2, 3, 4)]
    result = stats.chisquare(counts, [p * len(ensemble) for p in probs])
    assert result.pvalue > 0.01


def test_generated_patterns_are_connected_subgraphs(mesh480):
    config = _config(2.0, 0.5, p_circuits=0.5, seed=17)
    for gp in generate_ensemble(mesh480, config, 300):
        assert gp.pattern.lines <= mesh480.line_set
        assert _connected(gp.pattern.lines)
        assert gp.achieved_size == len(gp.pattern.lines)
        assert gp.achieved_size <= gp.target_size <= mesh480.n_lines
        assert not gp.saturated
        for line in gp.extra_circuits:
            assert mesh480.multiplicity[line] >= 2


def test_p_circuits_edge_values(mesh480):
    none = generate_ensemble(mesh480, _config(2.5, 0.5, p_circuits=0.0, seed=3), 200)
    assert all(not gp.extra_circuits for gp in none)
    every = generate_ensemble(mesh480, _config(2.5, 0.5, p_circuits=1.0, seed=3), 200)
    for gp in every:
        expected = {line for line in gp.pattern.lines if mesh480.multiplicity[line] >= 2}
        assert gp.extra_circuits == expected
    # growth streams are shared: p_circuits only adds draws after growth
    assert [gp.pattern for gp in none] == [gp.pattern for gp in every]


def test_measure_hand_values():
    chain = GeneratedPattern(_pattern(("A", "B"), ("B", "C"), ("C", "D")), frozenset(), 3, 3)
    star = GeneratedPattern(_pattern(("A", "X"), ("B", "X"), ("C", "X")), frozenset(), 3, 3)
    single = GeneratedPattern(_pattern(("A", "B")), frozenset(), 1, 1)
    assert p_one_plus_observed([chain]) == pytest.approx(1.0)
    assert p_one_plus_observed([star]) == pytest.approx(0.0)
    assert p_one_plus_observed([chain, star]) == pytest.approx(0.5)
    assert p_one_plus_observed([single]) is None
    assert p_one_plus_observed([]) is None


def test_measured_value_increases_with_p(mesh480):
    values = []
    for p in (0.0, 0.5, 1.0):
        ensemble = generate_ensemble(mesh480, _config(2.5, p, seed=29), 3000)
        values.append(p_one_plus_observed(ensemble))
    assert values[0] < values[1] < values[2]


def test_calibration_round_trip(mesh480):
    # common random numbers make the generated value an exact function of p,
    # so calibrating to a measured value recovers a nearby parameter
    probe = generate_ensemble(mesh480, _config(4.09, 0.3, seed=0), 10_000)
    target = p_one_plus_observed(probe)
    result = calibrate_p_one_plus(
        mesh480,
        _config(4.09, 0.5, seed=0),
        target,
        ensemble_size=10_000,
        tolerance=0.01,
    )
    assert result.converged
    assert abs(result.generated_value - target) <= result.tolerance
    assert abs(result.p_one_plus - 0.3) < 0.1
    # endpoints first, then nested brackets
    assert result.steps[0].p_one_plus == 0.0
    assert result.steps[1].p_one_plus == 1.0
    for earlier, later in zip(result.steps[2:], result.steps[3:]):
        assert later.low >= earlier.low
        assert later.high <= earlier.high
        assert earlier.low <= later.p_one_plus <= earlier.high


def test_calibration_unreachable_target(mesh480):
    with pytest.raises(CalibrationError) as info:
        calibrate_p_one_plus(
            mesh480, _config(4.09, 0.5, seed=0), 0.0, ensemble_size=4000, tolerance=0.005
        )
    err = info.value
    assert err.target == 0.0
    assert err.low is not None and err.low > 0.0
    assert err.high is not None


def test_calibration_without_three_line_patterns(path3):
    # targets are truncated at the 2 network lines, so nothing is regrown
    with pytest.raises(CalibrationError, match="3 or more lines"):
        calibrate_p_one_plus(path3, _config(1.5, 0.5, seed=2), 0.5, ensemble_size=500)


def test_calibration_endpoint_accepted(star4):
    # stars never branch at degree-1 buses, so the measured value is 0 at
    # every p and the low endpoint matches a target of 0 immediately
    result = calibrate_p_one_plus(
        star4, _config(2.0, 0.5, seed=1), 0.0, ensemble_size=2000, tolerance=0.005
    )
    assert result.converged
    assert result.p_one_plus == 0.0
    assert len(result.steps) == 1


def test_calibration_target_validation(path3):
    with pytest.raises(ValueError):
        calibrate_p_one_plus(path3, _config(2.0, 0.5), 1.5, ensemble_size=100)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iterations": 0},
        {"max_iterations": -1},
        {"ensemble_size": 0},
        {"ensemble_size": -5},
        {"tolerance": -0.001},
        {"tolerance": float("nan")},
        {"ensemble_size": 2**32},
    ],
)
def test_calibration_rejects_bad_arguments(mesh480, kwargs):
    # max_iterations=0 used to report p_one_plus=0.5 with the value measured
    # at 0, and ensemble_size=0 a misleading "no pattern had 3 lines"
    options = {"ensemble_size": 2000, "tolerance": 0.01, "max_iterations": 20, **kwargs}
    with pytest.raises(ValueError):
        calibrate_p_one_plus(mesh480, _config(4.09, 0.5, seed=3), 0.4, **options)


def test_calibration_matches_full_regeneration_at_every_step(mesh480):
    # calibration regrows only the patterns whose target is 3 or more, from
    # stream states cached after the seed-line and size draws; every step
    # must equal measuring the full ensemble that generate_ensemble gives
    weights = {line: float(i % 4) for i, line in enumerate(mesh480.lines)}
    config = _config(3.0, 0.5, p_circuits=0.4, initial_weights=weights, seed=13)
    size = 3000
    options = {"ensemble_size": size, "tolerance": 0.0, "max_iterations": 4}
    result = calibrate_p_one_plus(mesh480, config, 0.5, **options)
    assert len(result.steps) == 6
    for step in result.steps:
        ensemble = generate_ensemble(mesh480, replace(config, p_one_plus=step.p_one_plus), size)
        assert step.generated_value == p_one_plus_observed(ensemble)


def test_calibration_with_uniform_seed_lines_matches_full_regeneration(mesh480):
    # the uniform seed-line draw leaves half of a 64-bit output buffered for
    # the first draw of growth, so the cached state must carry it
    config = _config(3.0, 0.5, seed=29)
    size = 2000
    result = calibrate_p_one_plus(mesh480, config, 0.5, ensemble_size=size, tolerance=0.0, max_iterations=2)
    for step in result.steps:
        ensemble = generate_ensemble(mesh480, replace(config, p_one_plus=step.p_one_plus), size)
        assert step.generated_value == p_one_plus_observed(ensemble)


def test_saturation_on_small_network(path3):
    ids, _, _ = _grow(path3, 0, 10, 0.5, _stream(1))
    assert ids == {0, 1}
    gp = GeneratedPattern(Pattern(frozenset(path3.lines)), frozenset(), 10, 2)
    assert gp.saturated


def test_calibration_trace_format(star4):
    result = calibrate_p_one_plus(
        star4, _config(2.0, 0.5, seed=1), 0.0, ensemble_size=1000, tolerance=0.005
    )
    text = format_calibration_trace(result)
    assert "target: 0.000000" in text
    assert "step 0: p_one_plus=0.000000" in text
    assert text.endswith("converged: true\n")


def test_generated_pattern_text_round_trip():
    gp = GeneratedPattern(
        _pattern(("A", "B"), ("B", "C")), frozenset({("A", "B")}), 2, 2
    )
    assert format_generated_pattern(gp) == "A-B;B-C|+A-B"


def test_generated_pattern_file_round_trip(tmp_path, mesh480):
    config = _config(2.5, 0.5, p_circuits=0.5, seed=31)
    ensemble = generate_ensemble(mesh480, config, 150)
    path = tmp_path / "generated.txt"
    write_generated_patterns(path, ensemble)
    rows = path.read_text().splitlines()
    assert len(rows) == len(ensemble)
    for original, row in zip(ensemble, rows):
        pattern, *extra = row.split("|")
        assert parse_pattern(pattern) == original.pattern.lines
        assert {parse_line(token.removeprefix("+")) for token in extra} == original.extra_circuits
        assert all(token.startswith("+") for token in extra)


def test_generated_degree_sequences_are_plausible(mesh480):
    # growth at p=1 prefers chain extension; p=0 prefers thickening
    chains = generate_ensemble(mesh480, _config(2.0, 1.0, seed=41), 400)
    chain_seqs = [degree_sequence(gp.pattern) for gp in chains if gp.achieved_size == 3]
    assert chain_seqs.count((2, 2, 1, 1)) > len(chain_seqs) * 0.8
    stars = generate_ensemble(mesh480, _config(2.0, 0.0, seed=41), 400)
    star_seqs = [degree_sequence(gp.pattern) for gp in stars if gp.achieved_size == 3]
    assert star_seqs.count((3, 1, 1, 1)) > len(star_seqs) * 0.8
