"""Growth model: determinism, distributional fidelity, calibration."""

from __future__ import annotations

import hashlib
from collections import Counter, deque
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import grow_oracle

from gridpatterns.errors import CalibrationError, InputFormatError
from gridpatterns.generator import (
    CalibrationResult,
    GeneratedPattern,
    GeneratorConfig,
    _grow,
    _Sampler,
    calibrate_p_one_plus,
    format_calibration_trace,
    format_generated_pattern,
    generate_ensemble,
    generate_pattern,
    measure_p_one_plus_generated,
    parse_generated_pattern,
    read_generated_patterns,
    write_generated_patterns,
)
from gridpatterns.lines import Line
from gridpatterns.network import Network
from gridpatterns.patterns import Pattern, degree_sequence
from gridpatterns.rng import _restore, _saved, substream
from gridpatterns.synthnet import synthetic_network
from gridpatterns.zipf import ZipfModel


def _config(s: float, p: float, **kwargs) -> GeneratorConfig:
    return GeneratorConfig(size_model=ZipfModel(s), p_one_plus=p, **kwargs)


def _pattern(*lines) -> Pattern:
    return Pattern(frozenset(lines))


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
    # only degree-1 attachments exist on a path, so growth is forced
    rng = substream(3)
    lines = _grow(path4, ("A", "B"), 3, 0.0, rng)
    assert lines == {("A", "B"), ("B", "C"), ("C", "D")}
    lines = _grow(path4, ("B", "C"), 2, 0.7, substream(4))
    assert lines in ({("A", "B"), ("B", "C")}, {("B", "C"), ("C", "D")})


def test_grow_respects_target(mesh480):
    rng = substream(9)
    for target in (1, 2, 5, 12):
        lines = _grow(mesh480, mesh480.lines[0], target, 0.4, rng)
        assert len(lines) == target
        assert _connected(lines)


@pytest.fixture(scope="module")
def ba500() -> Network:
    return synthetic_network("ba-like", 500, seed=5)


def _grow_cases(network: Network, pick) -> list[tuple[Line, int]]:
    """(seed line, target) pairs: every pair on a tiny network, else sampled targets up to full cover."""
    n = network.n_lines
    if n <= 4:
        return [(first, target) for first in network.lines for target in range(2, n + 2)]
    cases = []
    for target in (2, 3, 4, 6, 10, 25, 60):
        cases += [(network.lines[int(pick.integers(n))], target) for _ in range(8)]
    for target in (n // 2, n, n + 1):
        cases.append((network.lines[int(pick.integers(n))], target))
    return cases


@pytest.mark.parametrize("name", ["path3", "path4", "star4", "cycle4", "mesh480", "ba500"])
def test_grow_matches_rebuild_oracle_draw_for_draw(name, request):
    # the incremental sides must pick the same lines with the same draws as
    # rebuilding and sorting them every step, and leave the stream in the
    # same state, because the p_circuits draws and calibration follow it
    network = request.getfixturevalue(name)
    for case, (first, target) in enumerate(_grow_cases(network, substream(97))):
        for p_one_plus in (0.0, 0.3, 1.0):
            mine, reference = substream(5, case), substream(5, case)
            grown = _grow(network, first, target, p_one_plus, mine)
            assert grown == grow_oracle.grow(network, first, target, p_one_plus, reference)
            assert mine.bit_generator.state == reference.bit_generator.state
            assert len(grown) == min(target, network.n_lines)


@pytest.mark.parametrize(
    "case, digest",
    [
        ("mesh300", "5cbd2fb258cf231fa52be0bd3478c5210cbb553487d9b2b3429fa2c5ed04e61f"),
        ("mesh480-weighted", "3efe5d2d32b8870e226c90ab3e0e3f45775258a17847c1d6a0c0eee6121a15d9"),
    ],
)
def test_generated_ensemble_bytes_are_pinned(tmp_path, mesh480, case, digest):
    # digests recorded from the rebuild-every-step grower; any change to the
    # draws or picks of generation changes them
    if case == "mesh300":
        network, config = synthetic_network("grid-mesh", 300, seed=3), _config(2.0, 0.4, seed=17)
    else:
        weights = {line: float(i % 4) for i, line in enumerate(mesh480.lines)}
        network, config = mesh480, _config(4.1, 0.4054, p_circuits=0.07, initial_weights=weights, seed=23)
    path = tmp_path / "generated.txt"
    write_generated_patterns(path, generate_ensemble(network, config, 2000))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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
    """The per-pattern first draws: seed-line id, target, then the full stream state after both."""
    first, target = sampler.seed(rng)
    return sampler.network.line_ids[first], target, _saved(rng)


def _head_rows(heads) -> list[tuple[int, int, tuple]]:
    return [(int(h.line_ids[i]), int(h.targets[i]), h.saved(i)) for h in heads for i in range(len(h.targets))]


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**160 + 3])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("k_max", [1, 2, 3, 300, 2000])
def test_heads_match_per_pattern_seed_draws(head_networks, k_max, weighted, seed):
    # the first range crosses the 1024-stream block edge, the second the
    # switch from derived stream states to numpy's at index 2**32
    sampler = _head_sampler(head_networks[k_max], weighted, seed=seed)
    for start, stop in [(0, 1030), (2**32 - 3, 2**32 + 6)]:
        expected = [_seed_draws(sampler, substream(seed, i)) for i in range(start, stop)]
        assert _head_rows(sampler.heads(start, stop)) == expected


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INC = 0x5851F42D4C957F2D14057B7EF767814F


def _fresh_state_with_output(k: int, x: int) -> int:
    """A PCG64 state whose k-th next output is ``x``, with increment _INC.

    XSL-RR does not rotate a state whose top six bits are 0 and outputs the
    xor of its two words; stepping back k times inverts the LCG.
    """
    hi = 0x0123456789ABCDEF
    state, inverse = hi << 64 | (hi ^ x), pow(_PCG_MULT, -1, 1 << 128)
    for _ in range(k):
        state = (state - _INC) * inverse % (1 << 128)
    return state


def _head_of_states(sampler: _Sampler, states: list[int]):
    def words(values):
        return (np.array([v >> 64 for v in values], np.uint64), np.array([v & (2**64 - 1) for v in values], np.uint64))

    return sampler.head(words(states), words([_INC] * len(states)))


def _fresh_draws(sampler: _Sampler, state: int) -> tuple[int, int, tuple]:
    rng = np.random.Generator(np.random.PCG64())
    _restore(rng, (state, _INC, 0, 0))
    return _seed_draws(sampler, rng)


@pytest.mark.parametrize("k_max", [3, 300, 2000])
def test_head_redraws_where_the_bounded_draw_rejects(head_networks, k_max):
    # a first output with low half 0 rejects for any line count that is not
    # a power of two, so numpy draws the buffered high half next
    sampler = _head_sampler(head_networks[k_max], weighted=False)
    states = [_fresh_state_with_output(1, high << 32) for high in (0, 1, 2**31 + 7, 2**32 - 1)]
    states.append(_fresh_state_with_output(1, 12345))
    assert _head_rows([_head_of_states(sampler, states)]) == [_fresh_draws(sampler, s) for s in states]


@pytest.mark.parametrize("weighted", [False, True])
def test_head_size_ties_break_like_the_scalar_draw(head_networks, weighted):
    # a size double equal to a cdf entry must give that entry's size, the
    # least k with cdf(k) >= u; doubles in [0.5, 1) are multiples of 2**-53,
    # so every such entry is a possible draw
    sampler = _head_sampler(head_networks[300], weighted, s=2.0)
    cdf = np.cumsum(np.arange(1, 301, dtype=float) ** -2.0 / ZipfModel(2.0).zeta_s)
    ties = [float(c) for c in cdf[:40] if c >= 0.5]
    states = [_fresh_state_with_output(2, int(u * 2**53) << 11) for u in ties]
    rows = _head_rows([_head_of_states(sampler, states)])
    assert rows == [_fresh_draws(sampler, s) for s in states]
    assert [row[1] for row in rows] == [int(np.searchsorted(cdf, u, "left")) + 1 for u in ties]


@pytest.mark.parametrize("p_circuits", [0.0, 0.07, 1.0])
def test_one_line_patterns_draw_circuits_like_the_scalar_path(mesh480, p_circuits):
    # most s=4.1 patterns are one line; their circuit draw comes from the
    # block arithmetic, not a Generator
    config = _config(4.1, 0.4, p_circuits=p_circuits, seed=19)
    count = 1500
    ensemble = generate_ensemble(mesh480, config, count)
    assert ensemble == [generate_pattern(mesh480, config, substream(19, i)) for i in range(count)]
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


def test_workers_do_not_change_results(mesh480):
    config = _config(2.5, 0.6, p_circuits=0.2, seed=13)
    serial = generate_ensemble(mesh480, config, 42, workers=1)
    parallel = generate_ensemble(mesh480, config, 42, workers=3)
    assert serial == parallel


def test_ensemble_count_validation(path3):
    assert generate_ensemble(path3, _config(2.0, 0.5), 0) == []
    with pytest.raises(ValueError):
        generate_ensemble(path3, _config(2.0, 0.5), -1)


def test_initial_weights_validation(path3):
    rng = substream(0)
    with pytest.raises(ValueError):
        generate_pattern(path3, _config(2.0, 0.5, initial_weights={("Q", "Z"): 1.0}), rng)
    with pytest.raises(ValueError):
        generate_pattern(path3, _config(2.0, 0.5, initial_weights={("A", "B"): -1.0}), rng)
    with pytest.raises(ValueError):
        generate_pattern(path3, _config(2.0, 0.5, initial_weights={("A", "B"): 0.0}), rng)


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
    assert measure_p_one_plus_generated([chain]) == pytest.approx(1.0)
    assert measure_p_one_plus_generated([star]) == pytest.approx(0.0)
    assert measure_p_one_plus_generated([chain, star]) == pytest.approx(0.5)
    assert measure_p_one_plus_generated([single]) is None
    assert measure_p_one_plus_generated([]) is None


def test_measured_value_increases_with_p(mesh480):
    values = []
    for p in (0.0, 0.5, 1.0):
        ensemble = generate_ensemble(mesh480, _config(2.5, p, seed=29), 3000)
        values.append(measure_p_one_plus_generated(ensemble))
    assert values[0] < values[1] < values[2]


def test_calibration_round_trip(mesh480):
    # common random numbers make the generated value an exact function of p,
    # so calibrating to a measured value recovers a nearby parameter
    probe = generate_ensemble(mesh480, _config(4.09, 0.3, seed=0), 10_000)
    target = measure_p_one_plus_generated(probe)
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
        assert step.generated_value == measure_p_one_plus_generated(ensemble)
    assert calibrate_p_one_plus(mesh480, config, 0.5, workers=2, **options) == result


def test_calibration_with_uniform_seed_lines_matches_full_regeneration(mesh480):
    # the uniform seed-line draw leaves half of a 64-bit output buffered for
    # the first draw of growth, so the cached state must carry it
    config = _config(3.0, 0.5, seed=29)
    size = 2000
    result = calibrate_p_one_plus(mesh480, config, 0.5, ensemble_size=size, tolerance=0.0, max_iterations=2)
    for step in result.steps:
        ensemble = generate_ensemble(mesh480, replace(config, p_one_plus=step.p_one_plus), size)
        assert step.generated_value == measure_p_one_plus_generated(ensemble)


def test_saturation_on_small_network(path3):
    lines = _grow(path3, ("A", "B"), 10, 0.5, substream(1))
    assert lines == {("A", "B"), ("B", "C")}
    gp = GeneratedPattern(Pattern(frozenset(lines)), frozenset(), 10, 2)
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
    text = format_generated_pattern(gp)
    assert text == "A-B;B-C|+A-B"
    back = parse_generated_pattern(text)
    assert back.pattern.lines == gp.pattern.lines
    assert back.extra_circuits == gp.extra_circuits
    assert back.target_size == back.achieved_size == 2


def test_parse_generated_pattern_rejects_malformed():
    with pytest.raises(ValueError):
        parse_generated_pattern("A-B|B-C")
    with pytest.raises(ValueError):
        parse_generated_pattern("A-B|+B-C")


def test_generated_pattern_file_round_trip(tmp_path, mesh480):
    config = _config(2.5, 0.5, p_circuits=0.5, seed=31)
    ensemble = generate_ensemble(mesh480, config, 150)
    path = tmp_path / "generated.txt"
    write_generated_patterns(path, ensemble)
    back = read_generated_patterns(path)
    assert len(back) == len(ensemble)
    for original, parsed in zip(ensemble, back):
        assert parsed.pattern.lines == original.pattern.lines
        assert parsed.extra_circuits == original.extra_circuits
    assert measure_p_one_plus_generated(back) == measure_p_one_plus_generated(ensemble)


def test_read_generated_patterns_error_has_line_number(tmp_path):
    path = tmp_path / "generated.txt"
    path.write_text("A-B;B-C\nA-B|+B-C\n")
    with pytest.raises(InputFormatError, match="line 2"):
        read_generated_patterns(path)


def test_generated_degree_sequences_are_plausible(mesh480):
    # growth at p=1 prefers chain extension; p=0 prefers thickening
    chains = generate_ensemble(mesh480, _config(2.0, 1.0, seed=41), 400)
    chain_seqs = [degree_sequence(gp.pattern) for gp in chains if gp.achieved_size == 3]
    assert chain_seqs.count((2, 2, 1, 1)) > len(chain_seqs) * 0.8
    stars = generate_ensemble(mesh480, _config(2.0, 0.0, seed=41), 400)
    star_seqs = [degree_sequence(gp.pattern) for gp in stars if gp.achieved_size == 3]
    assert star_seqs.count((3, 1, 1, 1)) > len(star_seqs) * 0.8
