"""Degree-sequence edit distance and Wasserstein distance, checked against
independent oracles (see seq_oracle)."""

import itertools
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seq_oracle import (
    best_first_distance,
    brute_force_transport,
    connected_graph_sequences,
    eg_connected_valid,
    havel_hakimi_connected_valid,
    oracle_distance,
    oracle_graph,
    partitions_with_sum,
    valid_sequences,
)

from gridpatterns.distance import (
    PatternDistribution,
    SequenceGraph,
    TransportSolver,
    empirical_distribution,
    _alignment_bound,
    _contour_search,
    _moves,
    _north_west_cost,
    _valid_canonical,
    sequence_distance,
    sequence_neighbors,
    wasserstein,
)
from gridpatterns.errors import DegenerateDataError
from gridpatterns.generator import GeneratorConfig, generate_ensemble
from gridpatterns.patterns import Pattern, line_count
from gridpatterns.synthnet import synthetic_network
from gridpatterns.zipf import ZipfModel


def all_candidates(lines):
    """Every nonincreasing positive tuple that could conceivably be the
    degree sequence of an ``lines``-line graph."""
    return [seq for seq in partitions_with_sum(2 * lines) if len(seq) <= lines + 1]


def test_validity_matches_graph_enumeration():
    # ground truth by exhaustive enumeration of connected simple graphs
    enumerated = connected_graph_sequences(5)
    for lines in range(1, 6):
        truth = enumerated[lines]
        for seq in all_candidates(lines):
            assert _valid_canonical(seq) == (seq in truth), seq


def test_validity_matches_erdos_gallai_to_eight_lines():
    for lines in range(1, 9):
        for seq in all_candidates(lines):
            assert _valid_canonical(seq) == eg_connected_valid(seq), seq


def test_validity_spot_cases():
    assert _valid_canonical((1, 1))
    assert _valid_canonical((2, 1, 1))
    assert _valid_canonical((2, 2, 2))
    assert _valid_canonical((4, 1, 1, 1, 1))
    # odd sum
    assert not _valid_canonical((1, 1, 1))
    # graphical but forced disconnected: two separate edges
    assert not _valid_canonical((1, 1, 1, 1))
    # not graphical at all
    assert not _valid_canonical((3, 3, 1, 1))
    assert not _valid_canonical((2,))
    # not sequences of a pattern at all
    for seq in [(), (0, 1)]:
        with pytest.raises(ValueError):
            sequence_neighbors(seq)


def test_validity_matches_havel_hakimi_to_ten_lines():
    for lines in range(1, 11):
        for seq in all_candidates(lines):
            assert _valid_canonical(seq) == havel_hakimi_connected_valid(seq), seq


def test_validity_matches_havel_hakimi_on_long_sequences():
    # 50 to 600 buses, beyond reach of graph enumeration; the degree caps
    # give both verdicts, for connectivity as well as for graphicality
    rng = np.random.default_rng(20031)
    verdicts = []
    for _ in range(240):
        buses = int(rng.integers(50, 601))
        top = int(rng.choice([2, 3, 6, 12, 40, 200]))
        degrees = rng.integers(1, min(top, buses - 1) + 1, size=buses)
        degrees[0] += int(degrees.sum()) % 2
        seq = tuple(sorted(degrees.tolist(), reverse=True))
        expected = havel_hakimi_connected_valid(seq)
        assert _valid_canonical(seq) == expected, seq
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_additions_of_two_line_chain():
    # all connected 3-line graphs: the triangle, the 4-chain, and the star
    assert set(_moves((2, 1, 1), 1)) == {(2, 2, 2), (2, 2, 1, 1), (3, 1, 1, 1)}


def test_additions_match_graph_enumeration():
    enumerated = connected_graph_sequences(5)
    for lines in range(1, 5):
        for seq in enumerated[lines]:
            assert set(_moves(seq, 1)) <= enumerated[lines + 1]


def test_removals_of_triangle():
    assert set(_moves((2, 2, 2), -1)) == {(2, 1, 1)}


def test_neighbors_of_single_line():
    assert sequence_neighbors((1, 1)) == {(2, 1, 1)}
    assert _moves((1, 1), -1) == ()


def test_additions_removals_are_dual():
    by_lines = valid_sequences(6)
    for lines in range(1, 6):
        for seq in by_lines[lines]:
            for up in _moves(seq, 1):
                assert seq in _moves(up, -1), (seq, up)
            for down in _moves(seq, -1):
                assert seq in _moves(down, 1), (seq, down)


def test_neighbors_match_oracle_graph():
    graph = oracle_graph(6)
    for lines in range(1, 6):
        for seq in valid_sequences(6)[lines]:
            mine = {nb for nb in sequence_neighbors(seq) if line_count(nb) <= 6}
            assert mine == set(graph.neighbors(seq)), seq


def test_distance_examples():
    assert sequence_distance((1, 1), (2, 1, 1)) == 1
    assert sequence_distance((2, 1, 1), (1, 1)) == 1
    assert sequence_distance((1, 1), (1, 1)) == 0
    assert sequence_distance((2, 2, 1, 1), (2, 2, 2)) == 2
    assert sequence_distance((1, 1), (3, 1, 1, 1)) == 2


def test_distance_matches_uncapped_oracle_exhaustively():
    # every pair of sequences with at most 4 lines, against networkx BFS on
    # a graph that extends well past every shortest path between them
    nodes = [seq for lines in range(1, 5) for seq in valid_sequences(4)[lines]]
    for a, b in itertools.combinations_with_replacement(nodes, 2):
        expected = oracle_distance(a, b, max_lines=8)
        assert sequence_distance(a, b) == expected, (a, b)


def test_metric_axioms_on_random_sequences():
    rng = np.random.default_rng(42)
    nodes = [seq for lines in range(1, 6) for seq in valid_sequences(5)[lines]]
    graph = SequenceGraph()
    for _ in range(120):
        a, b, c = (nodes[int(rng.integers(len(nodes)))] for _ in range(3))
        dab = graph.distance(a, b)
        assert dab == graph.distance(b, a)
        assert (dab == 0) == (a == b)
        assert graph.distance(a, c) <= dab + graph.distance(b, c)
        # each edit changes the line count by exactly one
        assert dab >= abs(line_count(a) - line_count(b))


def test_sequence_graph_rejects_invalid_nodes():
    graph = SequenceGraph()
    with pytest.raises(ValueError):
        graph.distance((1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        graph.distance((3, 3, 1, 1), (1, 1))
    with pytest.raises(ValueError):
        sequence_distance((1, 2), (1, 1))
    # every entry point shares one node check
    for seq in ((3, 3, 1, 1), (1, 1, 1, 1), (1, 1, 1), (1, 2), (2,), ()):
        for call in (
            sequence_neighbors,
            lambda s: sequence_distance(s, (1, 1)),
            lambda s: graph.distance_matrix([s], [(1, 1)]),
        ):
            with pytest.raises(ValueError):
                call(seq)


def test_distance_matrix_matches_pairwise():
    nodes = [(1, 1), (2, 1, 1), (2, 2, 2), (3, 1, 1, 1)]
    graph = SequenceGraph()
    matrix = graph.distance_matrix(nodes, nodes)
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert matrix[i, j] == graph.distance(a, b)


def test_distances_where_internal_bounds_disagree():
    # chain of 4 vs star of 4: flattening a degree-4 hub takes 4 edits, and
    # the top-degree climb term makes the counting bound tight on its own
    chain4, star4 = (2, 2, 2, 1, 1), (4, 1, 1, 1, 1)
    assert _alignment_bound(chain4, star4) == 4
    assert sequence_distance(chain4, star4) == 4

    # growing a ring by two buses really takes 4 edits (open the ring, hang
    # two leaves, close it); the counting bound misses the open/close pair,
    # so the first contour fails and the second settles it
    ring3, ring5 = (2, 2, 2), (2, 2, 2, 2, 2)
    graph = SequenceGraph()
    assert _alignment_bound(ring3, ring5) == 2
    assert graph.distance(ring3, ring5) == 4
    assert graph.settled_by == {1: 1}
    assert oracle_distance(ring3, ring5, max_lines=7) == 4

    # the bound is tight here, but the search still has to construct a
    # 6-edit path to certify it, far below the through-the-bottom path
    a = (3, 3, 2, 2, 2, 2, 1, 1, 1, 1)
    b = (6, 4, 1, 1, 1, 1, 1, 1, 1, 1)
    graph = SequenceGraph()
    assert _alignment_bound(a, b) == 6
    assert graph.distance(a, b) == 6
    assert graph.settled_by == {0: 1}
    assert oracle_distance(a, b, max_lines=12) == 6

    # on each pair a pass from a meets some node too deep to reach b from it
    # before meeting it again shallower on a shortest path; a search that
    # skipped every node met before would return 6, 7 and 9 from a
    cases = {
        ((3, 3, 3, 2, 2, 2, 1), (3, 3, 3, 3)): (4, 0),
        ((3, 2, 2, 2, 2, 2, 2, 1), (4, 3, 3, 2, 2)): (5, 0),
        ((2,) * 8, (4, 3, 3, 2, 2)): (7, 1),
    }
    for (a, b), (dist, contour) in cases.items():
        assert _contour_search(a, b) == _contour_search(b, a) == (dist, contour)
        assert oracle_distance(a, b, max_lines=12) == dist


def _quickstart_support():
    """The degree sequences of two quick-start-sized ensembles: 5000
    patterns each at the fitted parameters, on the 300-line mesh."""
    network = synthetic_network("grid-mesh", 300, multi_circuit_fraction=0.1, seed=5)
    patterns = [
        g.pattern
        for seed in (1, 2)
        for g in generate_ensemble(network, GeneratorConfig(ZipfModel(4.0975), 0.3438, p_circuits=0.0744, seed=seed), 5000)
    ]
    return empirical_distribution(patterns).support


def test_first_contour_settles_every_pair_of_a_quickstart_support():
    support = _quickstart_support()
    graph = SequenceGraph()
    graph.distance_matrix(support, support)
    n = len(support)
    assert n > 15
    assert graph.settled_by == {0: n * (n - 1) // 2}


def test_contour_search_matches_the_oracle_exhaustively():
    # every pair of sequences with at most 7 lines (2 701 pairs), against
    # networkx BFS on a graph three lines taller; at 8 lines this takes
    # about 1.5 s.  Exactly the 16 pairs with distance above the bound need a
    # second contour, and each of them has a side with no degree-1 bus.
    nodes = [seq for lines in range(1, 8) for seq in valid_sequences(7)[lines]]
    oracle = oracle_graph(10)
    graph = SequenceGraph()
    for a in nodes:
        truth = nx.single_source_shortest_path_length(oracle, a)
        for b in nodes:
            if a >= b:
                continue
            got = graph.distance(a, b)
            assert got == truth[b], (a, b)
            if got > _alignment_bound(a, b):
                assert 1 not in a or 1 not in b, (a, b)
    assert graph.settled_by == {0: 2685, 1: 16}


def _leafless_sequence(rng, lines: int, buses: int):
    """A random connected-graphical sequence with every degree at least 2, or None."""
    degrees = np.full(buses, 2)
    np.add.at(degrees, rng.integers(0, buses, size=2 * (lines - buses)), 1)
    seq = tuple(sorted(degrees.tolist(), reverse=True))
    return seq if havel_hakimi_connected_valid(seq) else None


def test_contour_search_matches_best_first_search_on_leafless_pairs():
    # only pairs without a leaf on one side have needed a later contour, and
    # at up to 30 lines they are beyond networkx; b lies within two lines
    # and two buses of a, which keeps the distances small
    rng = np.random.default_rng(2701)
    graph = SequenceGraph()
    pairs = set()
    while len(pairs) < 200:
        lines = int(rng.integers(3, 31))
        buses = int(rng.integers(3, lines + 1))
        lines_b = int(np.clip(lines + rng.integers(-2, 3), 3, 30))
        buses_b = int(np.clip(buses + rng.integers(-2, 3), 3, lines_b))
        a, b = _leafless_sequence(rng, lines, buses), _leafless_sequence(rng, lines_b, buses_b)
        if a and b and a != b:
            pairs.add((min(a, b), max(a, b)))
    for a, b in sorted(pairs):
        upper = line_count(a) + line_count(b) - 2
        assert graph.distance(a, b) == best_first_distance(a, b, _alignment_bound(a, b), upper), (a, b)
    assert graph.settled_by == {0: 149, 1: 51}


def test_distance_deeper_than_the_recursion_limit():
    # a single line grown into an 1 100-line chain, one added line a step
    chain = (2,) * 1099 + (1, 1)
    assert line_count(chain) == 1100 > sys.getrecursionlimit()
    assert SequenceGraph().distance((1, 1), chain) == 1099


def test_empirical_distribution_counts():
    dist = empirical_distribution([(1, 1), (1, 1), (2, 1, 1)])
    assert dist.support == ((1, 1), (2, 1, 1))
    assert dist.probabilities.tolist() == [2 / 3, 1 / 3]


def test_empirical_distribution_accepts_patterns_and_wrappers():
    from gridpatterns.generator import GeneratedPattern

    pat = Pattern(frozenset({("A", "B"), ("B", "C")}))
    wrapped = GeneratedPattern(
        pattern=pat, extra_circuits=frozenset({("A", "B")}), target_size=2, achieved_size=2
    )
    dist = empirical_distribution([pat, wrapped])
    # the extra circuit does not change the degree sequence
    assert dist.support == ((2, 1, 1),)
    assert dist.probabilities.tolist() == [1.0]
    with pytest.raises(DegenerateDataError):
        empirical_distribution([])


def test_pattern_distribution_validation():
    with pytest.raises(ValueError):
        PatternDistribution(((1, 1),), np.array([0.5]))
    with pytest.raises(ValueError):
        PatternDistribution(((1, 1), (1, 1)), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PatternDistribution(((1, 1), (2, 1, 1)), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        PatternDistribution(((1, 1),), np.array([[1.0]]))
    # NaN passes both a "< 0" test and a sum test, so finiteness is checked
    for bad in ([np.nan], [np.inf], [1.0, np.nan], [np.inf, -np.inf]):
        with pytest.raises(ValueError):
            PatternDistribution(((1, 1), (2, 1, 1))[: len(bad)], np.array(bad))


def test_wasserstein_identity_and_point_masses():
    a = empirical_distribution([(1, 1)] * 5)
    b = empirical_distribution([(3, 1, 1, 1)] * 5)
    value, plan = wasserstein(a, a)
    assert value == 0.0
    value, plan = wasserstein(a, b)
    assert value == pytest.approx(2.0, abs=1e-9)
    assert plan.matrix.shape == (1, 1)


def test_wasserstein_mixture_example():
    a = empirical_distribution([(1, 1)] * 10)
    b = empirical_distribution([(1, 1)] * 9 + [(3, 1, 1, 1)])
    value, _ = wasserstein(a, b)
    assert value == pytest.approx(0.2, abs=1e-9)


def test_wasserstein_interpretation_line_changes():
    # moving one of ten samples across one edit costs 1/10
    a = empirical_distribution([(1, 1)] * 10)
    b = empirical_distribution([(1, 1)] * 9 + [(2, 1, 1)])
    value, _ = wasserstein(a, b)
    assert round(value * 10) == 1


def test_wasserstein_plan_marginals_and_objective():
    rng = np.random.default_rng(3)
    nodes = [seq for lines in range(1, 5) for seq in valid_sequences(4)[lines]]
    graph = SequenceGraph()
    for _ in range(20):
        support_a = [nodes[i] for i in rng.choice(len(nodes), size=3, replace=False)]
        support_b = [nodes[i] for i in rng.choice(len(nodes), size=3, replace=False)]
        pa = PatternDistribution(tuple(support_a), rng.dirichlet(np.ones(3)))
        pb = PatternDistribution(tuple(support_b), rng.dirichlet(np.ones(3)))
        value, plan = wasserstein(pa, pb)
        assert np.allclose(plan.matrix.sum(axis=1), pa.probabilities, atol=1e-8)
        assert np.allclose(plan.matrix.sum(axis=0), pb.probabilities, atol=1e-8)
        cost = graph.distance_matrix(pa.support, pb.support)
        assert value == pytest.approx(float((plan.matrix * cost).sum()), abs=1e-9)


def test_wasserstein_matches_brute_force_vertices():
    rng = np.random.default_rng(7)
    nodes = [seq for lines in range(1, 5) for seq in valid_sequences(4)[lines]]
    graph = SequenceGraph()
    for _ in range(30):
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        support_a = [nodes[i] for i in rng.choice(len(nodes), size=na, replace=False)]
        support_b = [nodes[i] for i in rng.choice(len(nodes), size=nb, replace=False)]
        pa = PatternDistribution(tuple(support_a), rng.dirichlet(np.ones(na)))
        pb = PatternDistribution(tuple(support_b), rng.dirichlet(np.ones(nb)))
        value, _ = wasserstein(pa, pb)
        cost = graph.distance_matrix(pa.support, pb.support)
        expected = brute_force_transport(cost, pa.probabilities, pb.probabilities)
        assert value == pytest.approx(expected, abs=1e-6)


def test_wasserstein_metric_properties_on_distributions():
    rng = np.random.default_rng(11)
    nodes = [seq for lines in range(1, 5) for seq in valid_sequences(4)[lines]]
    graph = SequenceGraph()

    def random_distribution():
        size = int(rng.integers(1, 4))
        support = [nodes[i] for i in rng.choice(len(nodes), size=size, replace=False)]
        return PatternDistribution(tuple(support), rng.dirichlet(np.ones(size)))

    for _ in range(15):
        pa, pb, pc = random_distribution(), random_distribution(), random_distribution()
        dab, _ = wasserstein(pa, pb)
        dba, _ = wasserstein(pb, pa)
        assert dab == pytest.approx(dba, abs=1e-9)
        dself, _ = wasserstein(pa, pa)
        assert dself == pytest.approx(0.0, abs=1e-9)
        dac, _ = wasserstein(pa, pc)
        dbc, _ = wasserstein(pb, pc)
        assert dac <= dab + dbc + 1e-9


def test_transport_solver_reuse():
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    solver = TransportSolver(cost)
    v1, _ = solver.solve(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    v2, _ = solver.solve(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert v1 == pytest.approx(1.0, abs=1e-12)
    assert v2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "p, q",
    [
        ([1.0], [0.0, 1.0]),  # p does not match the cost's rows
        ([1.0, 0.0], [1.0]),  # q does not match the cost's columns
        ([[1.0, 0.0]], [0.0, 1.0]),  # not a vector
        ([2.0, -1.0], [0.5, 0.5]),  # negative mass
        ([1.0, 0.0], [1.5, -0.5]),
        ([np.nan, 1.0], [0.5, 0.5]),
        (np.array([1, 2]), np.array([2, 2])),  # integer totals differ by one
        ([0.5, 0.5], [0.5, 0.5 + 1e-8]),  # float totals beyond 1e-9 relative
    ],
)
def test_transport_solver_rejects_bad_masses(p, q):
    solver = TransportSolver(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        solver.solve(p, q)


def test_transport_solver_accepts_float_totals_within_tolerance():
    solver = TransportSolver(np.array([[0.0, 1.0], [1.0, 0.0]]))
    value, _ = solver.solve([0.5, 0.5], [0.25, 0.75 + 1e-12])
    assert value == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("cost", [np.ones(3), np.array([[0.0, -1.0]]), np.array([[0.0, np.inf]])])
def test_transport_solver_rejects_bad_costs(cost):
    with pytest.raises(ValueError):
        TransportSolver(cost)


def test_transport_solver_exact_on_integer_counts():
    """Counts scaled to n_a * n_b give the brute-force optimum times
    n_a * n_b exactly, as a Python int, with exact marginals."""
    rng = np.random.default_rng(23)
    nodes = [seq for lines in range(1, 5) for seq in valid_sequences(4)[lines]]
    graph = SequenceGraph()
    for _ in range(40):
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        support_a = [nodes[i] for i in rng.choice(len(nodes), size=na, replace=False)]
        support_b = [nodes[i] for i in rng.choice(len(nodes), size=nb, replace=False)]
        counts_a = rng.multinomial(int(rng.integers(1, 30)), np.ones(na) / na)
        counts_b = rng.multinomial(int(rng.integers(1, 30)), np.ones(nb) / nb)
        n_a, n_b = int(counts_a.sum()), int(counts_b.sum())
        cost = graph.distance_matrix(support_a, support_b)
        value, plan = TransportSolver(cost).solve(counts_a * n_b, counts_b * n_a)
        expected = brute_force_transport(cost, counts_a / n_a, counts_b / n_b)
        assert type(value) is int
        assert value == round(expected * n_a * n_b)
        assert np.array_equal(plan.sum(axis=1), counts_a * n_b)
        assert np.array_equal(plan.sum(axis=0), counts_b * n_a)
        assert value == int((plan * cost.astype(np.int64)).sum())


def test_transport_on_excess_equals_full_transport():
    """Under a sequence metric, moving only the excess of one count vector
    over the other costs as much as moving the full masses."""
    rng = np.random.default_rng(29)
    nodes = [seq for lines in range(1, 5) for seq in valid_sequences(4)[lines]]
    graph = SequenceGraph()
    for _ in range(40):
        size = int(rng.integers(1, 7))
        support = [nodes[i] for i in rng.choice(len(nodes), size=size, replace=False)]
        solver = TransportSolver(graph.distance_matrix(support, support))
        a = rng.multinomial(int(rng.integers(1, 40)), np.ones(size) / size)
        b = rng.multinomial(int(rng.integers(1, 40)), np.ones(size) / size)
        full, _ = solver.solve(a * b.sum(), b * a.sum())
        excess = a * b.sum() - b * a.sum()
        moved, _ = solver.solve(np.maximum(excess, 0), np.maximum(-excess, 0))
        assert type(moved) is int
        assert moved == full


NODES = [seq for lines in range(1, 6) for seq in valid_sequences(5)[lines]]


@st.composite
def transport_instances(draw):
    """A support of valid sequences and two pairs of equal-total integer
    masses over it, scaled as the permutation test scales its halves."""
    support = draw(st.lists(st.sampled_from(NODES), min_size=1, max_size=8, unique=True))
    counts = st.lists(st.integers(0, 12), min_size=len(support), max_size=len(support)).filter(any)
    masses = []
    for _ in range(2):
        a, b = np.array(draw(counts)), np.array(draw(counts))
        masses.append((a * b.sum(), b * a.sum()))
    return support, masses


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transport_instances())
def test_transport_potential_and_plan_bound_the_optimum(instance):
    support, [(p, q), (fresh_p, fresh_q)] = instance
    cost = SequenceGraph().distance_matrix(support, support).astype(np.int64)
    solver = TransportSolver(cost)
    value, _ = solver.solve(p, q)
    f = solver._potential()
    assert f.dtype == np.int64 and f[0] == 0
    # 1-Lipschitz under the cost, and optimal on its own solve
    assert np.all(np.abs(f[:, None] - f[None, :]) <= cost)
    assert f @ (q - p) == value
    fresh, _ = TransportSolver(cost).solve(fresh_p, fresh_q)
    assert abs(f @ (fresh_p - fresh_q)) <= fresh <= _north_west_cost(cost, fresh_p, fresh_q)


def test_transport_potential_is_zero_without_supply():
    solver = TransportSolver(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert solver.solve(np.array([0, 0]), np.array([0, 0]))[0] == 0
    assert np.array_equal(solver._potential(), [0, 0])
