"""Synthetic network builders and round-trip outage histories."""

from __future__ import annotations

import hashlib
from collections import Counter
from datetime import datetime

import pytest

from gridpatterns.generator import GeneratorConfig
from gridpatterns.ingest import group_into_generations
from gridpatterns.network import Network, build_network_from_outages, write_network_csv
from gridpatterns.patterns import extract_patterns
from gridpatterns import synthnet
from gridpatterns.synthnet import NETWORK_KINDS, synthetic_history, synthetic_network
from gridpatterns.zipf import ZipfModel


@pytest.mark.parametrize("kind", NETWORK_KINDS)
@pytest.mark.parametrize("lines", [1, 2, 7, 61, 480])
def test_exact_line_count_and_connectivity(kind, lines):
    net = synthetic_network(kind, lines, seed=5)
    # Network construction itself enforces connectivity
    assert net.n_lines == lines


@pytest.mark.parametrize(
    "kind, lines, fraction, digest",
    [
        # 5 lines peel a leaf; 300 and 2000 lines trim cycle edges off a
        # spanning tree
        pytest.param("grid-mesh", 5, 0.0, "51493c5c70a3f9f4e2fd96abe18b401d7cb48fdc8aa316e9e5c838c52a92b91e", id="grid-mesh-5"),
        pytest.param("grid-mesh", 300, 0.1, "03dcaefa38cb7d9c7bc4b00fdc8a77dbe26e74637587c4727a430cf7130c953e", id="grid-mesh-300"),
        pytest.param("grid-mesh", 2000, 0.1, "ab674bdf2e481ed44d2c8d3d2fc55346719f3c18adea2f0c98d9dc51f05d344c", id="grid-mesh-2000"),
        pytest.param("random-tree", 200, 0.0, "249d3c543565ebbf688e91e950bc479e24d6c3645030a79dc3a9f4732568ed06", id="random-tree-200"),
        pytest.param("ba-like", 200, 0.0, "556d916e5ccc03605075b87e610335798288bbf94b967f58e17ad97e87c754b2", id="ba-like-200"),
    ],
)
def test_network_bytes_are_pinned(tmp_path, kind, lines, fraction, digest):
    path = tmp_path / "network.csv"
    write_network_csv(path, synthetic_network(kind, lines, fraction, seed=0))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_grid_mesh_is_meshed():
    net = synthetic_network("grid-mesh", 480)
    # 16x16 grid fits exactly; every bus has degree 2..4 and there are
    # many independent cycles
    assert net.n_lines == 480
    assert net.n_buses == 256
    degrees = Counter()
    for a, b in net.lines:
        degrees[a] += 1
        degrees[b] += 1
    assert set(degrees.values()) <= {2, 3, 4}
    assert net.n_lines - (net.n_buses - 1) == 225


def test_grid_mesh_partial_still_connected():
    # sizes that do not match a full grid exercise the trimming path
    for lines in (13, 97, 300):
        net = synthetic_network("grid-mesh", lines, seed=3)
        assert net.n_lines == lines


def test_random_tree_is_a_tree():
    net = synthetic_network("random-tree", 60, seed=9)
    assert net.n_lines == 60
    assert net.n_buses == 61


def test_ba_like_has_heavy_hub():
    net = synthetic_network("ba-like", 200, seed=7)
    degrees = Counter()
    for a, b in net.lines:
        degrees[a] += 1
        degrees[b] += 1
    assert max(degrees.values()) >= 10
    assert net.n_lines == 200


def test_multi_circuit_fraction_bounds():
    net = synthetic_network("grid-mesh", 480, multi_circuit_fraction=0.1, seed=11)
    multi = len(net.multi_circuit_lines)
    # binomial(480, 0.1): mean 48, sd ~6.6
    assert 20 <= multi <= 80
    assert all(net.multiplicity[line] == 2 for line in net.multi_circuit_lines)
    none = synthetic_network("grid-mesh", 100, multi_circuit_fraction=0.0)
    assert not none.multi_circuit_lines
    every = synthetic_network("grid-mesh", 100, multi_circuit_fraction=1.0)
    assert len(every.multi_circuit_lines) == 100


def test_synthetic_network_determinism_and_validation():
    assert synthetic_network("random-tree", 40, 0.2, seed=3) == synthetic_network(
        "random-tree", 40, 0.2, seed=3
    )
    assert synthetic_network("random-tree", 40, seed=3) != synthetic_network(
        "random-tree", 40, seed=4
    )
    with pytest.raises(ValueError):
        synthetic_network("ring", 10)
    with pytest.raises(ValueError):
        synthetic_network("grid-mesh", 0)
    with pytest.raises(ValueError):
        synthetic_network("grid-mesh", 10, multi_circuit_fraction=1.5)


@pytest.mark.parametrize(
    "kind, lines, fraction",
    [("ring", 10, 0.0)]
    + [
        (kind, lines, fraction)
        for kind in NETWORK_KINDS
        for lines, fraction in [(0, 0.0), (2.5, 0.0), (float("nan"), 0.0), (10, -0.1), (10, 1.5), (10, float("nan"))]
    ],
)
def test_bad_arguments_fail_before_any_build(monkeypatch, kind, lines, fraction):
    # the checks come before the build, which for a large ba-like network
    # takes hours
    def refuse(lines, rng):
        raise AssertionError("a builder ran on bad arguments")

    for name in NETWORK_KINDS:
        monkeypatch.setitem(synthnet._EDGE_BUILDERS, name, refuse)
    with pytest.raises(ValueError):
        synthetic_network(kind, lines, fraction)


def test_history_round_trip(mesh480):
    config = GeneratorConfig(ZipfModel(2.5), 0.4, p_circuits=0.6, seed=23)
    records, ensemble = synthetic_history(mesh480, config, 80)
    minutes = {r.timestamp for r in records}
    assert len(minutes) == 80
    groups = group_into_generations(records)
    assert len(groups) == 80
    patterns = extract_patterns(groups, mesh480)
    # one pattern per minute, identical to the ground-truth ensemble
    assert len(patterns) == 80
    for pat, gp in zip(patterns, ensemble):
        assert pat.lines == gp.pattern.lines
    # extra circuits come back as doubled generations
    for group, gp in zip(groups, ensemble):
        doubled = {line for line, n in group.circuit_counts.items() if n == 2}
        assert doubled == set(gp.extra_circuits)


def test_history_covers_network_reconstruction(mesh480):
    # with enough single-line patterns the deduced network is a subgraph
    # of the real one restricted to its largest component
    config = GeneratorConfig(ZipfModel(3.0), 0.4, seed=2)
    records, _ = synthetic_history(mesh480, config, 2000)
    deduced = build_network_from_outages(records, exclusions=())
    assert deduced.line_set <= mesh480.line_set
    assert deduced.n_lines > 400


def test_history_start_minute_and_determinism(path3):
    # pattern i falls in minute i from the fixed start 2020-01-01 00:00
    config = GeneratorConfig(ZipfModel(2.0), 0.5, seed=13)
    records_a, ensemble_a = synthetic_history(path3, config, 10)
    records_b, ensemble_b = synthetic_history(path3, config, 10)
    assert records_a == records_b
    assert ensemble_a == ensemble_b
    assert records_a[0].timestamp == datetime(2020, 1, 1, 0, 0)
    assert max(r.timestamp for r in records_a) == datetime(2020, 1, 1, 0, 9)
