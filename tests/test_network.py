"""Network construction, the reference attachable-line partition, and network CSV."""

from datetime import datetime

import pytest

from grow_oracle import attachable_lines

from gridpatterns.errors import DegenerateDataError, InputFormatError
from gridpatterns.ingest import OutageRecord
from gridpatterns.network import (
    Network,
    build_network_from_outages,
    read_network_csv,
    write_network_csv,
)


def rec(minute, a, b, circuit="1"):
    return OutageRecord(datetime(2020, 1, 1, 0, minute), a, b, circuit)


def test_network_basics():
    net = Network([("B", "A"), ("B", "C")])
    assert net.lines == (("A", "B"), ("B", "C"))
    assert net.buses == {"A", "B", "C"}
    assert net.n_lines == 2
    assert net.multiplicity[("A", "B")] == 1
    assert net.ends == ((0, 1), (1, 2))
    assert net.incident == ((0,), (0, 1), (1,))


@pytest.mark.parametrize("name", ["mesh480", "ba500"])
def test_integer_ids_follow_sorted_names(name, request):
    # line i is lines[i], bus j the j-th bus name in sorted order
    net = request.getfixturevalue(name)
    names = sorted(net.buses)
    assert len(net.incident) == net.n_buses
    for i, (line, ends) in enumerate(zip(net.lines, net.ends)):
        assert ends == (names.index(line[0]), names.index(line[1]))
        assert all(i in net.incident[bus] for bus in ends)
    assert all(list(ids) == sorted(set(ids)) for ids in net.incident)
    assert sum(map(len, net.incident)) == 2 * net.n_lines


def test_network_rejects_disconnected_and_empty():
    with pytest.raises(ValueError, match="connected"):
        Network([("A", "B"), ("C", "D")])
    with pytest.raises(ValueError, match="no lines"):
        Network([])
    with pytest.raises(ValueError):
        Network([("A", "A")])


def test_network_multiplicity_validation():
    with pytest.raises(ValueError, match="unknown line"):
        Network([("A", "B")], {("A", "C"): 2})
    with pytest.raises(ValueError, match=">= 1"):
        Network([("A", "B")], {("A", "B"): 0})
    net = Network([("A", "B"), ("B", "C")], {("B", "C"): 3})
    assert net.multi_circuit_lines == (("B", "C"),)


def test_build_from_outages_keeps_largest_component():
    records = [rec(0, "A", "B"), rec(1, "B", "C"), rec(2, "D", "E")]
    net = build_network_from_outages(records)
    assert net.lines == (("A", "B"), ("B", "C"))


@pytest.mark.parametrize("order", [1, -1])
def test_build_from_outages_equal_lines_prefers_more_buses(order):
    # a triangle and a 3-line path have 3 lines each; the path has 4 buses
    records = [rec(0, "A", "B"), rec(1, "B", "C"), rec(2, "A", "C"),
               rec(3, "P", "Q"), rec(4, "Q", "R"), rec(5, "R", "S")][::order]
    net = build_network_from_outages(records)
    assert net.lines == (("P", "Q"), ("Q", "R"), ("R", "S"))


@pytest.mark.parametrize("order", [1, -1])
def test_build_from_outages_equal_lines_and_buses_prefers_smaller_bus(order):
    records = [rec(0, "X", "Y"), rec(1, "Y", "Z"), rec(2, "B", "D"), rec(3, "C", "D")][::order]
    net = build_network_from_outages(records)
    assert net.lines == (("B", "D"), ("C", "D"))


def test_build_from_outages_multiplicity_counts_distinct_circuits():
    records = [rec(0, "A", "B", "1"), rec(5, "A", "B", "2"), rec(9, "A", "B", "1")]
    net = build_network_from_outages(records)
    assert net.multiplicity[("A", "B")] == 2


def test_build_from_outages_applies_exclusions_before_component_choice():
    # cutting the bridge B-C leaves two components; the larger one wins
    records = [rec(0, "A", "B"), rec(1, "B", "C"), rec(2, "C", "D"), rec(3, "D", "E")]
    net = build_network_from_outages(records, exclusions=[("B", "C")])
    assert net.lines == (("C", "D"), ("D", "E"))


def test_build_from_outages_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        build_network_from_outages([])
    with pytest.raises(DegenerateDataError):
        build_network_from_outages([rec(0, "A", "B")], exclusions=[("A", "B")])


def test_attachable_path_seed(path3):
    part = attachable_lines(path3, [("A", "B")])
    assert part.at_degree_1 == {("B", "C")}
    assert part.at_degree_2plus == frozenset()


def test_attachable_star_two_spokes(star4):
    part = attachable_lines(star4, [("A", "X"), ("B", "X")])
    assert part.at_degree_1 == frozenset()
    assert part.at_degree_2plus == {("C", "X"), ("D", "X")}


def test_attachable_cycle_pattern(cycle4):
    part = attachable_lines(cycle4, [("A", "B"), ("B", "C")])
    assert part.at_degree_1 == {("C", "D"), ("A", "D")}
    assert part.at_degree_2plus == frozenset()


def test_attachable_line_can_appear_on_both_sides():
    # pattern path A-B-C-D, extra chord A-C: the chord touches A (degree 1)
    # and C (degree 2), so it lands in both partitions
    net = Network([("A", "B"), ("B", "C"), ("C", "D"), ("A", "C")])
    part = attachable_lines(net, [("A", "B"), ("B", "C"), ("C", "D")])
    assert ("A", "C") in part.at_degree_1
    assert ("A", "C") in part.at_degree_2plus


def test_attachable_validation(path3):
    with pytest.raises(ValueError, match="outside the network"):
        attachable_lines(path3, [("A", "Z")])
    with pytest.raises(ValueError, match="no lines"):
        attachable_lines(path3, [])


def test_attachable_partition_properties(mesh480):
    import itertools

    from gridpatterns.generator import GeneratorConfig, generate_ensemble
    from gridpatterns.zipf import ZipfModel

    config = GeneratorConfig(size_model=ZipfModel(3.0), p_one_plus=0.5, seed=2)
    for gp in generate_ensemble(mesh480, config, 200):
        pattern = gp.pattern.lines
        part = attachable_lines(mesh480, pattern)
        union = part.at_degree_1 | part.at_degree_2plus
        assert not union & pattern
        buses = {b for ln in pattern for b in ln}
        neighborhood = {line for line in mesh480.lines if buses & set(line)} - pattern
        assert union == neighborhood
        if len(pattern) < mesh480.n_lines:
            assert union


def test_network_csv_round_trip(tmp_path):
    net = Network([("A", "B"), ("B", "C"), ("C", "A")], {("B", "C"): 2})
    path = tmp_path / "network.csv"
    write_network_csv(path, net)
    assert read_network_csv(path) == net


def test_network_csv_errors(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("from_bus,to_bus\nA,B\n")
    with pytest.raises(InputFormatError, match="header"):
        read_network_csv(path)
    path.write_text("from_bus,to_bus,multiplicity\nA,B,1\nB,A,1\n")
    with pytest.raises(InputFormatError, match="duplicate"):
        read_network_csv(path)
    path.write_text("from_bus,to_bus,multiplicity\nA,B,1\nC,D,1\n")
    with pytest.raises(InputFormatError, match="connected"):
        read_network_csv(path)
    path.write_text("from_bus,to_bus,multiplicity\n")
    with pytest.raises(DegenerateDataError):
        read_network_csv(path)


@pytest.mark.parametrize("bus", ["", "A-X", "A;X", "A|X", "A,X"])
def test_network_csv_rejects_unwritable_bus_names(tmp_path, bus):
    path = tmp_path / "net.csv"
    path.write_text(f'from_bus,to_bus,multiplicity\n"{bus}",B,1\nB,C,1\n')
    with pytest.raises(InputFormatError, match="line 2"):
        read_network_csv(path)
