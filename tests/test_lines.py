"""The connected-components walk, against networkx."""

from __future__ import annotations

import random

import networkx as nx

from gridpatterns.lines import canonical_line, components


def _buses(lines) -> set[str]:
    return {bus for line in lines for bus in line}


def test_components_of_nothing():
    assert components([]) == []


def test_components_tree_follows_given_line_order():
    square = [("A", "B"), ("B", "C"), ("C", "D"), ("A", "D")]
    assert components(square) == [(set(square), {("A", "B"), ("A", "D"), ("B", "C")})]
    reordered = square[::-1]
    assert components(reordered) == [(set(square), {("A", "D"), ("A", "B"), ("C", "D")})]


def test_components_match_networkx():
    rng = random.Random(20260)
    for _ in range(400):
        buses = [f"B{i}" for i in range(rng.randint(2, 40))]
        lines = sorted({canonical_line(*rng.sample(buses, 2)) for _ in range(rng.randint(1, 45))})
        rng.shuffle(lines)
        found = components(lines)
        expected = sorted(nx.connected_components(nx.Graph(lines)), key=min)
        assert [_buses(comp) for comp, _ in found] == expected
        assert set().union(*(comp for comp, _ in found)) == set(lines)
        for comp, tree in found:
            buses_here = _buses(comp)
            assert comp == {line for line in lines if line[0] in buses_here}
            # the tree spans its component
            assert tree <= comp
            assert len(tree) == len(buses_here) - 1
            assert _buses(tree) == buses_here
            assert nx.is_connected(nx.Graph(list(tree)))
