"""The connected-components walk, against networkx, and the CSV table format."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from gridpatterns.errors import InputFormatError
from gridpatterns.lines import canonical_line, components, read_table, write_table


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


def test_table_round_trip_and_shared_rules(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ("name", "count"), [("A B", 1), ("C,D", 2)])
    assert path.read_bytes() == b'name,count\nA B,1\n"C,D",2\n'
    assert read_table(path, ("name", "count"), lambda name, count: (name, int(count))) == [("A B", 1), ("C,D", 2)]
    # the header is trimmed and case-insensitive, and blank rows are skipped
    path.write_text(" Name ,COUNT\n\nA,1\n\n")
    assert read_table(path, ("name", "count"), lambda *row: row) == [("A", "1")]


@pytest.mark.parametrize(
    "text, match",
    [
        ("", r"table\.csv: empty file, expected header name,count"),
        ("name,total\nA,1\n", r"table\.csv: bad header 'name,total', expected 'name,count'"),
        ("name,count\nA,1\n\nB\n", r"table\.csv: line 4: expected 2 fields, got 1"),
        ("name,count\nA,1\nB,x\n", r"table\.csv: line 3: invalid literal"),
        ("name,count\nA,1\n" + "B" * 200_000 + ",1\n", r"table\.csv: line 3: field larger than field limit"),
    ],
)
def test_table_errors_name_file_and_line(tmp_path, text, match):
    path = tmp_path / "table.csv"
    path.write_text(text)
    with pytest.raises(InputFormatError, match=match):
        read_table(path, ("name", "count"), lambda name, count: int(count))
