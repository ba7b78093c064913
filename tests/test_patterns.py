"""Pattern extraction and degree-sequence statistics."""

from collections import Counter
from datetime import datetime

import numpy as np
import pytest

from gridpatterns.distance import empirical_distribution
from gridpatterns.errors import DegenerateDataError, InputFormatError
from gridpatterns.evaluation import permutation_test
from gridpatterns.ingest import GenerationGroup
from gridpatterns.network import Network
from gridpatterns.patterns import (
    Pattern,
    check_degree_sequence,
    degree_sequence,
    estimate_p_circuits,
    extract_patterns,
    format_degree_sequence,
    format_pattern,
    line_count,
    n_one_plus,
    p_one_plus_observed,
    parse_pattern,
    read_patterns_file,
    size_histogram,
    split_into_patterns,
    write_degree_sequence_counts,
    write_patterns_file,
)
from gridpatterns.synthnet import synthetic_network

MINUTE = datetime(2020, 1, 1, 0, 0)


def group(*lines, circuit_counts=None):
    fs = frozenset(lines)
    return GenerationGroup(MINUTE, fs, circuit_counts or {ln: 1 for ln in fs})


def test_split_single_line(path3):
    patterns = split_into_patterns(group(("A", "B")), path3)
    assert len(patterns) == 1
    assert patterns[0].lines == frozenset({("A", "B")})
    assert patterns[0].source_minute == MINUTE


def test_split_two_components():
    net = Network([("A", "B"), ("B", "C"), ("C", "X"), ("X", "Y")])
    patterns = split_into_patterns(group(("A", "B"), ("B", "C"), ("X", "Y")), net)
    assert [p.lines for p in patterns] == [
        frozenset({("A", "B"), ("B", "C")}),
        frozenset({("X", "Y")}),
    ]


def test_split_orders_interleaved_components_by_smallest_line():
    # bus names of the three components interleave: A D F | B E | C G H
    net = Network([("A", "D"), ("D", "F"), ("B", "E"), ("C", "G"), ("C", "H"), ("F", "G"), ("E", "H")])
    g = group(("C", "H"), ("D", "F"), ("B", "E"), ("C", "G"), ("A", "D"))
    patterns = split_into_patterns(g, net)
    assert [sorted(p.lines) for p in patterns] == [
        [("A", "D"), ("D", "F")],
        [("B", "E")],
        [("C", "G"), ("C", "H")],
    ]
    assert patterns == [Pattern(p.lines, source_minute=MINUTE) for p in patterns]


def test_split_loop_is_one_pattern(triangle):
    patterns = split_into_patterns(group(("A", "B"), ("B", "C"), ("A", "C")), triangle)
    assert len(patterns) == 1
    assert len(patterns[0]) == 3


def test_split_rejects_unknown_lines(path3):
    with pytest.raises(ValueError, match="outside the network"):
        split_into_patterns(group(("A", "Z")), path3)


def test_extract_patterns_keeps_minute_order(path4):
    g1 = GenerationGroup(datetime(2020, 1, 1, 0, 0), frozenset({("A", "B")}), {("A", "B"): 1})
    g2 = GenerationGroup(datetime(2020, 1, 1, 0, 1), frozenset({("C", "D")}), {("C", "D"): 1})
    patterns = extract_patterns([g1, g2], path4)
    assert [p.source_minute for p in patterns] == [g1.minute, g2.minute]


def test_pattern_validation():
    with pytest.raises(ValueError, match="no lines"):
        Pattern(frozenset())
    with pytest.raises(ValueError, match="connected"):
        Pattern(frozenset({("A", "B"), ("C", "D")}))
    with pytest.raises(ValueError, match="canonical"):
        Pattern(frozenset({("B", "A")}))


def test_degree_sequence_examples():
    assert degree_sequence([("A", "B")]) == (1, 1)
    assert degree_sequence([("A", "B"), ("B", "C")]) == (2, 1, 1)
    assert degree_sequence([("A", "B"), ("B", "C"), ("A", "C")]) == (2, 2, 2)
    assert degree_sequence(Pattern(frozenset({("A", "B"), ("A", "C"), ("A", "D")}))) == (3, 1, 1, 1)


def test_line_count_from_sequence():
    assert line_count((1, 1)) == 1
    assert line_count((2, 1, 1)) == 2
    assert line_count((3, 2, 2, 1, 1, 1)) == 5
    with pytest.raises(ValueError, match="odd"):
        line_count((2, 1))


def test_check_degree_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        check_degree_sequence(())
    with pytest.raises(ValueError):
        check_degree_sequence((0, 1))
    with pytest.raises(ValueError):
        check_degree_sequence((1, 2))


def test_n_one_plus_special_cases():
    # the two loop shapes count like the chains of the same length
    assert n_one_plus((2, 2, 2)) == 2
    assert n_one_plus((2, 2, 2, 2)) == 3
    # otherwise the count of buses of degree 2 or more
    assert n_one_plus((1, 1)) == 0
    assert n_one_plus((2, 1, 1)) == 1
    assert n_one_plus((2, 2, 1, 1)) == 2
    assert n_one_plus((3, 1, 1, 1)) == 1
    assert n_one_plus((3, 2, 2, 1, 1, 1)) == 3
    assert n_one_plus((2, 2, 2, 2, 2)) == 5


@pytest.mark.parametrize("lines", [3, 5, 9, 17])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_n_one_plus_counts_internal_buses_on_trees(lines, seed):
    tree = synthetic_network("random-tree", lines, seed=seed)
    seq = degree_sequence(tree.lines)
    internal = sum(1 for degree in Counter(bus for line in tree.lines for bus in line).values() if degree >= 2)
    assert n_one_plus(seq) == internal
    # a tree with n lines has n+1 buses, at most n-1 of them internal
    assert 0 <= n_one_plus(seq) <= lines - 1


def test_p_one_plus_observed_hand_values():
    assert p_one_plus_observed([(2, 2, 1, 1)]) == 1.0
    assert p_one_plus_observed([(3, 1, 1, 1)]) == 0.0
    assert p_one_plus_observed([(2, 2, 1, 1), (3, 1, 1, 1)]) == 0.5
    assert p_one_plus_observed([[2, 2, 1, 1], [3, 1, 1, 1]]) == 0.5
    # loops count like chains, all of whose steps extend
    assert p_one_plus_observed([(2, 2, 2)]) == 1.0
    assert p_one_plus_observed([(2, 2, 2, 2)]) == 1.0
    # patterns below 3 lines carry no information
    assert p_one_plus_observed([(1, 1), (2, 1, 1)]) is None
    assert p_one_plus_observed([]) is None
    mixed = [(1, 1)] * 10 + [(2, 2, 1, 1), (3, 1, 1, 1)]
    assert p_one_plus_observed(mixed) == 0.5


def test_p_one_plus_observed_accepts_patterns():
    path = Pattern(frozenset({("A", "B"), ("B", "C"), ("C", "D")}))
    star = Pattern(frozenset({("A", "X"), ("B", "X"), ("C", "X")}))
    assert p_one_plus_observed([path, star]) == 0.5
    assert p_one_plus_observed([path.lines, star.lines]) == 0.5


def test_p_one_plus_in_unit_interval_for_tree_corpora():
    corpus = []
    for seed in range(30):
        tree = synthetic_network("random-tree", 3 + seed % 6, seed=seed)
        corpus.append(degree_sequence(tree.lines))
    value = p_one_plus_observed(corpus)
    assert 0.0 <= value <= 1.0


def test_estimate_p_circuits():
    net = Network(
        [("A", "B"), ("B", "C"), ("C", "D")],
        {("A", "B"): 2, ("B", "C"): 2},
    )
    groups = [
        group(("A", "B"), circuit_counts={("A", "B"): 2}),
        group(("A", "B"), circuit_counts={("A", "B"): 1}),
        group(("C", "D")),
        group(("A", "B"), ("B", "C"), circuit_counts={("A", "B"): 2, ("B", "C"): 1}),
    ]
    assert estimate_p_circuits(groups, net) == pytest.approx(2 / 3)
    single = Network([("A", "B")])
    assert estimate_p_circuits(groups[:1], single) is None
    assert estimate_p_circuits([], net) is None


def test_size_histogram_fractions():
    patterns = (
        [Pattern(frozenset({("A", "B")}))] * 93
        + [Pattern(frozenset({("A", "B"), ("B", "C")}))] * 5
        + [Pattern(frozenset({("A", "B"), ("B", "C"), ("C", "D")}))] * 2
    )
    hist = size_histogram(patterns)
    assert hist.total == 100
    assert hist.frequencies == {1: 0.93, 2: 0.05, 3: 0.02}
    assert hist.sizes == [1, 2, 3]
    with pytest.raises(DegenerateDataError):
        size_histogram([])


def test_pattern_format_round_trip():
    lines = frozenset({("B", "C"), ("A", "B")})
    text = format_pattern(lines)
    assert text == "A-B;B-C"
    assert parse_pattern(text) == lines
    assert parse_pattern("B-C;A-B") == lines
    with pytest.raises(ValueError):
        parse_pattern("")
    with pytest.raises(ValueError):
        parse_pattern("A-B;;B-C")


def test_reserved_characters_rejected_at_format_time():
    with pytest.raises(ValueError, match="reserved"):
        format_pattern(frozenset({("A", "B-1")}))


def test_patterns_file_round_trip(tmp_path):
    patterns = [
        Pattern(frozenset({("A", "B")}), source_minute=MINUTE),
        Pattern(frozenset({("A", "B"), ("B", "C")})),
    ]
    path = tmp_path / "patterns.txt"
    write_patterns_file(path, patterns)
    back = read_patterns_file(path)
    assert [p.lines for p in back] == [p.lines for p in patterns]
    bad = tmp_path / "bad.txt"
    bad.write_text("A-B\nA-B;C-D\n")
    with pytest.raises(InputFormatError, match="line 2"):
        read_patterns_file(bad)


@pytest.mark.parametrize("text", ["A-B;B-A", "A-B;B-C;A-B"])
def test_patterns_file_rejects_repeated_lines(tmp_path, text):
    # a repeated line would collapse, so "A-B;B-A" would read as a one-line pattern
    path = tmp_path / "patterns.txt"
    path.write_text(f"C-D\n{text}\n")
    with pytest.raises(InputFormatError, match=r"patterns\.txt: line 2: pattern names a line twice"):
        read_patterns_file(path)


@pytest.mark.parametrize("bus", ["A,X", "A|X"])
def test_patterns_file_rejects_unwritable_bus_names(tmp_path, bus):
    # '-' and ';' split the tokens; the other reserved characters must not
    # reach a pattern the writer then refuses
    path = tmp_path / "patterns.txt"
    path.write_text(f"C-D\n{bus}-B\n")
    with pytest.raises(InputFormatError, match="line 2"):
        read_patterns_file(path)


def test_patterns_file_keeps_spaces_in_bus_names(tmp_path):
    # a leading space belongs to the bus name, as in the network file, so
    # the pattern reads, writes and reads back with the same lines
    path = tmp_path / "patterns.txt"
    path.write_text("C- A;C-D\n  \n")
    patterns = read_patterns_file(path)
    assert [p.lines for p in patterns] == [frozenset({(" A", "C"), ("C", "D")})]
    again = tmp_path / "again.txt"
    write_patterns_file(again, patterns)
    assert [p.lines for p in read_patterns_file(again)] == [p.lines for p in patterns]


def test_format_degree_sequence():
    assert format_degree_sequence((3, 1, 1, 1)) == "3,1,1,1"
    with pytest.raises(ValueError):
        format_degree_sequence((1, 3, 1, 1))
    with pytest.raises(ValueError):
        format_degree_sequence(())


def test_degree_sequence_counts_csv(tmp_path):
    patterns = [
        Pattern(frozenset({("A", "B")})),
        Pattern(frozenset({("C", "D")})),
        Pattern(frozenset({("A", "B"), ("B", "C")})),
    ]
    path = tmp_path / "counts.csv"
    write_degree_sequence_counts(path, patterns)
    body = path.read_text().splitlines()
    assert body[0] == "degree_sequence,count"
    assert body[1] == '"1,1",2'
    assert body[2] == '"2,1,1",1'


def test_line_count_matches_pattern_size(mesh480):
    from gridpatterns.generator import GeneratorConfig, generate_ensemble
    from gridpatterns.zipf import ZipfModel

    config = GeneratorConfig(size_model=ZipfModel(2.5), p_one_plus=0.4, seed=6)
    for gp in generate_ensemble(mesh480, config, 300):
        assert line_count(degree_sequence(gp.pattern)) == len(gp.pattern.lines)


def test_numpy_integer_degree_sequences_are_sequences():
    # entries of numpy integer type were taken for the lines of a pattern
    plain = [(2, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 1, 1)]
    numpy_ints = [tuple(np.array(seq)) for seq in plain]
    assert p_one_plus_observed(numpy_ints) == p_one_plus_observed(plain) == 0.5
    a, b = empirical_distribution(numpy_ints), empirical_distribution(plain)
    assert a.support == b.support
    assert a.probabilities.tolist() == b.probabilities.tolist()
    other = [(1, 1), (2, 2, 2), (2, 2, 1, 1)]
    assert permutation_test(numpy_ints, other, 19, np.random.default_rng(0)) == permutation_test(
        plain, other, 19, np.random.default_rng(0)
    )
