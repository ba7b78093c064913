"""Outage parsing, normalization, and grouping into generations."""

import random
import re
from datetime import datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridpatterns import lines
from gridpatterns.errors import InputFormatError
from gridpatterns.ingest import (
    TIMESTAMP_FORMAT,
    GenerationGroup,
    OutageRecord,
    _format_minute,
    _parse_minute,
    group_into_generations,
    load_alias_map,
    load_exclusions,
    normalize_bus,
    parse_outage_file,
    read_generations_csv,
    write_generations_csv,
    write_outage_csv,
)
from gridpatterns.network import read_network_csv

HEADER = "timestamp,from_bus,to_bus,circuit_id,automatic\n"


def write_csv(tmp_path, body, name="outages.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def test_normalize_bus_rules():
    assert normalize_bus("  alpha  ") == "ALPHA"
    assert normalize_bus("big\tcreek  2") == "BIG CREEK 2"
    assert normalize_bus("plain") == "PLAIN"
    assert normalize_bus(" x ", {"X": "Y"}) == "Y"
    # alias lookup happens after normalization, not before
    assert normalize_bus("x", {" x ": "Y"}) == "X"


def test_parse_basic_row_normalization(tmp_path):
    path = write_csv(tmp_path, "2010-05-01 12:03, ALPHA , beta, 1, auto\n")
    result = parse_outage_file(path)
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.timestamp == datetime(2010, 5, 1, 12, 3)
    assert rec.from_bus == "ALPHA"
    assert rec.to_bus == "BETA"
    assert rec.circuit_id == "1"
    assert rec.line == ("ALPHA", "BETA")


def test_automatic_flag_variants(tmp_path):
    body = (
        "2010-05-01 12:03,A,B,1,auto\n"
        "2010-05-01 12:04,A,B,1,AUTO\n"
        "2010-05-01 12:05,A,B,1,1\n"
        "2010-05-01 12:06,A,B,1,True\n"
        "2010-05-01 12:07,A,B,1,planned\n"
        "2010-05-01 12:08,A,B,1,0\n"
    )
    result = parse_outage_file(write_csv(tmp_path, body))
    assert len(result.records) == 4
    assert result.dropped_non_automatic == 2


def test_empty_circuit_id_defaults(tmp_path):
    path = write_csv(tmp_path, "2010-05-01 12:03,A,B,,auto\n")
    assert parse_outage_file(path).records[0].circuit_id == "1"


def test_self_loops_dropped_and_counted(tmp_path):
    body = "2010-05-01 12:03,X,x,1,auto\n2010-05-01 12:03,A,B,1,auto\n"
    result = parse_outage_file(write_csv(tmp_path, body))
    assert len(result.records) == 1
    assert result.dropped_self_loops == 1


def test_alias_map_applied_after_normalization(tmp_path):
    alias_path = tmp_path / "aliases.csv"
    alias_path.write_text("raw_name,canonical_name\n old name ,NEW\n")
    aliases = load_alias_map(alias_path)
    assert aliases == {"OLD NAME": "NEW"}
    path = write_csv(tmp_path, "2010-05-01 12:03,old  name,B,1,auto\n")
    rec = parse_outage_file(path, aliases).records[0]
    assert rec.from_bus == "NEW"


def test_malformed_rows_name_the_line(tmp_path):
    path = write_csv(tmp_path, "2010-05-01 12:03,A,B,1,auto\nnot,enough\n")
    with pytest.raises(InputFormatError, match="line 3"):
        parse_outage_file(path)
    path = write_csv(tmp_path, "2010-05-01 12:03:55,A,B,1,auto\n")
    with pytest.raises(InputFormatError, match="timestamp"):
        parse_outage_file(path)


def test_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,from,to,circ,auto\n")
    with pytest.raises(InputFormatError, match="header"):
        parse_outage_file(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(InputFormatError, match="empty"):
        parse_outage_file(empty)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        parse_outage_file(tmp_path / "nope.csv")


def test_grouping_examples(tmp_path):
    body = (
        "2010-05-01 12:01,A,B,1,auto\n"
        "2010-05-01 12:01,B,C,1,auto\n"
        "2010-05-01 12:02,A,B,1,auto\n"
        "2010-05-01 12:05,A,B,1,auto\n"
        "2010-05-01 12:05,A,B,2,auto\n"
    )
    records = parse_outage_file(write_csv(tmp_path, body)).records
    groups = group_into_generations(records)
    assert len(groups) == 3
    first, second, third = groups
    assert first.lines == frozenset({("A", "B"), ("B", "C")})
    assert second.lines == frozenset({("A", "B")})
    # two circuits of the same line in one minute: one line, circuit count 2
    assert third.lines == frozenset({("A", "B")})
    assert third.circuit_counts[("A", "B")] == 2


def test_grouping_invariants_and_order_independence():
    records = [
        OutageRecord(datetime(2020, 1, 1, 0, i % 7), f"B{i % 5}", f"C{i % 9}", str(i % 2))
        for i in range(40)
    ]
    groups = group_into_generations(records)
    shuffled = records[:]
    random.Random(4).shuffle(shuffled)
    assert group_into_generations(shuffled) == groups
    assert sum(len(g.lines) for g in groups) <= len(records)
    minutes = [g.minute for g in groups]
    assert minutes == sorted(minutes)
    assert set(minutes) <= {r.timestamp.replace(second=0, microsecond=0) for r in records}
    for g in groups:
        assert g.lines
        assert set(g.circuit_counts) == set(g.lines)


def test_generation_group_requires_lines():
    with pytest.raises(ValueError):
        GenerationGroup(datetime(2020, 1, 1), frozenset(), {})


def test_outage_csv_round_trip(tmp_path):
    records = [
        OutageRecord(datetime(2021, 3, 4, 5, 6), "A", "B", "1"),
        OutageRecord(datetime(2021, 3, 4, 5, 7), "B", "C 2", "2"),
    ]
    path = tmp_path / "out.csv"
    write_outage_csv(path, records)
    back = parse_outage_file(path)
    assert back.records == records


def test_generations_csv_round_trip(tmp_path):
    groups = group_into_generations(
        [
            OutageRecord(datetime(2020, 1, 1, 0, 0), "A", "B", "1"),
            OutageRecord(datetime(2020, 1, 1, 0, 0), "A", "B", "2"),
            OutageRecord(datetime(2020, 1, 1, 0, 1), "B", "C", "1"),
        ]
    )
    path = tmp_path / "generations.csv"
    write_generations_csv(path, groups)
    assert read_generations_csv(path) == groups


def test_minutes_round_trip_over_every_year(tmp_path):
    # written minutes are zero-padded to four year digits, so the readers
    # read back every year a datetime can hold
    records = [OutageRecord(datetime(year, 12, 31, 23, 59), "A", "B", "1") for year in range(1, 10000)]
    path = tmp_path / "outages.csv"
    write_outage_csv(path, records)
    assert parse_outage_file(path).records == records
    groups = group_into_generations(records)
    write_generations_csv(path, groups)
    assert read_generations_csv(path) == groups
    assert path.read_text().splitlines()[1] == "0001-12-31 23:59,A,B,1"


@pytest.mark.parametrize("minute", ["2020-01-01 24:00", "2020-02-30 00:00", "2020-01-01", "999-01-01 00:00"])
def test_minute_readers_report_a_bad_minute_alike(tmp_path, minute):
    message = f"line 3: bad timestamp '{minute}', expected YYYY-MM-DD HH:MM"
    outages = write_csv(tmp_path, f"2020-01-01 00:00,A,B,1,auto\n {minute} ,A,B,1,auto\n")
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{outages}: {message}')}$"):
        parse_outage_file(outages)
    generations = tmp_path / "generations.csv"
    generations.write_text(f"minute,from_bus,to_bus,circuits\n2020-01-01 00:00,A,B,1\n {minute} ,A,B,1\n")
    with pytest.raises(InputFormatError, match=f"^{re.escape(f'{generations}: {message}')}$"):
        read_generations_csv(generations)


def _field(value: int, width: int, pad: str, digits: str) -> str:
    text = str(value).rjust(width, pad)
    return text.translate(str.maketrans("0123456789", digits))


ASCII_DIGITS = "0123456789"
FULL_WIDTH_DIGITS = "０１２３４５６７８９"


@st.composite
def minute_texts(draw):
    """Minute-like strings: half in the zero-padded form the writers
    produce, the other half with ASCII or full-width digits, one- or
    two-digit and space-padded fields and whitespace runs between date and
    time; values run out of range in both."""
    padded = draw(st.booleans())
    digits = ASCII_DIGITS if padded else draw(st.sampled_from([ASCII_DIGITS, FULL_WIDTH_DIGITS]))

    def field(top: int, widths) -> str:
        value = draw(st.integers(0, top))
        if padded:
            return _field(value, widths[-1], "0", digits)
        return _field(value, draw(st.sampled_from(widths)), draw(st.sampled_from(["0", " "])), digits)

    year = field(10000, [1, 3, 4])
    month, day, hour, minute = (field(top, [1, 2]) for top in (13, 32, 25, 61))
    space = " " if padded else draw(st.sampled_from([" ", "  ", "\t"]))
    return f"{year}-{month}-{day}{space}{hour}:{minute}"


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=st.one_of(minute_texts(), st.text("0129-: \t", max_size=18)))
@example(text="2020-01-01 24:00")
@example(text="2020-01-01 00:60")
@example(text="0000-01-01 00:00")
@example(text="2020-1-1 1:1")
@example(text="2020-01- 1 00:00")
@example(text="２０２０-０１-０１ ００:００")
def test_parse_minute_agrees_with_strptime(text):
    try:
        expected = datetime.strptime(text, TIMESTAMP_FORMAT)
    except ValueError:
        expected = None
    try:
        got = _parse_minute(text)
    except ValueError as exc:
        assert str(exc) == f"bad timestamp {text!r}, expected YYYY-MM-DD HH:MM"
        got = None
    assert got == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(moment=st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
def test_format_minute_agrees_with_strftime(moment):
    assert _format_minute(moment) == moment.strftime(TIMESTAMP_FORMAT)


@pytest.mark.parametrize("bus", ["A-X", "A;X", "A|X", "A,X"])
def test_parse_outage_file_rejects_unwritable_bus_names(tmp_path, bus):
    body = f'2020-01-01 00:00,C,D,1,auto\n2020-01-01 00:00,"{bus}",B,1,auto\n'
    path = write_csv(tmp_path, body)
    with pytest.raises(InputFormatError, match="line 3"):
        parse_outage_file(path)
    # the check applies after aliasing, so a raw name mapped to a clean one stays legal
    aliases = tmp_path / "aliases.csv"
    aliases.write_text(f'raw_name,canonical_name\n"{bus}",ALPHA\n')
    records = parse_outage_file(path, load_alias_map(aliases)).records
    assert records[1].line == ("ALPHA", "B")


@pytest.mark.parametrize("bus", ["", "A-X", "A;X", "A|X", "A,X"])
def test_generations_csv_rejects_unwritable_bus_names(tmp_path, bus):
    path = tmp_path / "generations.csv"
    path.write_text(f'minute,from_bus,to_bus,circuits\n2020-01-01 00:00,"{bus}",B,1\n')
    with pytest.raises(InputFormatError, match="line 2"):
        read_generations_csv(path)


def test_readers_check_each_distinct_raw_bus_name_once(tmp_path, monkeypatch):
    # files name far fewer buses than they have rows; a raw name is
    # normalised and checked at its first row, and a rejected name is
    # reported at its own row
    checked = []
    check = lines.check_serializable_bus
    monkeypatch.setattr(lines, "check_serializable_bus", lambda name: checked.append(name) or check(name))
    rows = "".join(f"2020-01-01 00:{i:02d},{'a ' if i % 2 else 'A'},B{i % 3},1,auto\n" for i in range(30))
    records = parse_outage_file(write_csv(tmp_path, rows)).records
    assert len(records) == 30
    assert sorted(checked) == ["A", "A", "B0", "B1", "B2"]
    generations = tmp_path / "generations.csv"
    write_generations_csv(generations, group_into_generations(records))
    checked.clear()
    assert read_generations_csv(generations) == group_into_generations(records)
    assert sorted(checked) == ["A", "B0", "B1", "B2"]
    network = tmp_path / "network.csv"
    network.write_text("from_bus,to_bus,multiplicity\nA,B0,1\nA,B1,1\nB1,B2,2\n")
    checked.clear()
    assert read_network_csv(network).n_lines == 3
    assert sorted(checked) == ["A", "B0", "B1", "B2"]
    network.write_text('from_bus,to_bus,multiplicity\nA,B0,1\nA,B1,1\n"A;X",B2,1\n')
    with pytest.raises(InputFormatError, match=r"line 4: bus name 'A;X' contains reserved character ';'"):
        read_network_csv(network)


def test_generations_csv_rejects_repeated_rows(tmp_path):
    # a second row for a minute and line must not overwrite the first one
    path = tmp_path / "generations.csv"
    path.write_text("minute,from_bus,to_bus,circuits\n2020-01-01 00:00,A,B,2\n2020-01-01 00:00,B,A,1\n")
    with pytest.raises(InputFormatError, match=r"generations\.csv: line 3: duplicate line"):
        read_generations_csv(path)
    # the same line in another minute is another generation
    path.write_text("minute,from_bus,to_bus,circuits\n2020-01-01 00:00,A,B,2\n2020-01-01 00:01,B,A,1\n")
    assert [group.circuit_counts for group in read_generations_csv(path)] == [{("A", "B"): 2}, {("A", "B"): 1}]


def test_alias_map_rejects_repeated_raw_names(tmp_path):
    # raw names are compared once normalized, so "X" and "x " are one name
    path = tmp_path / "aliases.csv"
    path.write_text("raw_name,canonical_name\nX,A\nx ,B\n")
    with pytest.raises(InputFormatError, match=r"aliases\.csv: line 3: duplicate raw name 'X'"):
        load_alias_map(path)


def test_outage_row_checks_run_in_order(tmp_path):
    # a non-automatic row is dropped before its bus names are looked at,
    # and a self-loop is found only after both names pass
    body = '2020-01-01 00:00,"A;X",,1,manual\n2020-01-01 00:00, a ,A,1,auto\n2020-01-01 00:00,A,B,1,auto\n'
    result = parse_outage_file(write_csv(tmp_path, body))
    assert (result.dropped_non_automatic, result.dropped_self_loops, len(result.records)) == (1, 1, 1)
    path = write_csv(tmp_path, "bad-time,A;X,B,1,manual\n")
    with pytest.raises(InputFormatError, match="line 2: bad timestamp"):
        parse_outage_file(path)
    path = write_csv(tmp_path, "2020-01-01 00:00,A;X,A;X,1,auto\n")
    with pytest.raises(InputFormatError, match="line 2: bus name 'A;X'"):
        parse_outage_file(path)


@pytest.mark.parametrize("canonical", ["", "A-X", "A;B", "A|X", '"A,X"'])
def test_alias_map_rejects_unwritable_canonical_names(tmp_path, canonical):
    # the fault must be reported against the alias file, not later against
    # the outage row that uses the alias
    path = tmp_path / "aliases.csv"
    path.write_text(f"raw_name,canonical_name\nY,CLEAN\nX,{canonical}\n")
    with pytest.raises(InputFormatError, match=r"aliases\.csv: line 3"):
        load_alias_map(path)


@pytest.mark.parametrize("row", [",A", "A,", " ,A", "A-X,B", "A,B|C", "A,\"B,C\""])
def test_load_exclusions_rejects_empty_and_unwritable_bus_names(tmp_path, row):
    # an exclusion with an empty bus matches no line and would be void
    path = tmp_path / "exclusions.csv"
    path.write_text(f"from_bus,to_bus\nA,B\n{row}\n")
    with pytest.raises(InputFormatError, match=r"exclusions\.csv: line 3"):
        load_exclusions(path)
    # the check applies after aliasing, so a raw name mapped to a clean one stays legal
    aliases = tmp_path / "aliases.csv"
    aliases.write_text('raw_name,canonical_name\nA-X,ALPHA\n')
    if row == "A-X,B":
        assert load_exclusions(path, load_alias_map(aliases)) == [("A", "B"), ("ALPHA", "B")]


def test_load_exclusions_normalizes(tmp_path):
    path = tmp_path / "exclusions.csv"
    path.write_text("from_bus,to_bus\n beta ,ALPHA\n")
    assert load_exclusions(path) == [("ALPHA", "BETA")]
    bad = tmp_path / "bad.csv"
    bad.write_text("from_bus,to_bus\nX,X\n")
    with pytest.raises(InputFormatError):
        load_exclusions(bad)
