"""Fuzzed input files: every reader returns or raises a package error, and
what a reader returns its writer writes and the reader reads back equal."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridpatterns.errors import DegenerateDataError, InputFormatError
from gridpatterns.ingest import (
    GENERATION_COLUMNS,
    OUTAGE_COLUMNS,
    load_alias_map,
    load_exclusions,
    parse_outage_file,
    read_generations_csv,
    write_generations_csv,
)
from gridpatterns.lines import check_serializable_bus, format_line, read_table
from gridpatterns.network import read_network_csv, write_network_csv
from gridpatterns.patterns import read_patterns_file, write_patterns_file

CHARS = 'AB C-;|,"\n120'
TEXTS = st.text(alphabet=CHARS, max_size=40)


def _csv(header: str, rows) -> str:
    return header + "".join(",".join(row) + "\n" for row in rows)


# rows of three short fields reach past the row checks far more often
ROWS = st.lists(
    st.tuples(st.text(CHARS, max_size=2), st.text(CHARS, max_size=2), st.text("12 ", min_size=1, max_size=2)),
    max_size=3,
).map(lambda rows: _csv("", rows))
HEADER = "from_bus,to_bus,multiplicity\n"
# a well-formed field or a fuzzed one, so that rows get past the field checks
MINUTES = st.one_of(st.sampled_from(["2020-01-01 00:00", "2020-01-01 00:01"]), st.text(CHARS, max_size=3))
FLAGS = st.one_of(st.sampled_from(["auto", "manual"]), st.text(CHARS, max_size=2))
BUS = st.text(CHARS, max_size=3)
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)


def _write(directory: str, name: str, text: str) -> Path:
    path = Path(directory) / name
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


@FUZZ
@given(header=st.booleans(), body=st.one_of(TEXTS, ROWS))
def test_network_reader_fuzz(header, body):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "network.csv", (HEADER if header else "") + body)
        try:
            network = read_network_csv(path)
        except (InputFormatError, DegenerateDataError):
            return
        # whatever reads must write and read back equal
        again = Path(directory) / "again.csv"
        write_network_csv(again, network)
        assert read_network_csv(again) == network


@FUZZ
@given(body=TEXTS)
def test_patterns_reader_fuzz(body):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "patterns.txt", body)
        try:
            patterns = read_patterns_file(path)
        except (InputFormatError, DegenerateDataError):
            return
        again = Path(directory) / "again.txt"
        write_patterns_file(again, patterns)
        assert [p.lines for p in read_patterns_file(again)] == [p.lines for p in patterns]


def _reads(reader, *args):
    try:
        return reader(*args)
    except (InputFormatError, DegenerateDataError):
        return None


@FUZZ
@given(
    rows=st.lists(st.tuples(MINUTES, BUS, BUS, st.text(CHARS, max_size=2), FLAGS), max_size=3),
    tail=TEXTS,
    alias=st.one_of(st.none(), st.tuples(BUS, BUS)),
)
def test_outage_reader_fuzz(rows, tail, alias):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "outages.csv", _csv(",".join(OUTAGE_COLUMNS) + "\n", rows) + tail)
        aliases = None
        if alias is not None:
            aliases = _reads(load_alias_map, _write(directory, "aliases.csv", _csv("raw_name,canonical_name\n", [alias])))
        _reads(parse_outage_file, path, aliases)


@FUZZ
@given(rows=st.lists(st.tuples(MINUTES, BUS, BUS, st.text("120x", max_size=2)), max_size=3), tail=TEXTS)
@example(rows=[("2020-01-01 00:00", "A", "B", "2"), ("2020-01-01 00:00", "B", "A", "1")], tail="")
def test_generations_reader_fuzz(rows, tail):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, "generations.csv", _csv(",".join(GENERATION_COLUMNS) + "\n", rows) + tail)
        groups = _reads(read_generations_csv, path)
        if groups is None:
            return
        # no row is lost: a repeated minute and line must not overwrite another row
        assert sum(len(group.lines) for group in groups) == len(read_table(path, GENERATION_COLUMNS, lambda *row: row))
        again = Path(directory) / "again.csv"
        write_generations_csv(again, groups)
        assert read_generations_csv(again) == groups


@FUZZ
@given(header=st.booleans(), rows=st.lists(st.tuples(BUS, BUS), max_size=3), tail=TEXTS)
@example(header=True, rows=[("", "A")], tail="")
def test_alias_and_exclusion_readers_fuzz(header, rows, tail):
    # every name either reader returns must be one the writers can write
    with tempfile.TemporaryDirectory() as directory:
        aliases = _write(directory, "aliases.csv", _csv("raw_name,canonical_name\n" if header else "", rows) + tail)
        alias_map = _reads(load_alias_map, aliases)
        for raw, canonical in (alias_map or {}).items():
            assert raw, "an empty raw name would alias every empty bus field"
            check_serializable_bus(canonical)
        exclusions = _write(directory, "exclusions.csv", _csv("from_bus,to_bus\n" if header else "", rows) + tail)
        for line in _reads(load_exclusions, exclusions, alias_map) or []:
            format_line(line)
