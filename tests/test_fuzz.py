"""Fuzzed network and pattern files: a reader returns or raises a package error."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gridpatterns.errors import DegenerateDataError, InputFormatError
from gridpatterns.network import read_network_csv, write_network_csv
from gridpatterns.patterns import read_patterns_file

CHARS = 'AB C-;|,"\n120'
TEXTS = st.text(alphabet=CHARS, max_size=40)
# rows of three short fields reach past the row checks far more often
ROWS = st.lists(
    st.tuples(st.text(CHARS, max_size=2), st.text(CHARS, max_size=2), st.text("12 ", min_size=1, max_size=2)),
    max_size=3,
).map(lambda rows: "".join(",".join(row) + "\n" for row in rows))
HEADER = "from_bus,to_bus,multiplicity\n"
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
            read_patterns_file(path)
        except (InputFormatError, DegenerateDataError):
            pass
