"""Demo 04's synth, ingest, extract and fit stages reproduce the tracked
``demos/demo_output/`` byte for byte."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gridpatterns import cli

DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "demo_output"
STAGES = ("synth", "ingest", "extract", "fit/inferred")


def _run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def rerun(tmp_path_factory) -> Path:
    """The stages of ``demos/04_full_pipeline.py`` up to the inferred fit, with its arguments."""
    root = tmp_path_factory.mktemp("demo_output")
    synth, ingest, extract, fit = (root / name for name in ("synth", "ingest", "extract", "fit"))
    _run("synth", "--kind", "grid-mesh", "--lines", "300",
         "--multi-circuit-fraction", "0.1", "--history-count", "5000",
         "--s", "4.1", "--p-one-plus", "0.3", "--p-circuits", "0.07",
         "--seed", "5", "--out", synth)
    _run("ingest", "--outages", synth / "outages.csv", "--out", ingest)
    _run("extract", "--generations", ingest / "generations.csv",
         "--network", ingest / "network.csv", "--out", extract)
    _run("fit", "--patterns", extract / "patterns.txt",
         "--generations", ingest / "generations.csv",
         "--network", ingest / "network.csv", "--out", fit / "inferred")
    return root


@pytest.mark.parametrize("stage", STAGES)
def test_demo_stage_matches_tracked_bytes(rerun, stage):
    tracked = DEMO_OUTPUT / stage
    produced = rerun / stage
    names = sorted(path.name for path in tracked.iterdir())
    assert sorted(path.name for path in produced.iterdir()) == names
    for name in names:
        if name == "manifest.json":
            # manifests record absolute input paths; the rest must agree
            mine, theirs = (json.loads((d / name).read_text()) for d in (produced, tracked))
            assert {k: v for k, v in mine.items() if k != "inputs"} == {
                k: v for k, v in theirs.items() if k != "inputs"
            }
        else:
            assert (produced / name).read_bytes() == (tracked / name).read_bytes(), name
