"""Every stage of demo 04 reproduces the tracked ``demos/demo_output/``
byte for byte."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gridpatterns import cli

DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "demo_output"
STAGES = ("synth", "ingest", "extract", "fit/inferred", "fit/true", "calibrate", "evaluate")


def _run(*argv) -> None:
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def rerun(tmp_path_factory) -> Path:
    """The stages of ``demos/04_full_pipeline.py``, with its arguments."""
    root = tmp_path_factory.mktemp("demo_output")
    synth, ingest, extract, fit, calibrate, evaluate = (
        root / name for name in ("synth", "ingest", "extract", "fit", "calibrate", "evaluate")
    )
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
    _run("fit", "--patterns", extract / "patterns.txt",
         "--generations", ingest / "generations.csv",
         "--network", synth / "network.csv", "--out", fit / "true")
    report = json.loads((fit / "true" / "fit.json").read_text())
    _run("calibrate", "--network", synth / "network.csv",
         "--target", report["p_one_plus_observed"],
         "--s", report["s"], "--p-circuits", report["p_circuits"],
         "--ensemble-size", "20000", "--tolerance", "0.01",
         "--seed", "5", "--out", calibrate)
    knob = json.loads((calibrate / "calibration.json").read_text())["p_one_plus"]
    _run("evaluate", "--network", synth / "network.csv",
         "--patterns", extract / "patterns.txt",
         "--s", report["s"], "--p-one-plus", knob, "--p-circuits", report["p_circuits"],
         "--repetitions", "20", "--permutations", "199",
         "--seed", "5", "--out", evaluate)
    return root


@pytest.mark.parametrize("stage", STAGES)
def test_demo_stage_matches_tracked_bytes(rerun, stage):
    tracked = DEMO_OUTPUT / stage
    produced = rerun / stage
    names = sorted(path.name for path in tracked.iterdir())
    assert sorted(path.name for path in produced.iterdir()) == names
    for name in names:
        if name == "manifest.json":
            # manifests record absolute input paths, so of `inputs` only the keys must agree
            mine, theirs = (json.loads((d / name).read_text()) for d in (produced, tracked))
            assert sorted(mine.pop("inputs")) == sorted(theirs.pop("inputs"))
            assert mine == theirs
        else:
            assert (produced / name).read_bytes() == (tracked / name).read_bytes(), name
