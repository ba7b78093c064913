"""End-to-end checks of the command line interface.

All commands run in-process through cli.main so exit codes and outputs are
observable without subprocesses.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from gridpatterns import cli
from gridpatterns.errors import CapExceededError
from gridpatterns.generator import read_generated_patterns
from gridpatterns.ingest import read_generations_csv
from gridpatterns.network import Network, read_network_csv, write_network_csv
from gridpatterns.patterns import read_patterns_file


def _run(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> ingest -> extract -> fit on one synthetic history."""
    base = tmp_path_factory.mktemp("pipeline")
    dirs = {name: base / name for name in ("synth", "ingest", "extract", "fit")}
    assert (
        _run(
            "synth", "--kind", "grid-mesh", "--lines", 120,
            "--multi-circuit-fraction", 0.1, "--history-count", 800,
            "--s", 4.0, "--p-one-plus", 0.3, "--p-circuits", 0.1,
            "--seed", 3, "--out", dirs["synth"],
        )
        == 0
    )
    assert _run("ingest", "--outages", dirs["synth"] / "outages.csv", "--out", dirs["ingest"]) == 0
    assert (
        _run(
            "extract", "--generations", dirs["ingest"] / "generations.csv",
            "--network", dirs["ingest"] / "network.csv", "--out", dirs["extract"],
        )
        == 0
    )
    assert (
        _run(
            "fit", "--patterns", dirs["extract"] / "patterns.txt",
            "--generations", dirs["ingest"] / "generations.csv",
            "--network", dirs["ingest"] / "network.csv", "--out", dirs["fit"],
        )
        == 0
    )
    return dirs


def test_synth_outputs(pipeline):
    net = read_network_csv(pipeline["synth"] / "network.csv")
    assert net.n_lines == 120
    assert len(net.multi_circuit_lines) > 0
    manifest = json.loads((pipeline["synth"] / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["parameters"]["history_count"] == 800
    assert set(manifest["outputs"]) == {"network.csv", "outages.csv"}


def test_ingest_outputs(pipeline):
    groups = read_generations_csv(pipeline["ingest"] / "generations.csv")
    assert len(groups) == 800
    deduced = read_network_csv(pipeline["ingest"] / "network.csv")
    real = read_network_csv(pipeline["synth"] / "network.csv")
    assert deduced.line_set <= real.line_set
    # 800 patterns on 120 lines leave little of the mesh unseen
    assert deduced.n_lines > 100


def test_extract_outputs(pipeline):
    pats = read_patterns_file(pipeline["extract"] / "patterns.txt")
    # generated patterns are connected, so generations rarely split
    assert 790 <= len(pats) <= 810
    counts_text = (pipeline["extract"] / "degree_sequence_counts.csv").read_text()
    assert counts_text.startswith("degree_sequence,count\n")
    assert counts_text.split("\n")[1].startswith('"1,1",')


def test_fit_outputs(pipeline):
    fit = json.loads((pipeline["fit"] / "fit.json").read_text())
    assert fit["s"] == pytest.approx(4.0, abs=0.35)
    assert fit["propagation_slope_index"] == fit["s"]
    assert fit["sample_size"] >= 790
    assert 0.0 < fit["p_one_plus_observed"] < 1.0
    assert 0.0 <= fit["p_circuits"] <= 1.0
    assert len(fit["pmf_head"]) == 7
    report = (pipeline["fit"] / "fit_report.txt").read_text()
    assert "exponent_s:" in report
    assert "p_circuits:" in report
    histogram = (pipeline["fit"] / "size_histogram.csv").read_text()
    assert histogram.startswith("size,count,frequency\n")


def test_manifest_checksums_match_files(pipeline):
    for stage in ("synth", "ingest", "extract", "fit"):
        manifest = json.loads((pipeline[stage] / "manifest.json").read_text())
        assert set(manifest) == {"command", "inputs", "outputs", "parameters"}
        assert "threads" not in manifest["parameters"]
        assert "out" not in manifest["parameters"]
        for name, digest in manifest["outputs"].items():
            recomputed = hashlib.sha256((pipeline[stage] / name).read_bytes()).hexdigest()
            assert recomputed == digest


def test_fit_without_network_leaves_p_circuits_null(pipeline, tmp_path):
    assert _run("fit", "--patterns", pipeline["extract"] / "patterns.txt", "--out", tmp_path) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["p_circuits"] is None


def test_generate_command(pipeline, tmp_path):
    network = pipeline["ingest"] / "network.csv"
    assert (
        _run(
            "generate", "--network", network, "--s", 3.0, "--p-one-plus", 0.4,
            "--p-circuits", 0.2, "--count", 250, "--seed", 6, "--out", tmp_path,
        )
        == 0
    )
    ensemble = read_generated_patterns(tmp_path / "generated_patterns.txt")
    assert len(ensemble) == 250
    net = read_network_csv(network)
    assert all(gp.pattern.lines <= net.line_set for gp in ensemble)


def test_generate_threads_and_reruns_byte_identical(pipeline, tmp_path):
    network = pipeline["ingest"] / "network.csv"
    outputs = {}
    for label, threads in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / label
        assert (
            _run(
                "generate", "--network", network, "--s", 3.0, "--p-one-plus", 0.4,
                "--count", 200, "--seed", 9, "--threads", threads, "--out", out,
            )
            == 0
        )
        outputs[label] = {
            "patterns": (out / "generated_patterns.txt").read_bytes(),
            "manifest": (out / "manifest.json").read_bytes(),
        }
    assert outputs["a"] == outputs["b"] == outputs["c"]


def test_synth_seed_changes_history(tmp_path):
    for seed in (1, 2):
        assert (
            _run(
                "synth", "--kind", "random-tree", "--lines", 30, "--history-count", 50,
                "--s", 3.0, "--p-one-plus", 0.5, "--seed", seed, "--out", tmp_path / str(seed),
            )
            == 0
        )
    a = (tmp_path / "1" / "outages.csv").read_bytes()
    b = (tmp_path / "2" / "outages.csv").read_bytes()
    assert a != b


def test_evaluate_command(pipeline, tmp_path):
    assert (
        _run(
            "evaluate", "--network", pipeline["ingest"] / "network.csv",
            "--patterns", pipeline["extract"] / "patterns.txt",
            "--s", 4.0, "--p-one-plus", 0.3, "--repetitions", 3,
            "--permutations", 49, "--seed", 2, "--out", tmp_path,
        )
        == 0
    )
    rows = (tmp_path / "evaluation.csv").read_text().strip().split("\n")
    assert rows[0] == "distance,p_value"
    assert len(rows) == 4
    text = (tmp_path / "evaluation.txt").read_text()
    assert "repetitions: 3" in text
    assert "permutations: 49" in text
    sizes = (tmp_path / "size_distribution.csv").read_text()
    assert sizes.startswith("size,empirical_probability,fitted_probability\n")


def test_calibrate_command(pipeline, tmp_path):
    # the meshed network spans low (star-heavy) to high (chain-heavy)
    # generated values, so a mid target brackets
    assert (
        _run(
            "calibrate", "--network", pipeline["ingest"] / "network.csv",
            "--target", 0.5, "--s", 2.5, "--ensemble-size", 3000,
            "--tolerance", 0.02, "--seed", 4, "--out", tmp_path / "cal",
        )
        == 0
    )
    result = json.loads((tmp_path / "cal" / "calibration.json").read_text())
    assert result["converged"] is True
    assert 0.0 < result["p_one_plus"] < 1.0
    assert abs(result["generated_value"] - 0.5) <= 0.02
    trace = (tmp_path / "cal" / "calibration_trace.txt").read_text()
    assert trace.startswith("target: 0.500000")
    assert "step 0:" in trace


def test_other_package_error_exit_5(pipeline, tmp_path, monkeypatch, capsys):
    # an error outside the documented classes, such as a capped distance
    # search, must still end in an exit code and not a traceback
    def capped(*args, **kwargs):
        raise CapExceededError("no path within 7 lines")

    monkeypatch.setattr(cli.evaluation, "evaluate_model", capped)
    rc = _run(
        "evaluate", "--network", pipeline["ingest"] / "network.csv",
        "--patterns", pipeline["extract"] / "patterns.txt",
        "--s", 4.0, "--p-one-plus", 0.3, "--out", tmp_path,
    )
    assert rc == 5
    assert capsys.readouterr().err == "error: no path within 7 lines\n"


def test_calibrate_unreachable_target_exit_4(tmp_path, path4):
    network_path = tmp_path / "network.csv"
    write_network_csv(network_path, path4)
    # every >= 3-line pattern on a path is a chain, so the generated value
    # is pinned at 1 and a low target cannot be bracketed
    rc = _run(
        "calibrate", "--network", network_path, "--target", 0.2, "--s", 2.0,
        "--ensemble-size", 400, "--out", tmp_path,
    )
    assert rc == 4


@pytest.mark.parametrize(
    "flags",
    [
        ("--max-iterations", 0),
        ("--ensemble-size", 0),
        ("--ensemble-size", -3),
        ("--tolerance", -0.01),
    ],
)
def test_calibrate_bad_arguments_exit_2(tmp_path, path4, flags):
    network_path = tmp_path / "network.csv"
    write_network_csv(network_path, path4)
    rc = _run(
        "calibrate", "--network", network_path, "--target", 0.9, "--s", 2.0,
        "--ensemble-size", 400, *flags, "--out", tmp_path / "cal",
    )
    assert rc == 2
    assert not (tmp_path / "cal" / "calibration.json").exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_exit_2(tmp_path, threads):
    rc = _run("synth", "--kind", "grid-mesh", "--lines", 40, "--threads", threads, "--out", tmp_path)
    assert rc == 2
    assert not (tmp_path / "network.csv").exists()


def test_ingest_missing_file_exit_2(tmp_path):
    assert _run("ingest", "--outages", tmp_path / "absent.csv", "--out", tmp_path) == 2


def test_ingest_malformed_row_exit_2(tmp_path):
    bad = tmp_path / "outages.csv"
    bad.write_text(
        "timestamp,from_bus,to_bus,circuit_id,automatic\n"
        "not-a-time,A,B,1,auto\n"
    )
    assert _run("ingest", "--outages", bad, "--out", tmp_path) == 2


def test_ingest_no_automatic_rows_exit_3(tmp_path):
    manual = tmp_path / "outages.csv"
    manual.write_text(
        "timestamp,from_bus,to_bus,circuit_id,automatic\n"
        "2020-01-01 00:00,A,B,1,manual\n"
    )
    assert _run("ingest", "--outages", manual, "--out", tmp_path) == 3


def test_synth_history_requires_model_flags(tmp_path):
    rc = _run(
        "synth", "--kind", "grid-mesh", "--lines", 20, "--history-count", 10,
        "--out", tmp_path,
    )
    assert rc == 2


def test_extract_missing_network_exit_2(pipeline, tmp_path):
    rc = _run(
        "extract", "--generations", pipeline["ingest"] / "generations.csv",
        "--network", tmp_path / "absent.csv", "--out", tmp_path,
    )
    assert rc == 2


def test_command_prints_summary(tmp_path, capsys):
    assert _run("synth", "--kind", "grid-mesh", "--lines", 12, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "network_buses:" in out
    assert "network_lines: 12" in out
