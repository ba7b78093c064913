"""End-to-end checks of the command line interface.

All commands run in-process through cli.main so exit codes and outputs are
observable without subprocesses; only the locale check starts fresh
interpreters, since the text encoding is fixed at interpreter start.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridpatterns import cli
from gridpatterns.errors import GridPatternsError
from gridpatterns.generator import GeneratorConfig, generate_ensemble, write_generated_patterns
from gridpatterns.ingest import read_generations_csv
from gridpatterns.network import Network, read_network_csv, write_network_csv
from gridpatterns.patterns import read_patterns_file
from gridpatterns.zipf import ZipfModel


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


def _pinned_case_argv(case, pipeline, tmp_path) -> tuple:
    if case == "synth":
        return ("synth", "--kind", "grid-mesh", "--lines", 40, "--multi-circuit-fraction", 0.2, "--seed", 3)
    if case == "ingest":
        aliases = tmp_path / "aliases.csv"
        aliases.write_text("raw_name,canonical_name\nr0c0,HUB\n")
        exclusions = tmp_path / "exclusions.csv"
        exclusions.write_text("from_bus,to_bus\nR0C0,R0C1\n")
        return (
            "ingest", "--outages", pipeline["synth"] / "outages.csv",
            "--aliases", aliases, "--exclusions", exclusions, "--seed", 7,
        )
    if case == "fit":
        return ("fit", "--patterns", pipeline["extract"] / "patterns.txt")
    return (
        "generate", "--network", pipeline["ingest"] / "network.csv", "--s", 3.0,
        "--p-one-plus", 0.4, "--count", 100, "--seed", 6, "--threads", 2,
    )


# Manifests recorded while each command still wrote its own, with `inputs`
# cut to its keys since the paths differ from run to run.
PINNED_MANIFESTS = {
    "fit": {
        "command": "fit",
        "inputs": ["patterns"],
        "outputs": {
            "fit.json": "cca880862c4a46337cc29d7b0d010348ff1b57713ddf2ca8f6cf5eae8e6ea204",
            "fit_report.txt": "c99405956f92c5a9159edfa19e09edac21835c5fe1af23aba4e7bbe619010301",
            "size_histogram.csv": "9513212d137e6ccbd13d3e5174bc5565d13d26ea0decc32f782cedddf720fc40",
        },
        "parameters": {"seed": 0},
    },
    "generate": {
        "command": "generate",
        "inputs": ["network"],
        "outputs": {
            "generated_patterns.txt": "3111297003bf590f2d22c94dd5856f6b85ff4b381dd69d20b755d69d96c413df",
        },
        "parameters": {
            "count": 100,
            "p_circuits": 0.0,
            "p_one_plus": 0.4,
            "s": 3.0,
            "seed": 6,
        },
    },
    "ingest": {
        "command": "ingest",
        "inputs": ["aliases", "exclusions", "outages"],
        "outputs": {
            "generations.csv": "0a053d303846c1b9b9f6e3fcb961706ec40c1750739dbc006497deb06258a47b",
            "network.csv": "24b0f9f897d8ec22153bc04a1eca04f0f762fc638c86b7e739c34752d40228b1",
        },
        "parameters": {"seed": 7},
    },
    "synth": {
        "command": "synth",
        "inputs": [],
        "outputs": {
            "network.csv": "70e48629a8f056004b947c796b628c544c50edb030ec06efe0bcc019c03752ed",
        },
        "parameters": {
            "kind": "grid-mesh",
            "lines": 40,
            "multi_circuit_fraction": 0.2,
            "seed": 3,
        },
    },
}


@pytest.mark.parametrize("case", sorted(PINNED_MANIFESTS))
def test_manifest_matches_pinned(pipeline, tmp_path, case):
    argv = _pinned_case_argv(case, pipeline, tmp_path)
    assert _run(*argv, "--out", tmp_path / "out") == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert set(manifest["inputs"].values()) <= {str(arg) for arg in argv}
    assert {**manifest, "inputs": sorted(manifest["inputs"])} == PINNED_MANIFESTS[case]


def test_fit_without_network_leaves_p_circuits_null(pipeline, tmp_path):
    assert _run("fit", "--patterns", pipeline["extract"] / "patterns.txt", "--out", tmp_path) == 0
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["p_circuits"] is None


@pytest.mark.parametrize("given", ["generations", "network"])
def test_fit_with_one_of_generations_and_network_exit_2_before_any_output(pipeline, tmp_path, capsys, given):
    # one file alone used to be ignored while the manifest still listed it
    path = pipeline["ingest"] / f"{given}.csv"
    out = tmp_path / "out"
    assert _run("fit", "--patterns", pipeline["extract"] / "patterns.txt", f"--{given}", path, "--out", out) == 2
    err = capsys.readouterr().err
    assert "--generations" in err and "--network" in err
    assert not out.exists()


def test_generate_command(pipeline, tmp_path):
    network = pipeline["ingest"] / "network.csv"
    assert (
        _run(
            "generate", "--network", network, "--s", 3.0, "--p-one-plus", 0.4,
            "--p-circuits", 0.2, "--count", 250, "--seed", 6, "--out", tmp_path,
        )
        == 0
    )
    config = GeneratorConfig(ZipfModel(3.0), 0.4, p_circuits=0.2, seed=6)
    ensemble = generate_ensemble(read_network_csv(network), config, 250)
    expected = tmp_path / "expected.txt"
    write_generated_patterns(expected, ensemble)
    assert (tmp_path / "generated_patterns.txt").read_bytes() == expected.read_bytes()


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
    # a package error outside the documented classes must still end in an
    # exit code and not a traceback
    def failing(*args, **kwargs):
        raise GridPatternsError("unexpected package failure")

    monkeypatch.setattr(cli.evaluation, "evaluate_model", failing)
    rc = _run(
        "evaluate", "--network", pipeline["ingest"] / "network.csv",
        "--patterns", pipeline["extract"] / "patterns.txt",
        "--s", 4.0, "--p-one-plus", 0.3, "--out", tmp_path,
    )
    assert rc == 5
    assert capsys.readouterr().err == "error: unexpected package failure\n"


@pytest.mark.parametrize("flag", ["--lines", "--history-count", "--repetitions"])
@pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"], ids=["bare", "numpy"])
def test_memory_error_exit_6(pipeline, tmp_path, monkeypatch, capsys, flag, message):
    # a size the machine cannot hold ends in a documented exit code, not a
    # traceback; the library call is replaced, so no memory is asked for
    def failing(*args, **kwargs):
        raise MemoryError(message)

    model = ("--s", 4.0, "--p-one-plus", 0.3)
    module, name, argv = {
        "--lines": (cli.synthnet, "synthetic_network", ("synth", "--kind", "grid-mesh", "--lines", 10**12)),
        "--history-count": (
            cli.synthnet, "synthetic_history",
            ("synth", "--kind", "grid-mesh", "--lines", 20, "--history-count", 2**32 - 1, *model),
        ),
        "--repetitions": (
            cli.evaluation, "evaluate_model",
            (
                "evaluate", "--network", pipeline["ingest"] / "network.csv",
                "--patterns", pipeline["extract"] / "patterns.txt", "--repetitions", 10**12, *model,
            ),
        ),
    }[flag]
    monkeypatch.setattr(module, name, failing)
    assert _run(*argv, "--out", tmp_path) == 6
    assert capsys.readouterr().err == f"error: {message or 'MemoryError'}\n"


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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("generate", ("--p-one-plus", 0.3, "--count", 10**12)),
        ("calibrate", ("--target", 0.5, "--ensemble-size", 10**12)),
    ],
)
def test_count_past_the_stream_domain_exit_2(pipeline, tmp_path, capsys, command, flags):
    # one seed has 2**32 streams, one per pattern; these counts used to run
    # until memory ran out
    out = tmp_path / "out"
    rc = _run(command, "--network", pipeline["ingest"] / "network.csv", "--s", 3.0, *flags, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_calibrate_nan_tolerance_exit_2(pipeline, tmp_path):
    # a NaN tolerance passed "tolerance < 0", and the run went on to write
    # "tolerance": NaN into calibration.json, which is not JSON
    rc = _run(
        "calibrate", "--network", pipeline["ingest"] / "network.csv",
        "--target", 0.5, "--s", 2.5, "--ensemble-size", 400,
        "--tolerance", "nan", "--out", tmp_path / "cal",
    )
    assert rc == 2
    assert not (tmp_path / "cal" / "calibration.json").exists()


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_exit_2(tmp_path, threads):
    rc = _run("synth", "--kind", "grid-mesh", "--lines", 40, "--threads", threads, "--out", tmp_path)
    assert rc == 2
    assert not (tmp_path / "network.csv").exists()


@pytest.mark.parametrize("command", ["synth", "generate", "evaluate"])
def test_negative_seed_exit_2_before_any_output(pipeline, tmp_path, capsys, command):
    network = pipeline["ingest"] / "network.csv"
    flags = {
        "synth": ("--kind", "grid-mesh", "--lines", 40, "--history-count", 10, "--s", 3.0, "--p-one-plus", 0.3),
        "generate": ("--network", network, "--s", 3.0, "--p-one-plus", 0.3, "--count", 10),
        "evaluate": (
            "--network", network, "--patterns", pipeline["extract"] / "patterns.txt",
            "--s", 3.0, "--p-one-plus", 0.3, "--repetitions", 1, "--permutations", 9,
        ),
    }[command]
    out = tmp_path / "out"
    assert _run(command, *flags, "--seed", -1, "--out", out) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--history-count", 5),
        ("--history-count", -5, "--s", 3.0, "--p-one-plus", 0.3),
        ("--history-count", 2**32, "--s", 3.0, "--p-one-plus", 0.3),
    ],
)
def test_synth_bad_history_exit_2_before_any_output(tmp_path, capsys, flags):
    # each used to write network.csv and then fail without a manifest, or
    # for 2**32 and more run out of memory
    out = tmp_path / "out"
    assert _run("synth", "--kind", "grid-mesh", "--lines", 40, *flags, "--out", out) == 2
    assert "--history-count" in capsys.readouterr().err
    assert not out.exists()


def test_synth_bad_fraction_exit_2_before_any_output(tmp_path, capsys):
    # the fraction is checked before the network is built, so any --lines
    # fails at once
    rc = _run("synth", "--kind", "grid-mesh", "--lines", 10, "--multi-circuit-fraction", 1.5, "--out", tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "multi_circuit_fraction" in err
    assert not (tmp_path / "network.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_ingest_missing_file_exit_2(tmp_path):
    assert _run("ingest", "--outages", tmp_path / "absent.csv", "--out", tmp_path) == 2


def test_ingest_malformed_row_exit_2(tmp_path):
    bad = tmp_path / "outages.csv"
    bad.write_text(
        "timestamp,from_bus,to_bus,circuit_id,automatic\n"
        "not-a-time,A,B,1,auto\n"
    )
    assert _run("ingest", "--outages", bad, "--out", tmp_path) == 2


def test_ingest_unwritable_bus_name_exit_2(tmp_path, capsys):
    # the outage reader names the row and the command writes nothing
    bad = tmp_path / "outages.csv"
    bad.write_text(
        "timestamp,from_bus,to_bus,circuit_id,automatic\n"
        "2020-01-01 00:00,A;X,B,1,auto\n"
    )
    assert _run("ingest", "--outages", bad, "--out", tmp_path / "out") == 2
    assert f"{bad}: line 2: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "network.csv").exists()


def test_ingest_then_extract_before_year_1000(tmp_path):
    # the written minute is zero-padded to four year digits, so extract
    # reads back what ingest wrote
    outages = tmp_path / "outages.csv"
    outages.write_text(
        "timestamp,from_bus,to_bus,circuit_id,automatic\n"
        "0999-01-01 00:00,A,B,1,auto\n"
        "0999-01-01 00:00,B,C,1,auto\n"
    )
    assert _run("ingest", "--outages", outages, "--out", tmp_path / "ingest") == 0
    generations = tmp_path / "ingest" / "generations.csv"
    assert generations.read_text().splitlines()[1:] == ["0999-01-01 00:00,A,B,1", "0999-01-01 00:00,B,C,1"]
    assert (
        _run(
            "extract", "--generations", generations, "--network", tmp_path / "ingest" / "network.csv",
            "--out", tmp_path / "extract",
        )
        == 0
    )
    assert (tmp_path / "extract" / "patterns.txt").read_text() == "A-B;B-C\n"


def test_ingest_no_automatic_rows_exit_3(tmp_path):
    manual = tmp_path / "outages.csv"
    manual.write_text(
        "timestamp,from_bus,to_bus,circuit_id,automatic\n"
        "2020-01-01 00:00,A,B,1,manual\n"
    )
    assert _run("ingest", "--outages", manual, "--out", tmp_path) == 3


def test_evaluate_no_observed_patterns_exit_3(pipeline, tmp_path, capsys):
    empty = tmp_path / "patterns.txt"
    empty.write_text("\n")
    rc = _run(
        "evaluate", "--network", pipeline["ingest"] / "network.csv", "--patterns", empty,
        "--s", 4.0, "--p-one-plus", 0.3, "--repetitions", 1, "--out", tmp_path / "out",
    )
    assert rc == 3
    assert capsys.readouterr().err == "error: no observed patterns to evaluate against\n"


def test_ingest_repeated_alias_exit_2(tmp_path, capsys):
    outages = tmp_path / "outages.csv"
    outages.write_text("timestamp,from_bus,to_bus,circuit_id,automatic\n2020-01-01 00:00,X,B,1,auto\n")
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("raw_name,canonical_name\nX,A\nx ,B\n")
    assert _run("ingest", "--outages", outages, "--aliases", aliases, "--out", tmp_path / "out") == 2
    assert f"{aliases}: line 3: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "network.csv").exists()


def test_fit_repeated_pattern_line_exit_2(tmp_path, capsys):
    patterns_path = tmp_path / "patterns.txt"
    patterns_path.write_text("A-B\nA-B;B-A\n")
    assert _run("fit", "--patterns", patterns_path, "--out", tmp_path / "out") == 2
    assert f"{patterns_path}: line 2: " in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.json").exists()


@pytest.mark.parametrize("command", ["generate", "evaluate", "calibrate"])
def test_non_finite_exponent_exit_2(pipeline, tmp_path, command):
    # s = inf would grow only one-line patterns and write nan into size_distribution.csv
    flags = {
        "generate": ("--p-one-plus", 0.3, "--count", 10),
        "evaluate": ("--patterns", pipeline["extract"] / "patterns.txt", "--p-one-plus", 0.3, "--repetitions", 1),
        "calibrate": ("--target", 0.5, "--ensemble-size", 100),
    }[command]
    out = tmp_path / "out"
    rc = _run(command, "--network", pipeline["ingest"] / "network.csv", "--s", "inf", *flags, "--out", out)
    assert rc == 2
    assert not (out / "manifest.json").exists()


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


@pytest.mark.parametrize("bus", ["", "A;X"])
def test_generate_unwritable_bus_name_exit_2(tmp_path, bus):
    # the network reader rejects a name the pattern writer cannot write,
    # before any output is started
    network = tmp_path / "network.csv"
    network.write_text(f'from_bus,to_bus,multiplicity\n"{bus}",B,1\nB,C,1\n')
    rc = _run(
        "generate", "--network", network, "--s", 2.0, "--p-one-plus", 0.4,
        "--count", 50, "--out", tmp_path / "out",
    )
    assert rc == 2
    assert not (tmp_path / "out" / "generated_patterns.txt").exists()


def test_command_prints_summary(tmp_path, capsys):
    assert _run("synth", "--kind", "grid-mesh", "--lines", 12, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    assert "network_buses:" in out
    assert "network_lines: 12" in out


NON_ASCII_OUTAGES = """timestamp,from_bus,to_bus,circuit_id,automatic
2020-01-01 00:00,Köln,Bonn,1,auto
2020-01-01 00:00,Bonn,Aachen,1,auto
2020-01-02 00:00,Köln,Düren,1,auto
2020-01-03 00:00,Aachen,Düren,1,auto
2020-01-03 00:00,Köln,Bonn,1,auto
"""

# every reader and writer of bus names: the tables, patterns.txt,
# generated_patterns.txt, and the text and JSON files of fit
NON_ASCII_PIPELINE = """
import sys
from gridpatterns.cli import main
for argv in (
    ["ingest", "--outages", "outages.csv", "--out", "ingest"],
    ["extract", "--generations", "ingest/generations.csv", "--network", "ingest/network.csv", "--out", "extract"],
    ["fit", "--patterns", "extract/patterns.txt", "--out", "fit"],
    ["generate", "--network", "ingest/network.csv", "--s", "3.0", "--p-one-plus", "0.4", "--count", "20", "--out", "generate"],
):
    if main(argv):
        sys.exit(argv[0] + " failed")
"""


def test_files_are_utf8_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode the default encoding is ASCII
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONCOERCECLOCALE="0",
        LC_ALL="C",
    )
    files = {}
    for mode in ("utf8=0", "utf8=1"):
        work = tmp_path / mode
        work.mkdir()
        (work / "outages.csv").write_bytes(NON_ASCII_OUTAGES.encode("utf-8"))
        run = subprocess.run(
            [sys.executable, "-X", mode, "-c", NON_ASCII_PIPELINE],
            cwd=work, env=env, capture_output=True, text=True, errors="replace", timeout=120,
        )
        assert run.returncode == 0, (mode, run.stderr)
        files[mode] = {path.relative_to(work).as_posix(): path.read_bytes() for path in work.rglob("*") if path.is_file()}
    assert files["utf8=0"] == files["utf8=1"]
    assert "KÖLN".encode("utf-8") in files["utf8=1"]["extract/patterns.txt"]  # names are upper-cased
