"""The three benchmark workloads: their inputs, operations and checks.

A run repeats *cycles*; each cycle is one fresh worker process that sets
up its inputs, runs a fixed list of operations (the timed phase) and checks
their outputs.  Cycle ``i`` of benchmark seed ``S`` hands the program seeds
``program_seed(S, i, j)``, so every cycle measures new inputs and a run
averages over several of them.

This module imports nothing from ``gridpatterns`` at import time, so the
orchestrator can read the operation lists without loading the package.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

WORKLOADS = ("quickstart", "calibrate-mesh", "heavy-tail")

# operation names of one cycle, in order
OPERATIONS = {
    "quickstart": ("synth", "ingest", "extract", "fit", "calibrate", "evaluate"),
    "calibrate-mesh": ("calibrate",),
    "heavy-tail": ("grow-0", "grow-1", "compare"),
}

# operations whose wall time the throughput metrics divide by
GENERATION_OPS = {
    "quickstart": ("calibrate",),
    "calibrate-mesh": OPERATIONS["calibrate-mesh"],
    "heavy-tail": ("grow-0", "grow-1"),
}
PERMUTATION_OPS = {"quickstart": ("evaluate",), "calibrate-mesh": (), "heavy-tail": ("compare",)}

# per-operation timeout in seconds; a timeout counts as "did not finish"
TIMEOUT_S = {
    "quickstart": {"synth": 20, "ingest": 20, "extract": 20, "fit": 20, "calibrate": 40, "evaluate": 60},
    "calibrate-mesh": {name: 60 for name in OPERATIONS["calibrate-mesh"]},
    "heavy-tail": {"grow-0": 30, "grow-1": 30, "compare": 60},
}

# README quick start, with the repetition count scaled down so that one
# cycle takes about 12 s (documented: 20)
QUICKSTART_ENSEMBLE = 20000
QUICKSTART_REPETITIONS = 2
QUICKSTART_PERMUTATIONS = 199

# Both workloads calibrate 20000 patterns.  The calibrated statistic pools
# (n_one_plus - 1) over (lines - 2) across the patterns with 3 or more
# lines: about 120 steps at ensemble 5000 and s=4.1.  A pattern of k lines
# whose growth changes as p_one_plus moves shifts it by up to (k - 2) / 120,
# and a jump wider than twice the tolerance across the target leaves the
# bisection unconverged (seen at 5000 patterns and tolerance 0.01).  At
# 20000 patterns such a jump needs a change in a pattern of 12 or more lines.
MESH_LINES = 2000
CALIBRATE_ENSEMBLE = 20000
CALIBRATE_TOLERANCE = 0.01

HEAVY_MESH_LINES = 300
GROW_S = 2.0
GROW_COUNT = 10000
COMPARE_S = 3.0
COMPARE_COUNT = 300
COMPARE_PERMUTATIONS = 99

# relative tolerance for Wasserstein values, so that an exact transport
# solver is not counted as wrong against the float LP references
DISTANCE_RTOL = 1e-9


def program_seed(seed: int, cycle: int, op: int = 0) -> int:
    """Seed handed to the program for operation ``op`` of a cycle."""
    return 100_000 * seed + 100 * cycle + op


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _connected(lines) -> bool:
    """Whether the (bus, bus) lines of a pattern form one component."""
    adjacency: dict[str, set[str]] = {}
    for a, b in lines:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    start = next(iter(adjacency))
    seen, stack = {start}, [start]
    while stack:
        for other in adjacency[stack.pop()]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == len(adjacency)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=DISTANCE_RTOL, abs_tol=1e-12)


# ---------------------------------------------------------------- quickstart


def quickstart_setup(seed: int, cycle: int, workdir: Path) -> dict:
    import gridpatterns.cli  # noqa: F401  (part of set-up: imports scipy)

    p = str(program_seed(seed, cycle))
    out = {name: str(workdir / name) for name in OPERATIONS["quickstart"]}
    common = ["--seed", p, "--threads", "1"]
    argv = {
        "synth": ["synth", "--kind", "grid-mesh", "--lines", "300", "--multi-circuit-fraction", "0.1",
                  "--history-count", "5000", "--s", "4.1", "--p-one-plus", "0.3", "--p-circuits", "0.07",
                  *common, "--out", out["synth"]],
        "ingest": ["ingest", "--outages", f"{out['synth']}/outages.csv", *common, "--out", out["ingest"]],
        "extract": ["extract", "--generations", f"{out['ingest']}/generations.csv",
                    "--network", f"{out['ingest']}/network.csv", *common, "--out", out["extract"]],
        "fit": ["fit", "--patterns", f"{out['extract']}/patterns.txt",
                "--generations", f"{out['ingest']}/generations.csv",
                "--network", f"{out['synth']}/network.csv", *common, "--out", out["fit"]],
        "calibrate": ["calibrate", "--network", f"{out['synth']}/network.csv", "--target", "0.4054",
                      "--s", "4.0975", "--ensemble-size", str(QUICKSTART_ENSEMBLE), "--tolerance", "0.01",
                      *common, "--out", out["calibrate"]],
        "evaluate": ["evaluate", "--network", f"{out['synth']}/network.csv",
                     "--patterns", f"{out['extract']}/patterns.txt", "--s", "4.0975", "--p-one-plus", "0.3438",
                     "--p-circuits", "0.0744", "--repetitions", str(QUICKSTART_REPETITIONS),
                     "--permutations", str(QUICKSTART_PERMUTATIONS), *common, "--out", out["evaluate"]],
    }
    return {"argv": argv, "out": out}


def quickstart_run(state: dict, ops) -> dict:
    from gridpatterns.cli import main

    for name in OPERATIONS["quickstart"]:
        ops.call(name, lambda argv=state["argv"][name]: _cli(main, argv))
    return {}


def _cli(main, argv) -> int:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"gridpatterns {argv[0]} exited {code}")
    return code


def quickstart_results(state: dict) -> tuple[dict, dict]:
    """Digest of the outputs, plus the throughput inputs."""
    out = {name: Path(path) for name, path in state["out"].items()}
    digest: dict = {}
    for stage, names in (
        ("synth", ("network.csv", "outages.csv")),
        ("ingest", ("network.csv", "generations.csv")),
        ("extract", ("patterns.txt", "degree_sequence_counts.csv")),
        ("calibrate", ("calibration.json", "calibration_trace.txt")),
    ):
        for name in names:
            path = out[stage] / name
            if path.exists():
                digest[f"{stage}/{name}"] = _sha256(path)
    work = {}
    fit_path = out["fit"] / "fit.json"
    if fit_path.exists():
        digest["fit"] = json.loads(fit_path.read_text())
    calibration_path = out["calibrate"] / "calibration.json"
    if calibration_path.exists():
        calibration = json.loads(calibration_path.read_text())
        digest["calibration"] = calibration
        work["calibrate_patterns"] = work["patterns"] = QUICKSTART_ENSEMBLE * calibration["evaluations"]
    csv_path = out["evaluate"] / "evaluation.csv"
    if csv_path.exists():
        rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        digest["distances"] = [float(d) for d, _ in rows]
        digest["p_values"] = [p for _, p in rows]
        work["perm_stats"] = len(rows) * (QUICKSTART_PERMUTATIONS + 1)
    patterns_path = out["extract"] / "patterns.txt"
    if patterns_path.exists():
        digest["patterns_connected"] = all(
            _connected(token.split("-") for token in text.split(";")) for text in patterns_path.read_text().split()
        )
    return digest, work


def _same(got, ref) -> bool:
    if isinstance(ref, float) and isinstance(got, (int, float)):
        return _close(got, ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(got) == len(ref) and all(_same(a, b) for a, b in zip(got, ref))
    if isinstance(ref, dict) and isinstance(got, dict):
        return got.keys() == ref.keys() and all(_same(got[k], ref[k]) for k in ref)
    return got == ref


def quickstart_check(digest: dict, reference: dict | None) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}

    def flag(op: str, text: str) -> None:
        problems.setdefault(op, []).append(text)

    if not digest.get("calibration", {}).get("converged"):
        flag("calibrate", "calibration did not converge")
    if not all(0.0 < float(p) <= 1.0 for p in digest.get("p_values", ["nan"])):
        flag("evaluate", "p-value outside (0, 1]")
    if not digest.get("patterns_connected"):
        flag("extract", "an extracted pattern is not connected")
    if reference is not None:
        owner = {
            "calibration": "calibrate",
            "distances": "evaluate",
            "p_values": "evaluate",
            "patterns_connected": "extract",
        }
        for key, ref in reference.items():
            if not _same(digest.get(key), ref):
                flag(owner.get(key, key.split("/")[0]), f"{key} differs from the reference")
    return problems


# ------------------------------------------------------------ calibrate-mesh


def calibrate_mesh_setup(seed: int, cycle: int, workdir: Path) -> dict:
    from gridpatterns.synthnet import synthetic_network

    network = synthetic_network("grid-mesh", MESH_LINES, 0.1, program_seed(seed, cycle))
    seeds = [program_seed(seed, cycle, j) for j in range(len(OPERATIONS["calibrate-mesh"]))]
    return {"network": network, "seeds": seeds}


def calibrate_mesh_run(state: dict, ops) -> dict:
    from gridpatterns import GeneratorConfig, ZipfModel, calibrate_p_one_plus

    results = []
    for name, seed in zip(OPERATIONS["calibrate-mesh"], state["seeds"]):
        config = GeneratorConfig(ZipfModel(4.1), p_one_plus=0.5, p_circuits=0.07, seed=seed)
        results.append(
            ops.call(
                name,
                lambda config=config: calibrate_p_one_plus(
                    state["network"], config, 0.4054, ensemble_size=CALIBRATE_ENSEMBLE, tolerance=CALIBRATE_TOLERANCE
                ),
            )
        )
    return {"results": results}


def calibrate_mesh_results(state: dict) -> tuple[dict, dict]:
    digest = {}
    patterns = 0
    for name, result in zip(OPERATIONS["calibrate-mesh"], state["results"]):
        if result is None:
            continue
        # the calibration.json fields the CLI writes for this result
        digest[name] = {
            "p_one_plus": round(result.p_one_plus, 8),
            "generated_value": round(result.generated_value, 8),
            "target": result.target,
            "tolerance": result.tolerance,
            "converged": result.converged,
            "evaluations": len(result.steps),
        }
        patterns += CALIBRATE_ENSEMBLE * len(result.steps)
    return digest, {"calibrate_patterns": patterns, "patterns": patterns}


def calibrate_mesh_check(digest: dict, reference: dict | None) -> dict[str, list[str]]:
    problems = {}
    for name in OPERATIONS["calibrate-mesh"]:
        got = digest.get(name)
        found = []
        if got is None:
            found.append("no result")
        else:
            if not got["converged"]:
                found.append("did not converge")
            if abs(got["generated_value"] - got["target"]) > got["tolerance"]:
                found.append("generated value outside the tolerance")
            if reference is not None and reference.get(name) != got:
                found.append("calibration.json differs from the reference")
        if found:
            problems[name] = found
    return problems


# ---------------------------------------------------------------- heavy-tail


def heavy_tail_setup(seed: int, cycle: int, workdir: Path) -> dict:
    from gridpatterns import GeneratorConfig, ZipfModel, generate_ensemble
    from gridpatterns.synthnet import synthetic_network

    network = synthetic_network("grid-mesh", HEAVY_MESH_LINES, 0.1, program_seed(seed, cycle))
    compare = [
        generate_ensemble(
            network,
            GeneratorConfig(ZipfModel(COMPARE_S), 0.3, 0.07, seed=program_seed(seed, cycle, 10 + k)),
            COMPARE_COUNT,
        )
        for k in range(2)
    ]
    grow_seeds = [program_seed(seed, cycle, j) for j in range(2)]
    return {
        "network": network,
        "compare": compare,
        "grow_seeds": grow_seeds,
        "perm_seed": program_seed(seed, cycle, 20),
    }


def heavy_tail_run(state: dict, ops) -> dict:
    from gridpatterns import GeneratorConfig, ZipfModel, generate_ensemble, permutation_test, substream

    grown = []
    for name, seed in zip(("grow-0", "grow-1"), state["grow_seeds"]):
        config = GeneratorConfig(ZipfModel(GROW_S), 0.3, 0.07, seed=seed)
        grown.append(ops.call(name, lambda config=config: generate_ensemble(state["network"], config, GROW_COUNT)))
    a, b = state["compare"]
    test = ops.call(
        "compare",
        lambda: permutation_test(a, b, COMPARE_PERMUTATIONS, substream(state["perm_seed"])),
    )
    return {"grown": grown, "test": test}


def heavy_tail_results(state: dict) -> tuple[dict, dict]:
    digest: dict = {}
    work = {}
    for name, ensemble in zip(("grow-0", "grow-1"), state["grown"]):
        if ensemble is None:
            continue
        digest[name] = {
            "lines": sum(g.achieved_size for g in ensemble),
            "connected": all(_connected(g.pattern.lines) for g in ensemble),
            "within_target": all(g.achieved_size <= g.target_size for g in ensemble),
        }
        work["grow_lines"] = work.get("grow_lines", 0) + digest[name]["lines"]
        work["patterns"] = work.get("patterns", 0) + len(ensemble)
    if state["test"] is not None:
        digest["compare"] = {"observed": state["test"].observed_statistic, "p_value": state["test"].p_value}
        work["perm_stats"] = COMPARE_PERMUTATIONS + 1
    return digest, work


def heavy_tail_check(digest: dict, reference: dict | None) -> dict[str, list[str]]:
    problems = {}
    for name in ("grow-0", "grow-1"):
        got = digest.get(name)
        found = []
        if got is None:
            found.append("no result")
        else:
            if not got["connected"]:
                found.append("a generated pattern is not connected")
            if not got["within_target"]:
                found.append("a pattern grew past its target")
            if reference is not None and reference[name]["lines"] != got["lines"]:
                found.append("sum of achieved_size differs from the reference")
        if found:
            problems[name] = found
    got = digest.get("compare")
    found = []
    if got is None:
        found.append("no result")
    else:
        if not 0.0 < got["p_value"] <= 1.0:
            found.append("p-value outside (0, 1]")
        if reference is not None:
            ref = reference["compare"]
            if not _close(got["observed"], ref["observed"]):
                found.append("observed statistic differs from the reference")
            if got["p_value"] != ref["p_value"]:
                found.append("p-value differs from the reference")
    if found:
        problems["compare"] = found
    return problems


def reference_of(workload: str, digest: dict) -> dict:
    """The part of a cycle's digest that later commits must reproduce."""
    if workload == "heavy-tail":
        return {
            "grow-0": {"lines": digest["grow-0"]["lines"]},
            "grow-1": {"lines": digest["grow-1"]["lines"]},
            "compare": digest["compare"],
        }
    if workload == "quickstart":
        return {key: value for key, value in digest.items() if key != "patterns_connected"}
    return digest


SETUP = {"quickstart": quickstart_setup, "calibrate-mesh": calibrate_mesh_setup, "heavy-tail": heavy_tail_setup}
RUN = {"quickstart": quickstart_run, "calibrate-mesh": calibrate_mesh_run, "heavy-tail": heavy_tail_run}
RESULTS = {
    "quickstart": quickstart_results,
    "calibrate-mesh": calibrate_mesh_results,
    "heavy-tail": heavy_tail_results,
}
# checks map an operation name to what is wrong with its output
CHECK = {
    "quickstart": quickstart_check,
    "calibrate-mesh": calibrate_mesh_check,
    "heavy-tail": heavy_tail_check,
}
