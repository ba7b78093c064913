"""Benchmark of the gridpatterns pipeline.

Run from the root of a checkout:

    python3 bench/run.py                      # every workload, untraced
    python3 bench/run.py --trace 1            # every workload, traced pass
    python3 bench/run.py --workload quickstart --seed 3 --seconds 30 --trace 0

A run repeats cycles for about ``--seconds`` seconds (at least three, or
two untraced/traced pairs with ``--trace 1``).  Each cycle is a fresh worker
process (``bench/worker.py``) with ``--threads 1``: it sets up, runs the
workload's operations and checks their outputs.  The run reports the
median over its cycles.

With one ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
they are the per-layer metrics of the traced cycles plus
``trace.overhead_frac``.  Without ``--workload`` every workload runs, every
metric is printed as a table, and the exit code is 1 when any correctness
gate failed.

Everything the run writes goes under ``.bench_out/`` in the checkout:
per-cycle results, the run result with its machine and provenance record,
and for traced runs the spans and the per-layer table.  The CLI output
directories of the quickstart workload are created and removed there too,
so no timing ever lands in a hashed ``--out`` directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from spans import layer_metric_names

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"

MIN_CYCLES = {False: 3, True: 2}  # untraced cycles, or untraced/traced pairs
RUN_LIMIT_S = 165.0  # no cycle may run past this point of a run
CYCLE_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "patterns_per_s": "1/s",
}

def run_cycle(
    workload: str, seed: int, cycle: int, traced: bool, timeout: float, references: Path | None = REFERENCES
) -> dict:
    """Start one worker, wait for it, and return its result or a failure record.

    With ``references`` None the outputs are checked against invariants only.
    """
    tag = f"{workload}-seed{seed}-cycle{cycle}-{'traced' if traced else 'untraced'}"
    result_path = OUT / "cycles" / f"{tag}.json"
    log_path = OUT / "cycles" / f"{tag}.log"
    result_path.unlink(missing_ok=True)
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "cycle": cycle,
        "trace": traced,
        "result": str(result_path),
        "workdir": str(OUT / "work" / tag),
        "spans": str(OUT / "trace" / f"{workload}-seed{seed}-cycle{cycle}.spans.jsonl.gz"),
        "references": references and str(references),
    }
    with open(log_path, "w") as log:
        spec["t0"] = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return _failed_cycle(workload, cycle, f"did not finish: cycle killed after {timeout:.0f} s")
    if code != 0 or not result_path.exists():
        return _failed_cycle(workload, cycle, f"worker exited {code}, see {log_path.relative_to(ROOT)}")
    return json.loads(result_path.read_text())


def _failed_cycle(workload: str, cycle: int, reason: str) -> dict:
    return {"cycle": cycle, "ops": {op: {"wall_s": None, "error": reason} for op in workloads.OPERATIONS[workload]}}


def _succeeded(cycle: dict) -> bool:
    return all(record["error"] is None for record in cycle["ops"].values())


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def _op_wall(cycle: dict, names) -> float | None:
    walls = [cycle["ops"][name]["wall_s"] for name in names]
    return sum(walls) if names and None not in walls else None


def _rate(cycle: dict, count_key: str, op_names) -> float | None:
    wall = _op_wall(cycle, op_names)
    count = cycle.get("work", {}).get(count_key)
    return count / wall if wall and count else None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    for sub in ("cycles", "work", "trace", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()[0]
    steal_start = _cpu_steal_s()
    start = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    cycle = 0
    while True:
        elapsed = time.monotonic() - start
        if cycle >= MIN_CYCLES[trace] and elapsed + _median(durations) > seconds:
            break
        if RUN_LIMIT_S - elapsed < 10:
            break
        began = time.monotonic()
        for flag in ((False, True) if trace else (False,)):
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            result = run_cycle(workload, seed, cycle, flag, min(CYCLE_TIMEOUT_S, max(remaining, 1.0)))
            (traced if flag else untraced).append(result)
        durations.append(time.monotonic() - began)
        cycle += 1
    load_end = os.getloadavg()[0]
    run_s = time.monotonic() - start
    steal_end = _cpu_steal_s()
    steal_frac = None
    if steal_start is not None and steal_end is not None:
        steal_frac = (steal_end - steal_start) / (run_s * os.cpu_count())

    # metrics come from cycles whose every operation succeeded
    completed = [c for c in untraced if _succeeded(c)]
    metrics = {
        "wall_s": _median(c["wall_s"] for c in completed),
        "setup_s": _median(c["setup_s"] for c in completed),
        "peak_rss_mb": _median(c["peak_rss_mb"] for c in completed),
        "patterns_per_s": _median(_rate(c, "patterns", workloads.GENERATION_OPS[workload]) for c in completed),
    }
    layer_table: dict[str, float] = {}
    if trace:
        layer_table = _layer_metrics(workload, completed, [c for c in traced if _succeeded(c)])
    records = [(c, op, rec) for c in untraced + traced for op, rec in c["ops"].items()]
    failures = [
        f"cycle {c.get('cycle', '?')} {op}: {rec['error']}" for c, op, rec in records if rec["error"] is not None
    ]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cycles": len(untraced),
        "traced_cycles": len(traced),
        "cycle_program_seeds": [c.get("program_seed") for c in untraced],
        "reference_checked_cycles": sum(1 for c in untraced if c.get("reference_checked")),
        "attempted": len(records),
        "failed": len(failures),
        "fail_frac": len(failures) / len(records) if records else 1.0,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "per_layer": {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer_table.items()},
        "machine": _machine(load_start, load_end, steal_frac, untraced + traced),
    }


def _layer_metrics(workload: str, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    table = {name: _median(c["layers"][name] for c in traced) for name in layer_metric_names()}
    untraced_wall = _median(c["wall_s"] for c in untraced)
    table["trace.overhead_frac"] = _median(c["wall_s"] for c in traced) / untraced_wall - 1 if untraced_wall else 0.0
    # per-workload throughputs, from the untraced cycles; a workload that
    # does not do the work (no calibration, say) reads 0
    generation, permutation = workloads.GENERATION_OPS[workload], workloads.PERMUTATION_OPS[workload]
    table["calibrate_patterns_per_s"] = _median(_rate(c, "calibrate_patterns", generation) for c in untraced)
    table["perm_stats_per_s"] = _median(_rate(c, "perm_stats", permutation) for c in untraced)
    table["grow_lines_per_s"] = _median(_rate(c, "grow_lines", generation) for c in untraced)
    return table


def _layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def _machine(load_start: float, load_end: float, steal_frac: float | None, cycles: list[dict]) -> dict:
    versions = next((c["versions"] for c in cycles if "versions" in c), {})
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": load_end,
        "cpu_steal_frac": steal_frac,
    }


def _cpu_steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs.

    Inside a virtual machine the load average shows only this guest; steal
    time is where a busy neighbour on the host becomes visible.
    """
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _git_commit() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT.resolve():
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridpatterns").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _print_table(result: dict, stream) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['cycles']} cycles) ==", file=stream)
    rows = dict(result["metrics"])
    rows.update(result["per_layer"])
    rows["fail_frac"] = {"value": result["fail_frac"], "unit": "frac"}
    for name, entry in rows.items():
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']}", file=stream)
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=stream)
    machine = result["machine"]
    print(
        "  machine: nproc={nproc} affinity={affinity} cpu={cpu_model!r} python={python} numpy={numpy} "
        "scipy={scipy} commit={git_commit} source={src} load1m={loadavg_1m_start:.2f}->{loadavg_1m_end:.2f} "
        "steal={steal}".format(
            src=machine["source_sha256"][:12],
            steal="n/a" if machine["cpu_steal_frac"] is None else f"{machine['cpu_steal_frac']:.1%}",
            **machine
        ),
        file=stream,
    )


def _save(result: dict) -> None:
    tag = f"{result['workload']}-seed{result['seed']}-{'traced' if result['trace'] else 'untraced'}"
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if result["trace"]:
        with open(OUT / "trace" / f"{result['workload']}-seed{result['seed']}.layers.txt", "w") as fh:
            _print_table(result, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the gridpatterns pipeline.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridpatterns" / "__init__.py").is_file():
        print(f"error: no gridpatterns sources under {ROOT / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _save(result)
        correct = correct and result["failed"] == 0
        _print_table(result, sys.stderr if args.workload != "all" else sys.stdout)
    if args.workload == "all":
        return 0 if correct else 1
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer"] if args.trace else result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
