"""Record the correctness references of the benchmark at the current commit.

Run from the root of a checkout:

    python3 bench/record_references.py --seeds 0-10
    python3 bench/record_references.py --seeds 0-10 --workload quickstart

Each (workload, seed, cycle) runs once, untraced, exactly as in a benchmark
run; the outputs a later commit must reproduce are written to
``bench/references.json`` keyed by the program seed of the cycle.  With
``--workload`` only the named workloads are recorded; the others keep their
references.  Cycles of seeds without a reference are checked against
invariants only.  Record again only when a change of outputs is intended,
and say why in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

# cycles per seed to record: a 40-second run rarely gets further than this
CYCLES = {"quickstart": 4, "calibrate-mesh": 6, "heavy-tail": 12}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    parser.add_argument(
        "--workload", action="append", choices=workloads.WORKLOADS, help="record only this workload (repeatable)"
    )
    args = parser.parse_args(argv)
    chosen = args.workload or workloads.WORKLOADS
    low, high = (int(x) for x in args.seeds.split("-"))
    for sub in ("cycles", "work", "trace"):
        (run.OUT / sub).mkdir(parents=True, exist_ok=True)
    tasks = [
        (workload, seed, cycle)
        for workload in chosen
        for seed in range(low, high + 1)
        for cycle in range(CYCLES[workload])
    ]
    # cycles only check outputs here, so they may share the CPUs
    with ThreadPoolExecutor(max_workers=min(2, len(os.sched_getaffinity(0)))) as pool:
        results = list(pool.map(lambda t: run.run_cycle(*t, False, run.CYCLE_TIMEOUT_S, references=None), tasks))
    references: dict[str, dict] = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    references.update({name: {} for name in chosen})
    bad = 0
    for (workload, seed, cycle), result in zip(tasks, results):
        errors = [f"{op}: {rec['error']}" for op, rec in result["ops"].items() if rec["error"]]
        if errors:
            print(f"{workload} seed {seed} cycle {cycle}: {'; '.join(errors)}", file=sys.stderr)
            bad += 1
            continue
        key = str(workloads.program_seed(seed, cycle))
        references[workload][key] = workloads.reference_of(workload, result["digest"])
    if bad:
        print(f"{bad} cycles failed; references not written", file=sys.stderr)
        return 1
    with open(run.REFERENCES, "w") as fh:
        fh.write("{\n")
        for i, workload in enumerate(workloads.WORKLOADS):
            fh.write(f' "{workload}": {{\n')
            entries = sorted(references.get(workload, {}).items(), key=lambda kv: int(kv[0]))
            for j, (key, value) in enumerate(entries):
                comma = "," if j < len(entries) - 1 else ""
                fh.write(f'  "{key}": {json.dumps(value, sort_keys=True)}{comma}\n')
            fh.write(" }" + ("," if i < len(workloads.WORKLOADS) - 1 else "") + "\n")
        fh.write("}\n")
    print(f"wrote {sum(len(references[name]) for name in chosen)} references to {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
