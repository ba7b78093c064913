"""One benchmark cycle in a fresh process.

Usage: ``python3 bench/worker.py SPEC_JSON``, started by ``bench/run.py``.
The spec names the checkout root, the workload, the seed and cycle, whether
to trace, the spawn time ``t0`` (``time.time()`` just before the process was
started) and where to write the result.  The worker

1. imports ``gridpatterns`` from ``<root>/src`` and builds the cycle's
   inputs (set-up, timed from ``t0``);
2. runs the workload's operations, each under its own timeout;
3. checks the outputs against the recorded references, or against
   invariants when the seed has none;
4. writes one JSON result.  Traced cycles also write their spans.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import signal
import sys
import time
from pathlib import Path


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


class Ops:
    """Runs operations under a timeout and records how each ended."""

    def __init__(self, timeouts: dict[str, float]):
        self.timeouts = timeouts
        self.records: dict[str, dict] = {}
        signal.signal(signal.SIGALRM, _alarm)

    def call(self, name: str, fn):
        limit = self.timeouts[name]
        result, error = None, None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            result = fn()
        except OpTimeout:
            error = f"did not finish within {limit} s"
        except SystemExit as exc:
            error = f"exited {exc.code}"
        except Exception as exc:  # an operation failure is recorded, not fatal
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.records[name] = {"wall_s": time.perf_counter() - start, "error": error}
        return result

    def fail(self, name: str, text: str) -> None:
        record = self.records.setdefault(name, {"wall_s": None, "error": None})
        record["error"] = text if record["error"] is None else f"{record['error']}; {text}"


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import numpy
    import scipy

    import gridpatterns.cli  # noqa: F401  (loads every layer, and scipy)
    import workloads
    from spans import Tracer, layer_metrics, repeat_matrix_calls

    name, seed, cycle = spec["workload"], spec["seed"], spec["cycle"]
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if spec["trace"]:
        tracer = Tracer(f"{name}-seed{seed}-cycle{cycle}")
        tracer.install()
    state = workloads.SETUP[name](seed, cycle, workdir)
    setup_s = time.time() - spec["t0"]

    ops = Ops(workloads.TIMEOUT_S[name])
    start = time.perf_counter()
    state.update(workloads.RUN[name](state, ops))
    wall_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer, repeat_matrix_calls(tracer))
        tracer.write_spans(spec["spans"])

    digest, work = workloads.RESULTS[name](state)
    references_path = spec["references"] and Path(spec["references"])
    references = json.loads(references_path.read_text()) if references_path and references_path.exists() else {}
    reference = references.get(name, {}).get(str(workloads.program_seed(seed, cycle)))
    for op, problems in workloads.CHECK[name](digest, reference).items():
        ops.fail(op, "; ".join(problems))
    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": name,
        "seed": seed,
        "cycle": cycle,
        "program_seed": workloads.program_seed(seed, cycle),
        "traced": bool(spec["trace"]),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "ops": ops.records,
        "work": work,
        "digest": digest,
        "reference_checked": reference is not None,
        "layers": layers,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    Path(spec["result"]).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
