"""Spans around the public entry points of each ``gridpatterns`` layer.

The tracer wraps functions and methods from outside the package: every
module attribute bound to a traced function is replaced by a wrapper, and
traced methods are replaced on their class.  Each call records one span
(name, parent, start, end) in memory; counters for the work a call did are
taken from its arguments and result.  Nothing is written until the cycle
ends.

Only coarse entry points are wrapped.  Hot helpers such as ``line_count``
or ``degree_sequence`` run millions of times per cycle and are left alone,
so the tracing cost stays a few percent (reported as
``trace.overhead_frac``).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "ingest",
    "network",
    "patterns",
    "zipf",
    "rng",
    "synthnet",
    "generator",
    "distance",
    "evaluation",
)

# (module, function) pairs, wrapped wherever the package binds them.
FUNCTIONS = {
    "cli": ("cmd_synth", "cmd_ingest", "cmd_extract", "cmd_fit", "cmd_calibrate", "cmd_generate", "cmd_evaluate"),
    "ingest": (
        "parse_outage_file",
        "group_into_generations",
        "read_generations_csv",
        "write_generations_csv",
        "write_outage_csv",
        "load_alias_map",
        "load_exclusions",
    ),
    "network": ("build_network_from_outages", "read_network_csv", "write_network_csv"),
    "patterns": (
        "extract_patterns",
        "read_patterns_file",
        "write_patterns_file",
        "write_degree_sequence_counts",
        "p_one_plus_observed",
        "estimate_p_circuits",
        "size_histogram",
    ),
    "zipf": ("fit_mle", "fit_report"),
    "rng": ("substream", "derive_seed"),
    "synthnet": ("synthetic_network", "synthetic_history"),
    "generator": (
        "generate_ensemble",
        "generate_pattern",
        "calibrate_p_one_plus",
        "measure_p_one_plus_generated",
        "write_generated_patterns",
    ),
    "distance": ("wasserstein",),
    "evaluation": ("permutation_test", "evaluate_model", "write_evaluation_csv"),
}

# (module, class, method) triples, wrapped on the class.
METHODS = (
    ("zipf", "ZipfModel", "sample_size"),
    ("distance", "SequenceGraph", "distance_matrix"),
    ("distance", "TransportSolver", "solve"),
)


class Tracer:
    """In-memory span store plus the counters the per-layer table needs."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.matrix_calls: list[tuple] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                starts[sid] = start
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name at every place the package binds it."""
        modules = {layer: importlib.import_module(f"gridpatterns.{layer}") for layer in LAYERS}
        bound = [m for key, m in sys.modules.items() if key == "gridpatterns" or key.startswith("gridpatterns.")]
        for layer, names in FUNCTIONS.items():
            for attr in names:
                original = getattr(modules[layer], attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", original, _COUNTERS.get(f"{layer}.{attr}"))
                for module in bound:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._restore.append((module, key, original))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                continue
            name = f"{layer}.{cls_name}.{attr}"
            setattr(cls, attr, self.wrap(name, original, _COUNTERS.get(name)))
            self._restore.append((cls, attr, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def durations_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = defaultdict(list)
        for name, start, end in zip(self.names, self.starts, self.ends):
            out[name].append(end - start)
        return out

    def self_time_by_layer(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children."""
        child = [0] * len(self.names)
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.names):
            out[name.split(".", 1)[0]] += (self.ends[i] - self.starts[i] - child[i]) / 1e9
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parents[i],
                            "name": name,
                            "start_ns": self.starts[i],
                            "end_ns": self.ends[i],
                            "run": self.run_id,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def _count_records(tracer, args, kwargs, result):
    tracer.counts["ingest.records"] += len(result.records)


def _count_patterns(tracer, args, kwargs, result):
    tracer.counts["patterns.patterns"] += len(result)


def _count_ensemble(tracer, args, kwargs, result):
    tracer.counts["generator.patterns"] += len(result)
    tracer.counts["generator.lines"] += sum(g.achieved_size for g in result)
    tracer.counts["generator.saturated"] += sum(1 for g in result if g.saturated)


def _count_calibration(tracer, args, kwargs, result):
    tracer.counts["generator.calibrate_iterates"] += len(result.steps)


def _count_matrix(tracer, args, kwargs, result):
    tracer.counts["distance.matrix_pairs"] += result.size
    tracer.matrix_calls.append((args, kwargs))


def _count_permutation_test(tracer, args, kwargs, result):
    tracer.counts["evaluation.perm_stats"] += result.permutations + 1


_COUNTERS = {
    "ingest.parse_outage_file": _count_records,
    "patterns.extract_patterns": _count_patterns,
    "generator.generate_ensemble": _count_ensemble,
    "generator.calibrate_p_one_plus": _count_calibration,
    "distance.SequenceGraph.distance_matrix": _count_matrix,
    "evaluation.permutation_test": _count_permutation_test,
}


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, matrix_warm_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced cycle, by name."""

    durations = tracer.durations_by_name()

    def total(name: str) -> float:
        return sum(durations.get(name, ())) / 1e9

    def calls(name: str) -> float:
        return float(len(durations.get(name, ())))

    counts = tracer.counts
    iterates = counts["generator.calibrate_iterates"]
    solves_ms = [d / 1e6 for d in durations.get("distance.TransportSolver.solve", ())]
    stages = ("synth", "ingest", "extract", "fit", "calibrate", "evaluate")
    out = {f"cli.{stage}_s": total(f"cli.cmd_{stage}") for stage in stages}
    out.update(
        {
            "ingest.parse_s": total("ingest.parse_outage_file"),
            "ingest.records": counts["ingest.records"],
            "ingest.group_s": total("ingest.group_into_generations"),
            "network.build_s": total("network.build_network_from_outages"),
            "network.read_s": total("network.read_network_csv"),
            "patterns.extract_s": total("patterns.extract_patterns"),
            "patterns.patterns": counts["patterns.patterns"],
            "zipf.fit_s": total("zipf.fit_mle"),
            "zipf.sample_calls": calls("zipf.ZipfModel.sample_size"),
            "zipf.sample_s": total("zipf.ZipfModel.sample_size"),
            "rng.substream_calls": calls("rng.substream"),
            "rng.substream_s": total("rng.substream"),
            "synthnet.network_s": total("synthnet.synthetic_network"),
            "synthnet.history_s": total("synthnet.synthetic_history"),
            "generator.ensemble_calls": calls("generator.generate_ensemble"),
            "generator.ensemble_s": total("generator.generate_ensemble"),
            "generator.patterns": counts["generator.patterns"],
            "generator.lines": counts["generator.lines"],
            "generator.saturated_frac": (
                counts["generator.saturated"] / counts["generator.patterns"] if counts["generator.patterns"] else 0.0
            ),
            "generator.calibrate_iterates": iterates,
            "generator.iterate_s": total("generator.calibrate_p_one_plus") / iterates if iterates else 0.0,
            "generator.measure_s": total("generator.measure_p_one_plus_generated"),
            "distance.matrix_calls": calls("distance.SequenceGraph.distance_matrix"),
            "distance.matrix_pairs": counts["distance.matrix_pairs"],
            "distance.matrix_cold_s": total("distance.SequenceGraph.distance_matrix"),
            "distance.matrix_warm_s": matrix_warm_s,
            "distance.solve_calls": float(len(solves_ms)),
            "distance.solve_ms_p50": _percentile(solves_ms, 0.50),
            "distance.solve_ms_p99": _percentile(solves_ms, 0.99),
            "evaluation.perm_tests": calls("evaluation.permutation_test"),
            "evaluation.perm_stats": counts["evaluation.perm_stats"],
            "evaluation.perm_test_s": total("evaluation.permutation_test"),
        }
    )
    for layer, seconds in tracer.self_time_by_layer().items():
        out[f"{layer}.self_s"] = seconds
    return out


def layer_metric_names() -> list[str]:
    return list(layer_metrics(Tracer(""), 0.0))


def repeat_matrix_calls(tracer: Tracer) -> float:
    """Repeat every recorded distance-matrix call on its warm graph."""
    from gridpatterns.distance import SequenceGraph

    if not tracer.matrix_calls:
        return 0.0
    method = SequenceGraph.distance_matrix
    method = getattr(method, "__wrapped__", method)
    start = time.perf_counter()
    for args, kwargs in tracer.matrix_calls:
        method(*args, **kwargs)
    return time.perf_counter() - start
