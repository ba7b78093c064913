"""Command line interface for the outage-pattern pipeline.

Each subcommand wraps a library operation, writes its outputs to ``--out``
and returns their paths; ``main`` then writes a ``manifest.json`` with the
command, its inputs, its parameters, and a sha256 checksum per output file.
The manifest is derived from the parsed options alone: ``inputs`` holds the
input file options that are set (``--outages``, ``--aliases``,
``--exclusions``, ``--generations``, ``--network``, ``--patterns``), and
``parameters`` every other option but ``--threads`` and ``--out``.  The one
exception is ``synth``, which records ``--history-count``, ``--s``,
``--p-one-plus`` and ``--p-circuits`` only when ``--history-count`` is
given.  A later option that is not a parameter, such as a ``--stats PATH``
for run statistics, joins ``--threads`` and ``--out`` in ``NOT_PARAMETERS``.
Nothing in the outputs depends on wall-clock time or on the ``--threads``
value, so reruns with the same manifest are byte-identical.

Exit codes: 0 on success; 2 for input and format problems and for invalid
arguments (such as ``--threads`` below 1, a negative ``--seed``, a
``--count``, ``--ensemble-size`` or ``--history-count`` that is negative or
2**32 or more, ``fit`` given only one of ``--generations`` and
``--network``, or a calibration ensemble size or iteration count below 1
or a negative or NaN tolerance); 3 for empty or degenerate data; 4
for calibration failure; 5 for any other error this package raises; 6 when
the machine runs out of memory (say for ``synth --lines`` 10**12).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import evaluation, generator, ingest, network as network_mod, patterns, synthnet, zipf
from .errors import CalibrationError, DegenerateDataError, GridPatternsError, InputFormatError
from .lines import write_table
from .rng import STREAMS, derive_seed

# The first row whose types match an error gives the exit code, so each
# subclass is listed before its base.
EXIT_CODES = (
    ((OSError, InputFormatError, ValueError), 2),
    (CalibrationError, 4),
    (DegenerateDataError, 3),
    (GridPatternsError, 5),
    (MemoryError, 6),
)
FILE_OPTIONS = ("outages", "aliases", "exclusions", "generations", "network", "patterns")
NOT_PARAMETERS = ("command", "func", "threads", "out", *FILE_OPTIONS)
# synth records these only when it writes a history
HISTORY_OPTIONS = ("history_count", "s", "p_one_plus", "p_circuits")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(args, outputs: list[Path]) -> dict:
    options = vars(args)
    parameters = {key: value for key, value in options.items() if key not in NOT_PARAMETERS}
    if args.command == "synth" and not args.history_count:
        for key in HISTORY_OPTIONS:
            del parameters[key]
    return {
        "command": args.command,
        "inputs": {key: str(options[key]) for key in FILE_OPTIONS if options.get(key)},
        "parameters": parameters,
        "outputs": {path.name: _sha256(path) for path in outputs},
    }


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _config(args, p_one_plus: float, seed: int) -> generator.GeneratorConfig:
    return generator.GeneratorConfig(zipf.ZipfModel(args.s), p_one_plus, p_circuits=args.p_circuits, seed=seed)


def _check(args) -> None:
    """Reject arguments a command cannot use as given, before ``--out`` is created."""
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.command == "synth" and args.history_count:
        if not 0 <= args.history_count < STREAMS:
            raise ValueError(f"--history-count must lie in [0, 2**32), got {args.history_count}")
        if args.s is None or args.p_one_plus is None:
            raise InputFormatError("--history-count requires --s and --p-one-plus")
    if args.command == "fit" and bool(args.generations) != bool(args.network):
        raise InputFormatError("fit needs --generations and --network together, or neither")


def cmd_ingest(args, out: Path) -> list[Path]:
    aliases = ingest.load_alias_map(args.aliases) if args.aliases else None
    exclusions = ingest.load_exclusions(args.exclusions, aliases) if args.exclusions else ()
    parsed = ingest.parse_outage_file(args.outages, aliases)
    if not parsed.records:
        raise DegenerateDataError("no automatic outage records after cleaning")
    net = network_mod.build_network_from_outages(parsed.records, exclusions)
    kept = [rec for rec in parsed.records if rec.line in net.line_set]
    groups = ingest.group_into_generations(kept)
    network_path = out / "network.csv"
    generations_path = out / "generations.csv"
    network_mod.write_network_csv(network_path, net)
    ingest.write_generations_csv(generations_path, groups)
    print(f"records: {len(parsed.records)}")
    print(f"dropped_non_automatic: {parsed.dropped_non_automatic}")
    print(f"dropped_self_loops: {parsed.dropped_self_loops}")
    print(f"generations: {len(groups)}")
    print(f"network_buses: {net.n_buses}")
    print(f"network_lines: {net.n_lines}")
    return [network_path, generations_path]


def cmd_extract(args, out: Path) -> list[Path]:
    net = network_mod.read_network_csv(args.network)
    groups = ingest.read_generations_csv(args.generations)
    pats = patterns.extract_patterns(groups, net)
    patterns_path = out / "patterns.txt"
    counts_path = out / "degree_sequence_counts.csv"
    patterns.write_patterns_file(patterns_path, pats)
    patterns.write_degree_sequence_counts(counts_path, pats)
    print(f"patterns: {len(pats)}")
    return [patterns_path, counts_path]


def cmd_fit(args, out: Path) -> list[Path]:
    pats = patterns.read_patterns_file(args.patterns)
    sizes = [len(p.lines) for p in pats]
    model = zipf.fit_mle(sizes)
    p_one_plus = patterns.p_one_plus_observed(pats)
    p_circuits = None
    if args.generations:
        net = network_mod.read_network_csv(args.network)
        groups = ingest.read_generations_csv(args.generations)
        p_circuits = patterns.estimate_p_circuits(groups, net)
    histogram = patterns.size_histogram(pats)
    report_path = out / "fit_report.txt"
    json_path = out / "fit.json"
    histogram_path = out / "size_histogram.csv"
    _write_text(
        report_path,
        zipf.fit_report(model, sizes)
        + f"p_one_plus_observed: {'none' if p_one_plus is None else f'{p_one_plus:.6f}'}\n"
        + f"p_circuits: {'none' if p_circuits is None else f'{p_circuits:.6f}'}\n",
    )
    _write_json(
        json_path,
        {
            "s": round(model.s, 6),
            "propagation_slope_index": round(model.pepsi, 6),
            "sample_size": len(sizes),
            "log_likelihood": round(zipf.log_likelihood(model, sizes), 6),
            "p_large_4": round(model.p_large(4), 8),
            "p_one_plus_observed": None if p_one_plus is None else round(p_one_plus, 6),
            "p_circuits": None if p_circuits is None else round(p_circuits, 6),
            "pmf_head": [round(model.pmf(k), 8) for k in range(1, 8)],
        },
    )
    freqs = histogram.frequencies
    rows = ((size, histogram.counts[size], f"{freqs[size]:.12g}") for size in histogram.sizes)
    write_table(histogram_path, ("size", "count", "frequency"), rows)
    print(f"s: {model.s:.4f}")
    return [report_path, json_path, histogram_path]


def cmd_calibrate(args, out: Path) -> list[Path]:
    net = network_mod.read_network_csv(args.network)
    result = generator.calibrate_p_one_plus(
        net,
        _config(args, 0.5, args.seed),
        args.target,
        ensemble_size=args.ensemble_size,
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
    )
    trace_path = out / "calibration_trace.txt"
    json_path = out / "calibration.json"
    _write_text(trace_path, generator.format_calibration_trace(result))
    _write_json(
        json_path,
        {
            "p_one_plus": round(result.p_one_plus, 8),
            "generated_value": round(result.generated_value, 8),
            "target": result.target,
            "tolerance": result.tolerance,
            "converged": result.converged,
            "evaluations": len(result.steps),
        },
    )
    print(f"p_one_plus: {result.p_one_plus:.6f}")
    return [trace_path, json_path]


def cmd_generate(args, out: Path) -> list[Path]:
    net = network_mod.read_network_csv(args.network)
    ensemble = generator.generate_ensemble(net, _config(args, args.p_one_plus, args.seed), args.count)
    patterns_path = out / "generated_patterns.txt"
    generator.write_generated_patterns(patterns_path, ensemble)
    print(f"generated: {len(ensemble)}")
    return [patterns_path]


def cmd_evaluate(args, out: Path) -> list[Path]:
    net = network_mod.read_network_csv(args.network)
    observed = patterns.read_patterns_file(args.patterns)
    config = _config(args, args.p_one_plus, args.seed)
    report = evaluation.evaluate_model(
        observed,
        net,
        config,
        repetitions=args.repetitions,
        permutations=args.permutations,
        workers=args.threads,
    )
    csv_path = out / "evaluation.csv"
    text_path = out / "evaluation.txt"
    sizes_path = out / "size_distribution.csv"
    evaluation.write_evaluation_csv(csv_path, report)
    _write_text(text_path, evaluation.format_evaluation_report(report))
    evaluation.write_size_distribution_csv(sizes_path, patterns.size_histogram(observed), config.size_model)
    print(f"mean_distance: {report.mean_distance:.6f}")
    print(f"median_p_value: {report.median_p_value:.6f}")
    return [csv_path, text_path, sizes_path]


def cmd_synth(args, out: Path) -> list[Path]:
    # the history's config is built first, so a bad model flag fails before any write
    config = _config(args, args.p_one_plus, derive_seed(args.seed, 1)) if args.history_count else None
    net = synthnet.synthetic_network(args.kind, args.lines, args.multi_circuit_fraction, args.seed)
    outputs = [out / "network.csv"]
    network_mod.write_network_csv(out / "network.csv", net)
    if config is not None:
        records, _ = synthnet.synthetic_history(net, config, args.history_count)
        ingest.write_outage_csv(out / "outages.csv", records)
        outputs.append(out / "outages.csv")
    print(f"network_buses: {net.n_buses}")
    print(f"network_lines: {net.n_lines}")
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridpatterns",
        description="Extract, model, and evaluate transmission line outage patterns.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root random seed (default 0)")
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes for evaluate's repetitions, at least 1 (default 1); never more than the "
        "usable CPUs or the repetitions; the other commands run in one process",
    )
    common.add_argument("--out", default=".", help="output directory (default current)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="parse outages, build network and generations")
    p.add_argument("--outages", required=True, help="outage history CSV")
    p.add_argument("--aliases", help="bus alias CSV")
    p.add_argument("--exclusions", help="line exclusion CSV")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("extract", parents=[common], help="split generations into patterns")
    p.add_argument("--generations", required=True, help="generations CSV from ingest")
    p.add_argument("--network", required=True, help="network CSV from ingest")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fit", parents=[common], help="fit the size distribution and statistics")
    p.add_argument("--patterns", required=True, help="pattern file from extract")
    p.add_argument("--generations", help="generations CSV; with --network, enables p_circuits")
    p.add_argument("--network", help="network CSV; with --generations, enables p_circuits")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("calibrate", parents=[common], help="calibrate p_one_plus to a target")
    p.add_argument("--network", required=True)
    p.add_argument("--target", type=float, required=True, help="observed branching probability")
    p.add_argument("--s", type=float, required=True, help="size distribution exponent")
    p.add_argument("--p-circuits", type=float, default=0.0)
    p.add_argument("--ensemble-size", type=int, default=1_000_000)
    p.add_argument("--tolerance", type=float, default=0.005)
    p.add_argument("--max-iterations", type=int, default=20)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("generate", parents=[common], help="generate a pattern ensemble")
    p.add_argument("--network", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p-one-plus", type=float, required=True)
    p.add_argument("--p-circuits", type=float, default=0.0)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", parents=[common], help="compare generated ensembles to observed patterns")
    p.add_argument("--network", required=True)
    p.add_argument("--patterns", required=True, help="observed pattern file")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p-one-plus", type=float, required=True)
    p.add_argument("--p-circuits", type=float, default=0.0)
    p.add_argument("--repetitions", type=int, default=100)
    p.add_argument("--permutations", type=int, default=999)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", parents=[common], help="build a synthetic network and optional history")
    p.add_argument("--kind", required=True, choices=synthnet.NETWORK_KINDS)
    p.add_argument("--lines", type=int, required=True)
    p.add_argument("--multi-circuit-fraction", type=float, default=0.0)
    p.add_argument("--history-count", type=int, default=0, help="also write a synthetic outage history")
    p.add_argument("--s", type=float)
    p.add_argument("--p-one-plus", type=float)
    p.add_argument("--p-circuits", type=float, default=0.0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outputs = args.func(args, out)
        _write_json(out / "manifest.json", _manifest(args, outputs))
        return 0
    except (OSError, ValueError, GridPatternsError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(exc, types))


if __name__ == "__main__":
    sys.exit(main())
