"""Command line interface for the outage-pattern pipeline.

Each subcommand wraps a library operation and writes its outputs plus a
``manifest.json`` listing inputs, parameters, and a sha256 checksum per
output file.  Nothing in the outputs depends on wall-clock time or on the
``--threads`` value, so reruns with the same manifest are byte-identical.

Exit codes: 0 on success; 2 for input and format problems and for invalid
arguments (such as ``--threads`` below 1, or a calibration ensemble size or
iteration count below 1 or a negative tolerance); 3 for empty or degenerate
data; 4 for calibration failure; 5 for any other error this package raises,
such as a distance search that exceeds its line-count cap.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import evaluation, generator, ingest, network as network_mod, patterns, synthnet, zipf
from .errors import CalibrationError, DegenerateDataError, GridPatternsError, InputFormatError
from .rng import derive_seed


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(out_dir: Path, command: str, inputs: dict, parameters: dict, outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "inputs": {key: str(value) for key, value in inputs.items()},
        "parameters": parameters,
        "outputs": {path.name: _sha256(path) for path in outputs},
    }
    with open(out_dir / "manifest.json", "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_ingest(args) -> int:
    out = _out_dir(args)
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
    _write_manifest(
        out,
        "ingest",
        inputs={
            "outages": args.outages,
            **({"aliases": args.aliases} if args.aliases else {}),
            **({"exclusions": args.exclusions} if args.exclusions else {}),
        },
        parameters={"seed": args.seed},
        outputs=[network_path, generations_path],
    )
    print(f"records: {len(parsed.records)}")
    print(f"dropped_non_automatic: {parsed.dropped_non_automatic}")
    print(f"dropped_self_loops: {parsed.dropped_self_loops}")
    print(f"generations: {len(groups)}")
    print(f"network_buses: {net.n_buses}")
    print(f"network_lines: {net.n_lines}")
    return 0


def cmd_extract(args) -> int:
    out = _out_dir(args)
    net = network_mod.read_network_csv(args.network)
    groups = ingest.read_generations_csv(args.generations)
    pats = patterns.extract_patterns(groups, net)
    patterns_path = out / "patterns.txt"
    counts_path = out / "degree_sequence_counts.csv"
    patterns.write_patterns_file(patterns_path, pats)
    patterns.write_degree_sequence_counts(counts_path, pats)
    _write_manifest(
        out,
        "extract",
        inputs={"generations": args.generations, "network": args.network},
        parameters={"seed": args.seed},
        outputs=[patterns_path, counts_path],
    )
    print(f"patterns: {len(pats)}")
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args)
    pats = patterns.read_patterns_file(args.patterns)
    sizes = [len(p.lines) for p in pats]
    model = zipf.fit_mle(sizes)
    p_one_plus = patterns.p_one_plus_observed(pats)
    p_circuits = None
    if args.generations and args.network:
        net = network_mod.read_network_csv(args.network)
        groups = ingest.read_generations_csv(args.generations)
        p_circuits = patterns.estimate_p_circuits(groups, net)
    histogram = patterns.size_histogram(pats)
    report_path = out / "fit_report.txt"
    json_path = out / "fit.json"
    histogram_path = out / "size_histogram.csv"
    with open(report_path, "w", newline="") as fh:
        fh.write(zipf.fit_report(model, sizes))
        fh.write(f"p_one_plus_observed: {'none' if p_one_plus is None else f'{p_one_plus:.6f}'}\n")
        fh.write(f"p_circuits: {'none' if p_circuits is None else f'{p_circuits:.6f}'}\n")
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
    with open(histogram_path, "w", newline="") as fh:
        fh.write("size,count,frequency\n")
        freqs = histogram.frequencies
        for size in histogram.sizes:
            fh.write(f"{size},{histogram.counts[size]},{freqs[size]:.12g}\n")
    _write_manifest(
        out,
        "fit",
        inputs={
            "patterns": args.patterns,
            **({"generations": args.generations} if args.generations else {}),
            **({"network": args.network} if args.network else {}),
        },
        parameters={"seed": args.seed},
        outputs=[report_path, json_path, histogram_path],
    )
    print(f"s: {model.s:.4f}")
    return 0


def cmd_calibrate(args) -> int:
    out = _out_dir(args)
    net = network_mod.read_network_csv(args.network)
    config = generator.GeneratorConfig(
        size_model=zipf.ZipfModel(args.s),
        p_one_plus=0.5,
        p_circuits=args.p_circuits,
        seed=args.seed,
    )
    result = generator.calibrate_p_one_plus(
        net,
        config,
        args.target,
        ensemble_size=args.ensemble_size,
        tolerance=args.tolerance,
        max_iterations=args.max_iterations,
        workers=args.threads,
    )
    trace_path = out / "calibration_trace.txt"
    json_path = out / "calibration.json"
    with open(trace_path, "w", newline="") as fh:
        fh.write(generator.format_calibration_trace(result))
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
    _write_manifest(
        out,
        "calibrate",
        inputs={"network": args.network},
        parameters={
            "seed": args.seed,
            "s": args.s,
            "target": args.target,
            "p_circuits": args.p_circuits,
            "ensemble_size": args.ensemble_size,
            "tolerance": args.tolerance,
            "max_iterations": args.max_iterations,
        },
        outputs=[trace_path, json_path],
    )
    print(f"p_one_plus: {result.p_one_plus:.6f}")
    return 0


def cmd_generate(args) -> int:
    out = _out_dir(args)
    net = network_mod.read_network_csv(args.network)
    config = generator.GeneratorConfig(
        size_model=zipf.ZipfModel(args.s),
        p_one_plus=args.p_one_plus,
        p_circuits=args.p_circuits,
        seed=args.seed,
    )
    ensemble = generator.generate_ensemble(net, config, args.count, workers=args.threads)
    patterns_path = out / "generated_patterns.txt"
    generator.write_generated_patterns(patterns_path, ensemble)
    _write_manifest(
        out,
        "generate",
        inputs={"network": args.network},
        parameters={
            "seed": args.seed,
            "s": args.s,
            "p_one_plus": args.p_one_plus,
            "p_circuits": args.p_circuits,
            "count": args.count,
        },
        outputs=[patterns_path],
    )
    print(f"generated: {len(ensemble)}")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    net = network_mod.read_network_csv(args.network)
    observed = patterns.read_patterns_file(args.patterns)
    if not observed:
        raise DegenerateDataError("no observed patterns to evaluate against")
    model = zipf.ZipfModel(args.s)
    config = generator.GeneratorConfig(
        size_model=model,
        p_one_plus=args.p_one_plus,
        p_circuits=args.p_circuits,
        seed=args.seed,
    )
    report = evaluation.evaluate_model(
        observed,
        net,
        config,
        repetitions=args.repetitions,
        permutations=args.permutations,
        seed=args.seed,
        workers=args.threads,
    )
    csv_path = out / "evaluation.csv"
    text_path = out / "evaluation.txt"
    sizes_path = out / "size_distribution.csv"
    evaluation.write_evaluation_csv(csv_path, report)
    with open(text_path, "w", newline="") as fh:
        fh.write(evaluation.format_evaluation_report(report))
    evaluation.write_size_distribution_csv(sizes_path, patterns.size_histogram(observed), model)
    _write_manifest(
        out,
        "evaluate",
        inputs={"network": args.network, "patterns": args.patterns},
        parameters={
            "seed": args.seed,
            "s": args.s,
            "p_one_plus": args.p_one_plus,
            "p_circuits": args.p_circuits,
            "repetitions": args.repetitions,
            "permutations": args.permutations,
        },
        outputs=[csv_path, text_path, sizes_path],
    )
    print(f"mean_distance: {report.mean_distance:.6f}")
    print(f"median_p_value: {report.median_p_value:.6f}")
    return 0


def cmd_synth(args) -> int:
    out = _out_dir(args)
    net = synthnet.synthetic_network(args.kind, args.lines, args.multi_circuit_fraction, args.seed)
    network_path = out / "network.csv"
    network_mod.write_network_csv(network_path, net)
    outputs = [network_path]
    parameters = {
        "seed": args.seed,
        "kind": args.kind,
        "lines": args.lines,
        "multi_circuit_fraction": args.multi_circuit_fraction,
    }
    if args.history_count:
        if args.s is None or args.p_one_plus is None:
            raise InputFormatError("--history-count requires --s and --p-one-plus")
        config = generator.GeneratorConfig(
            size_model=zipf.ZipfModel(args.s),
            p_one_plus=args.p_one_plus,
            p_circuits=args.p_circuits,
            seed=derive_seed(args.seed, 1),
        )
        records, _ = synthnet.synthetic_history(net, config, args.history_count, workers=args.threads)
        outages_path = out / "outages.csv"
        ingest.write_outage_csv(outages_path, records)
        outputs.append(outages_path)
        parameters.update(
            {
                "history_count": args.history_count,
                "s": args.s,
                "p_one_plus": args.p_one_plus,
                "p_circuits": args.p_circuits,
            }
        )
    _write_manifest(out, "synth", inputs={}, parameters=parameters, outputs=outputs)
    print(f"network_buses: {net.n_buses}")
    print(f"network_lines: {net.n_lines}")
    return 0


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
        help="worker processes, at least 1 (default 1); never more than the usable CPUs or the tasks",
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
    p.add_argument("--generations", help="generations CSV, enables p_circuits")
    p.add_argument("--network", help="network CSV, enables p_circuits")
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
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (OSError, InputFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GridPatternsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
