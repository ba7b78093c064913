#!/usr/bin/env python3
"""Grow synthetic outage patterns on a network and calibrate the growth knob.

The generator draws a target size from the Zipf model, seeds a pattern at a
random line, then repeatedly either extends the pattern at a fresh bus
(probability p_one_plus) or doubles back onto a bus it already touched.
Because the network is finite, the branching probability measured on the
output does not equal the knob; calibration closes that gap by bisection.
"""

from gridpatterns import (
    GeneratorConfig,
    ZipfModel,
    calibrate_p_one_plus,
    degree_sequence,
    generate_ensemble,
    n_one_plus,
    p_one_plus_observed,
    size_histogram,
)
from gridpatterns.synthnet import synthetic_network


def main() -> None:
    network = synthetic_network("grid-mesh", lines=200, multi_circuit_fraction=0.1, seed=3)
    print(f"network: {len(network.lines)} lines, {len(network.buses)} buses, "
          f"{len(network.multi_circuit_lines)} multi-circuit")

    config = GeneratorConfig(ZipfModel(4.1), p_one_plus=0.3, p_circuits=0.07, seed=21)
    ensemble = generate_ensemble(network, config, 20_000)

    hist = size_histogram([gp.pattern for gp in ensemble])
    print("\nsize histogram (generated vs model):")
    for k in range(1, 6):
        want = config.size_model.pmf(k)
        got = hist.frequencies.get(k, 0.0)
        print(f"  size {k}: {got:.4f} generated, {want:.4f} model")

    saturated = sum(gp.saturated for gp in ensemble)
    print(f"saturated growths (ran out of attachable lines): {saturated}")

    # A few of the larger patterns, with their degree sequences and the
    # per-pattern branching count n_one_plus.
    big = sorted(ensemble, key=lambda gp: -gp.achieved_size)[:3]
    print("\nlargest generated patterns:")
    for gp in big:
        seq = degree_sequence(gp.pattern)
        print(f"  {gp.achieved_size} lines, degree sequence {seq}, "
              f"n_one_plus {n_one_plus(seq)}, extra circuits {len(gp.extra_circuits)}")

    measured = p_one_plus_observed(ensemble)
    print(f"\nknob p_one_plus = {config.p_one_plus}, measured on output = {measured:.4f}")

    # Calibrate the knob so the measured value hits a target.
    target = 0.36
    result = calibrate_p_one_plus(
        network, config, target, ensemble_size=20_000, tolerance=0.01, max_iterations=20,
    )
    print(f"\ncalibrating to target {target}:")
    for step in result.steps:
        print(f"  step {step.index}: p_one_plus {step.p_one_plus:.4f} "
              f"-> measured {step.generated_value:.4f}")
    print(f"converged = {result.converged}, final knob {result.p_one_plus:.4f} "
          f"gives {result.generated_value:.4f}")


if __name__ == "__main__":
    main()
