"""Statistics and generative modeling of transmission line outage patterns.

The package covers the full pipeline from raw outage records to model
evaluation:

- ``ingest``: parse outage CSVs, normalize bus names, group records into
  one-minute generations.
- ``network``: build the connected single-line network implied by a history,
  with per-line circuit multiplicities.
- ``patterns``: split generations into connected patterns and compute their
  degree-sequence statistics.
- ``zipf``: fit and sample the Zipf distribution of pattern sizes.
- ``generator``: grow statistically matched synthetic patterns on any
  network, and calibrate the branching parameter.
- ``distance``: edit distance between degree sequences and exact Wasserstein
  distance between pattern distributions.
- ``evaluation``: permutation tests and repeated-ensemble evaluation
  reports.
- ``synthnet``: synthetic networks and histories for experiments.
- ``cli``: the ``gridpatterns`` command line tool wrapping all of the above.
"""

from .distance import (
    PatternDistribution,
    SequenceGraph,
    TransportPlan,
    empirical_distribution,
    sequence_distance,
    sequence_neighbors,
    wasserstein,
)
from .errors import (
    CalibrationError,
    DegenerateDataError,
    GridPatternsError,
    InputFormatError,
    NoFiniteMLEError,
)
from .evaluation import (
    EvaluationReport,
    PermutationTestResult,
    evaluate_model,
    permutation_test,
)
from .generator import (
    CalibrationResult,
    GeneratedPattern,
    GeneratorConfig,
    calibrate_p_one_plus,
    generate_ensemble,
)
from .ingest import (
    GenerationGroup,
    OutageRecord,
    group_into_generations,
    load_alias_map,
    normalize_bus,
    parse_outage_file,
)
from .network import Network, build_network_from_outages
from .patterns import (
    Pattern,
    degree_sequence,
    estimate_p_circuits,
    extract_patterns,
    line_count,
    n_one_plus,
    p_one_plus_observed,
    size_histogram,
    split_into_patterns,
)
from .rng import derive_seed, substream
from .synthnet import synthetic_history, synthetic_network
from .zipf import ZipfModel, fit_mle, log_likelihood, zeta

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "DegenerateDataError",
    "EvaluationReport",
    "GeneratedPattern",
    "GenerationGroup",
    "GeneratorConfig",
    "GridPatternsError",
    "InputFormatError",
    "Network",
    "NoFiniteMLEError",
    "OutageRecord",
    "Pattern",
    "PatternDistribution",
    "PermutationTestResult",
    "SequenceGraph",
    "TransportPlan",
    "ZipfModel",
    "build_network_from_outages",
    "calibrate_p_one_plus",
    "degree_sequence",
    "derive_seed",
    "empirical_distribution",
    "estimate_p_circuits",
    "evaluate_model",
    "extract_patterns",
    "fit_mle",
    "generate_ensemble",
    "group_into_generations",
    "line_count",
    "load_alias_map",
    "log_likelihood",
    "n_one_plus",
    "normalize_bus",
    "p_one_plus_observed",
    "parse_outage_file",
    "permutation_test",
    "sequence_distance",
    "sequence_neighbors",
    "size_histogram",
    "split_into_patterns",
    "substream",
    "synthetic_history",
    "synthetic_network",
    "wasserstein",
    "zeta",
]
