"""Search over digraphs whose edge costs arrive through tightening estimators."""

from .anytime import AnytimeResult, IterationRecord, a_beauty
from .bench import RunRecord, SuiteReport, run_suite
from .estimation import EstimationCache, Metrics, write_metrics_csv
from .generators import WeightedDigraph, gen_grid_graph, gen_random_graph
from .graph import (
    Edge,
    EdgeBoundState,
    EstimatedDigraph,
    EstimatorSpec,
    Path,
    Problem,
    Violation,
    admissibility_factor,
    path_bounds,
    tightest_edge_bounds,
    validate_graph,
)
from .io import (
    dump_problem,
    dump_weighted,
    load_problem,
    load_suite,
    load_weighted,
    problem_from_json,
    problem_to_json,
    weighted_from_json,
    weighted_to_json,
)
from .oracle import (
    FullEstimate,
    full_estimate,
    oracle_cstar,
    oracle_enumerate,
    oracle_lstar,
)
from .search import SearchResult, beauty, beauty_ps, default_backend_name, ei_ucs
from .synth import (
    DEFAULT_MULTIPLIER_TABLE,
    DEFAULT_TIME_COSTS,
    synth_estimators,
)

__version__ = "0.1.0"

__all__ = [
    "AnytimeResult",
    "DEFAULT_MULTIPLIER_TABLE",
    "DEFAULT_TIME_COSTS",
    "Edge",
    "EdgeBoundState",
    "EstimatedDigraph",
    "EstimationCache",
    "EstimatorSpec",
    "FullEstimate",
    "IterationRecord",
    "Metrics",
    "Path",
    "Problem",
    "RunRecord",
    "SearchResult",
    "SuiteReport",
    "Violation",
    "WeightedDigraph",
    "a_beauty",
    "admissibility_factor",
    "beauty",
    "beauty_ps",
    "default_backend_name",
    "dump_problem",
    "dump_weighted",
    "ei_ucs",
    "full_estimate",
    "gen_grid_graph",
    "gen_random_graph",
    "load_problem",
    "load_suite",
    "load_weighted",
    "oracle_cstar",
    "oracle_enumerate",
    "oracle_lstar",
    "path_bounds",
    "problem_from_json",
    "problem_to_json",
    "run_suite",
    "synth_estimators",
    "tightest_edge_bounds",
    "validate_graph",
    "weighted_from_json",
    "weighted_to_json",
    "write_metrics_csv",
]
