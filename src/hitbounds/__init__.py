"""Exact hitting-time statistics and sharp lower bounds for random walks
on finite weighted graphs.

The package computes, for a walk started at an origin vertex o and stopped
on a target set z: the exact expected hitting time, the full hitting-time
distribution, a damped survival transform, and a family of lower bounds
(mean, large-deviation tail, transform domination) calibrated only by the
graph distance and the weight ratio w_z * r(o, z).  A loss-flow
decomposition explains where probability mass is lost along the way, and
Monte Carlo samplers cross-check everything at desk scale.

Modules:
    graph       weighted-graph container, file format, normalization
    engine      exact linear-algebra statistics (mean, pmf, transform)
    refwalk     the g-biased walk on the integers (the comparison object)
    bounds      drift calibration and the three lower-bound families
    flows       loss flows, path decomposition and its identities
    generators  named graph families and the seeded random corpus member
    montecarlo  vectorized samplers with reproducible streams
    corpus      seeded corpus and whole-suite property reports
    cli         the `hitbounds` command
"""

from .bounds import (
    BoundCheck,
    BoundReport,
    check_theorem1,
    default_a_grid,
    default_beta_grid,
    drift_from_resistance,
    drift_upper_estimate,
    mean_lower_bound,
    poly_mean_asymptote,
    solve_drift,
    tail_upper_bound,
    transform_upper_bound,
)
from .corpus import DEFAULT_SEED, corpus_graph, standard_corpus
from .engine import (
    HittingStats,
    WalkParameters,
    effective_resistance,
    expected_hitting_time,
    gamma,
    green_kernel,
    green_rows,
    hitting_time_pmf,
    origin_visits,
    survival_transform,
    walk_parameters,
)
from .flows import (
    FlowDecomposition,
    FlowError,
    LossFlow,
    PathComponent,
    build_flow,
    cycle_reversibility_gap,
    decompose,
    flow_parameters,
    gamma_chain_bound,
    h_transform,
    node_law_residual,
    path_flow,
    s_value,
    theta,
)
from .generators import (
    biased_line,
    concatenated_fast,
    fast_path,
    fast_path_expected,
    fast_path_resistance,
    poly_growth_drift,
    random_graph,
    tree_line,
    unit_path,
)
from .graph import (
    GraphError,
    ParseError,
    WeightedGraph,
    parse,
    read_graph_file,
    serialize,
    write_graph_file,
)
from .montecarlo import (
    EscapeSample,
    HittingSample,
    SimConfig,
    TailEstimate,
    escape_ratios,
    estimate_tail,
    simulate_hitting,
    to_csv_text,
)
from .refwalk import (
    BiasedWalk,
    ParameterError,
    advance_pgf,
    advance_time_pmf,
    mean_advance_time,
    position_tail,
    rate_function,
)

__version__ = "0.1.0"
