"""Balanced multiple-travelling-salesman toolkit.

Greedy construction heuristics (nearest node, closest vehicle), exact
solving of the node-balanced mTSP through one call, :func:`solve` (a
subset DP up to n = 16; above it a Lagrangian q-route bound, a local
search and a proof that enumerates the routes inside the gap and
partitions the customers into them), and closed-form distance laws with
Monte Carlo validation. The model and the tree search stay in
:mod:`mtspkit.exact`.
"""

from .instance import (
    GridSpec,
    Instance,
    ParseError,
    PlanError,
    RoutePlan,
    derive_seed,
    dumps_tsplib,
    euclidean_matrix,
    evaluate_plan,
    generate_uniform_instance,
    load_bundled,
    load_instance,
    parse_coords_csv,
    parse_tsplib,
    rng_from_seed,
)
from .heuristics import balance_plan, closest_vehicle, nearest_node
from .exact import (
    ExactResult,
    InfeasibleModelError,
    SolveStatus,
    brute_force_oracle,
    check_solution,
    solve,
)
from .distlaw import (
    IntegerRange,
    MonteCarloResult,
    PowerFit,
    Rectangle,
    SummaryRow,
    UnitInterval,
    delta_estimate,
    expected_pair_distance_ball,
    expected_pair_distance_interval,
    expected_pair_distance_rectangle,
    expected_pair_distance_square,
    extrapolate_m,
    fit_power_law,
    grid_2tsp_corner_distance,
    grid_line_distance,
    grid_scale,
    grid_tsp_distance,
    min_dist_exact,
    min_dist_expectation,
    predict_mtsp_distance,
    simulate_min_dist,
)
from .bench import (
    ComparisonRow,
    ExperimentConfig,
    LawReport,
    compare_instances,
    law_pipeline,
    load_reference_grid,
    run_experiment,
)

__version__ = "0.1.0"
