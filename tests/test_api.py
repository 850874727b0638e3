"""The package's public names.

Pinned so that a helper only tests need cannot be re-exported from
``lastzero`` unnoticed; such helpers live in ``tests/oracles.py``.
"""

import lastzero

PUBLIC = [
    "BoundaryPair", "FixedTimeRule", "HCurvePair", "InvariantViolationError",
    "LagRule", "LatticeSpec", "LatticeTooCoarseError", "NonConvergenceError",
    "OptimalRule", "OracleCompareReport", "PathEnsemble", "PolicyReport",
    "ProblemSpec", "SchemaError", "SimConfig", "SolverConfig", "SqrtRule",
    "ValueSurface", "bellman", "bellman_solve", "boundaries",
    "boundary_residuals", "build_value_surface", "closed_forms",
    "collect_last_zeros", "evaluate_policies", "evaluate_policy", "g_cdf",
    "gain_H", "h_curves", "kernel", "lag_integral_batch", "lag_rule",
    "mean_g", "montecarlo", "oracle_compare",
    "parse_policy", "save_per_path_csv", "simulate_paths",
    "solve_boundaries", "value", "value_at", "value_row",
]


def test_public_names_pinned():
    assert sorted(lastzero.__all__) == sorted(PUBLIC)
