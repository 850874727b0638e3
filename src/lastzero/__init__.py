"""Optimal prediction of the last zero of drifted Brownian motion.

Boundaries of the optimal stopping rule come from a coupled Volterra
integral system solved backward in time; the value function and the
optimal expected prediction error follow from a kernel lag-integral
formula; an independent trinomial-lattice Bellman solver and a seeded
Monte Carlo harness cross-validate everything.
"""

__version__ = "0.1.0"

from .closed_forms import (ProblemSpec, HCurvePair, gain_H, h_curves, g_cdf,
                           mean_g)
from .kernel import LagRule, lag_rule, lag_integral_batch
from .boundaries import (BoundaryPair, SolverConfig, solve_boundaries,
                         boundary_residuals, NonConvergenceError,
                         InvariantViolationError, SchemaError)
from .value import ValueSurface, value_at, value_row, build_value_surface
from .bellman import (LatticeSpec, bellman_solve, oracle_compare,
                      OracleCompareReport, LatticeTooCoarseError)
from .montecarlo import (SimConfig, PathEnsemble, PolicyReport,
                         simulate_paths, evaluate_policy,
                         evaluate_policies, collect_last_zeros, parse_policy,
                         save_per_path_csv,
                         OptimalRule, SqrtRule, FixedTimeRule)

__all__ = [name for name in dir() if not name.startswith("_")]
