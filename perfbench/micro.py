"""Microbenchmarks of single public functions, for the traced run.

Each takes its inputs from the run's generator and reports the median of a
few repeats, normalized per unit of work (ns per point or per path-step).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import SIM_STEPS, sqrt_pair

REPEATS = 5
H_POINTS = 1_000_000
MC_PATHS = 1_000
MC_STEPS = SIM_STEPS


def _median_time(fn, repeats=REPEATS) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(lz, rng: np.random.Generator) -> dict:
    mu = float(rng.uniform(-2.0, 2.0))
    spec = lz.closed_forms.ProblemSpec(mu=mu, T=1.0)
    # one time and many states, the shape of the kernel's inner H calls
    t = float(rng.uniform(0.0, 0.9))
    x = rng.standard_normal(H_POINTS)
    h_s = _median_time(lambda: lz.closed_forms.gain_H(spec, t, x))

    cfg = lz.montecarlo.SimConfig(n_paths=MC_PATHS, n_steps=MC_STEPS,
                                  seed=int(rng.integers(2 ** 32)))
    path_steps = MC_PATHS * MC_STEPS
    draw_s = _median_time(lambda: lz.montecarlo.simulate_paths(spec, cfg))
    g = lz.montecarlo.collect_last_zeros(spec, cfg)
    collect_s = _median_time(
        lambda: lz.montecarlo.collect_last_zeros(spec, cfg))
    ens = lz.montecarlo.simulate_paths(spec, cfg)
    rule = lz.montecarlo.OptimalRule(sqrt_pair(lz, spec))
    mask_s = _median_time(lambda: rule.taus(ens.times, ens.paths))
    return {
        "closed_forms.gain_H_ns_per_point": 1e9 * h_s / H_POINTS,
        "montecarlo.draw_ns_per_path_step": 1e9 * draw_s / path_steps,
        # collect_last_zeros draws the same paths, then detects last zeros
        "montecarlo.detect_ns_per_path_step":
            1e9 * (collect_s - draw_s) / path_steps,
        "montecarlo.mask_ns_per_path_step": 1e9 * mask_s / path_steps,
        "montecarlo.g_atom_share": float(np.mean(g == 0.0)),
    }
