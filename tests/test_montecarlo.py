"""Tests for path simulation, last-zero detection, and policy evaluation.

Reference values: Gaussian moments of B_T, the arcsine law of g under zero
drift, the closed form E g = (1 - exp(-mu^2 T / 2)) / mu^2, and hand-worked
synthetic paths for the detector's decision logic.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import ks_2samp

from lastzero import (
    BoundaryPair,
    FixedTimeRule,
    OptimalRule,
    ProblemSpec,
    SimConfig,
    SqrtRule,
    collect_last_zeros,
    evaluate_policies,
    evaluate_policy,
    mean_g,
    parse_policy,
    save_per_path_csv,
    simulate_paths,
)
from lastzero.montecarlo import MAX_STORED_PATHS, _draw_chunk, _last_zeros
import lastzero._shared as shared_module
import lastzero.montecarlo as mc_module
from oracles import last_zeros_dense_pick, last_zeros_interval_scan


def _dump_rows(spec, rule, cfg):
    """Per-path rows of the one pass that scores ``rule``."""
    rec = np.empty(cfg.n_paths, mc_module.PER_PATH_DTYPE)
    evaluate_policy(spec, rule, cfg, records=rec)
    return rec


def _sqrt_pair(spec):
    """Fixed square-root boundaries, so pins depend on no solver."""
    grid = np.linspace(0.0, spec.T, 41)
    v = np.sqrt(spec.T - grid)
    return BoundaryPair(spec=spec, grid=grid, b_minus=-0.9 * v, b_plus=1.2 * v)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_paths=0, n_steps=10, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, n_steps=1, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, n_steps=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(n_paths=10, n_steps=10, seed=2 ** 64)

    @pytest.mark.parametrize("field", ["n_paths", "n_steps", "seed"])
    def test_non_integer_rejected(self, field):
        # a float seed would run the truncated seed's paths under its own name
        kwargs = {"n_paths": 10, "n_steps": 10, "seed": 1, field: 10.5}
        with pytest.raises(ValueError, match=field):
            SimConfig(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        cfg = SimConfig(n_paths=np.int64(10), n_steps=np.int32(10),
                        seed=np.uint64(2 ** 63 + 7))
        assert (cfg.n_paths, cfg.n_steps, cfg.seed) == (10, 10, 2 ** 63 + 7)
        assert all(type(v) is int for v in (cfg.n_paths, cfg.n_steps,
                                            cfg.seed))


class TestSimulatePaths:
    spec = ProblemSpec(mu=0.5, T=1.0)

    def test_shapes_and_start(self):
        cfg = SimConfig(n_paths=64, n_steps=32, seed=5)
        ens = simulate_paths(self.spec, cfg)
        assert ens.paths.shape == (64, 33)
        assert ens.times.shape == (33,)
        assert ens.times[0] == 0.0 and ens.times[-1] == 1.0
        npt.assert_array_equal(ens.paths[:, 0], np.zeros(64))

    def test_bit_reproducible(self):
        cfg = SimConfig(n_paths=16, n_steps=64, seed=99)
        a = simulate_paths(self.spec, cfg)
        b = simulate_paths(self.spec, cfg)
        npt.assert_array_equal(a.paths, b.paths)

    def test_seed_changes_paths(self):
        a = simulate_paths(self.spec, SimConfig(n_paths=4, n_steps=16, seed=1))
        b = simulate_paths(self.spec, SimConfig(n_paths=4, n_steps=16, seed=2))
        assert not np.array_equal(a.paths, b.paths)

    def test_draw_layout(self):
        # path i draws from Philox keyed (seed, i): its n_steps normals,
        # then the interval-pick and placement uniforms.  One generator,
        # re-keyed for each path, serves a block; blocks at any start, one
        # after another in the same arrays, give every path its own stream.
        spec = ProblemSpec(mu=-0.4, T=2.0)
        cfg = SimConfig(n_paths=9, n_steps=12, seed=2 ** 63 + 7)
        scratch = shared_module.Scratch()
        dt = spec.T / cfg.n_steps
        for start, n in ((3, 4), (0, 9), (8, 1)):
            w, u = _draw_chunk(spec, cfg, start, n, scratch)
            assert w.shape == (n, 13) and u.shape == (n, 2)
            for i in range(n):
                rng = np.random.Generator(np.random.Philox(
                    key=np.array([cfg.seed, start + i], dtype=np.uint64)))
                steps = spec.mu * dt + np.sqrt(dt) * rng.standard_normal(12)
                npt.assert_array_equal(
                    w[i], np.concatenate([[0.0], np.cumsum(steps)]))
                npt.assert_array_equal(u[i], rng.random(2))

    def test_one_generator_per_block(self, monkeypatch):
        # building a Philox costs several times re-keying one: a run builds
        # one per block of paths, not one per path
        spec = ProblemSpec(mu=0.3, T=1.0)
        cfg = SimConfig(n_paths=1000, n_steps=30, seed=12)
        want = collect_last_zeros(spec, cfg)
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 30 * 150)
        monkeypatch.setattr(shared_module, "workers", lambda: 2)
        g = collect_last_zeros(spec, cfg)
        assert len(built) == -(-1000 // 75)     # 75-path blocks
        assert np.array_equal(g, want)

    def test_storage_guard(self):
        cfg = SimConfig(n_paths=MAX_STORED_PATHS + 1, n_steps=8, seed=0)
        with pytest.raises(ValueError):
            simulate_paths(self.spec, cfg)

    @pytest.mark.parametrize("mu,T", [(0.0, 1.0), (0.5, 1.0), (-1.0, 2.0)])
    def test_terminal_moments(self, mu, T):
        # B_T ~ N(mu T, T): check mean and variance to 3 standard errors.
        spec = ProblemSpec(mu=mu, T=T)
        cfg = SimConfig(n_paths=8000, n_steps=50, seed=314159)
        ens = simulate_paths(spec, cfg)
        bt = ens.paths[:, -1]
        se_mean = np.sqrt(T / cfg.n_paths)
        assert abs(bt.mean() - mu * T) <= 3 * se_mean
        se_var = T * np.sqrt(2.0 / (cfg.n_paths - 1))
        assert abs(bt.var(ddof=1) - T) <= 3 * se_var


def _last_zero(path):
    """Detected last zero of one hand-built path on [0, 1]: u = 0 picks
    the last sure zero, as without the bridge."""
    w = np.asarray(path, dtype=float)[np.newaxis, :]
    n = w.shape[1] - 1
    return float(_last_zeros(np.linspace(0.0, 1.0, n + 1), w,
                             np.zeros((1, 2)), shared_module.Scratch())[0])


class TestLastZeroDetection:
    spec = ProblemSpec(mu=0.0, T=1.0)

    def test_no_return_gives_zero(self):
        # A path that leaves 0 and never produces a crossing or an exact
        # zero afterwards has no detected zero: g = 0 by convention.
        assert _last_zero([0.0, 1.0, 1.0, 1.0, 1.0]) == 0.0

    def test_sign_change_interpolated(self):
        # last sign change on [0.5, 0.75]: crossing of the chord at
        # 0.5 + 0.25 * 0.5/0.75 = 2/3
        g = _last_zero([0.0, 0.5, -0.5, 0.25, 0.25])
        npt.assert_allclose(g, 2.0 / 3.0, rtol=1e-15)

    def test_exact_grid_zero(self):
        assert _last_zero([0.0, 0.5, 0.0, 0.5, 0.5]) == 0.5

    def test_values_in_range(self):
        cfg = SimConfig(n_paths=2000, n_steps=100, seed=77)
        g = collect_last_zeros(self.spec, cfg)
        assert g.shape == (2000,)
        assert g.min() >= 0.0
        assert g.max() <= 1.0

    def test_chunk_invariance(self, monkeypatch):
        cfg = SimConfig(n_paths=1500, n_steps=60, seed=42)
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 97 * 60)
        a = collect_last_zeros(self.spec, cfg)
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 10 ** 9)
        b = collect_last_zeros(self.spec, cfg)
        npt.assert_array_equal(a, b)

    def test_bridge_reduces_missed_zeros(self):
        # Without the bridge correction, zeros inside non-crossing steps
        # are missed and g is biased low; the correction must recover most
        # of E g = T/2.
        cfg = SimConfig(n_paths=6000, n_steps=100, seed=2718)
        times = np.linspace(0.0, self.spec.T, cfg.n_steps + 1)
        w, u = _draw_chunk(self.spec, cfg, 0, cfg.n_paths,
                           shared_module.Scratch())
        mean_on = collect_last_zeros(self.spec, cfg).mean()
        mean_off = last_zeros_dense_pick(times, w, u, bridge_on=False).mean()
        assert mean_on > mean_off
        assert abs(mean_on - 0.5) < abs(mean_off - 0.5)

    def test_arcsine_distribution_sanity(self):
        # Moderate-resolution KS check against the arcsine law; the
        # acceptance suite repeats this at fine resolution with a tight
        # threshold.
        cfg = SimConfig(n_paths=20000, n_steps=400, seed=1234)
        g = np.sort(collect_last_zeros(self.spec, cfg))
        u = (np.arange(g.size) + 0.5) / g.size
        cdf = (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(g, 0.0, 1.0)))
        ks = np.max(np.abs(cdf - u))
        assert ks <= 0.06

    def test_mean_matches_closed_form_loosely(self):
        mu = 0.8
        spec = ProblemSpec(mu=mu, T=1.0)
        cfg = SimConfig(n_paths=20000, n_steps=400, seed=5150)
        g = collect_last_zeros(spec, cfg)
        assert abs(g.mean() - mean_g(spec)) <= 0.03

    def test_drift_sign_irrelevant_for_law(self):
        # |B| has the same law under mu and -mu, so g does too; compare
        # sample means across independent seeds to 3 combined SEs.
        cfg = SimConfig(n_paths=20000, n_steps=200, seed=607)
        gp = collect_last_zeros(ProblemSpec(mu=0.8, T=1.0), cfg)
        gm = collect_last_zeros(ProblemSpec(mu=-0.8, T=1.0),
                                SimConfig(n_paths=20000, n_steps=200,
                                          seed=608))
        se = np.hypot(gp.std(ddof=1), gm.std(ddof=1)) / np.sqrt(gp.size)
        assert abs(gp.mean() - gm.mean()) <= 3 * se


class TestIntervalPick:
    """One uniform per path picks the last interval holding a zero."""

    @pytest.mark.parametrize("path", [
        # a = 0 first interval, a sign change, a landing on 0, an a = 0
        # interval after it, then four same-sign intervals
        [0.0, 0.3, -0.2, 0.0, 0.1, 0.15, 0.12, 0.2, 0.25],
        # same-sign intervals only: some paths keep no zero after t = 0
        [0.0, -0.2, -0.35, -0.3, -0.5, -0.6, -0.4, -0.7, -0.2],
    ])
    def test_exact_law(self, path):
        # P(last < j) = prod_{k >= j} q_k, q_k the chance that interval k
        # holds no zero; u[:, 0] sweeps [0, 1) at 2^16 midpoints
        n_u = 2 ** 16
        n = len(path) - 1
        times = np.linspace(0.0, 1.0, n + 1)
        dt = times[1]
        w = np.tile(np.asarray(path), (n_u, 1))
        u = np.column_stack([(np.arange(n_u) + 0.5) / n_u,
                             np.full(n_u, 0.5)])
        g = _last_zeros(times, w, u, shared_module.Scratch())
        a, b = np.asarray(path[:-1]), np.asarray(path[1:])
        q = np.where(a * b > 0.0, 1.0 - np.exp(-2.0 * a * b / dt), 1.0)
        q[(a * b < 0.0) | (b == 0.0)] = 0.0
        tail = np.append(np.cumprod(q[::-1])[::-1], 1.0)
        # g sits at t_k + dt/2 in a same-sign interval, at t_{k+1} on a
        # landing and strictly inside a sign change that is last
        picked = np.floor(g / dt - 0.25).astype(int)
        share = np.bincount(np.where(g > 0.0, picked + 1, 0),
                            minlength=n + 1) / n_u
        npt.assert_allclose(share[0], tail[0], rtol=0.0, atol=2.0 ** -16)
        npt.assert_allclose(share[1:], np.diff(tail), rtol=0.0,
                            atol=2.0 ** -16)

    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_same_law_as_one_draw_per_interval(self, mu):
        # on shared paths, the one-uniform pick and a Bernoulli draw per
        # interval give last zeros of one law
        spec = ProblemSpec(mu=mu, T=1.0)
        cfg = SimConfig(n_paths=100_000, n_steps=16, seed=16)
        scratch = shared_module.Scratch()
        w, u = _draw_chunk(spec, cfg, 0, cfg.n_paths, scratch)
        times = np.linspace(0.0, spec.T, cfg.n_steps + 1)
        g = _last_zeros(times, w, u, scratch)
        u_bridge = np.random.default_rng(61).random((cfg.n_paths,
                                                     cfg.n_steps))
        g_ref = last_zeros_interval_scan(times, w, u_bridge, u[:, 1])
        assert ks_2samp(g, g_ref).statistic <= 0.008


class TestSparsePick:
    """The pick reads only the near intervals after the last sure zero, and
    must give the dense product's last zeros bit for bit."""

    def test_far_factors_are_exactly_one(self):
        # 1 - exp(-2ab/dt) for ab >= _NEAR dt: exp(-40) < 2^-54, so the
        # factor rounds to 1.0 in float64, and so for every larger ab
        assert mc_module._NEAR == 20.0
        assert -np.expm1(-40.0) == 1.0
        assert all(-np.expm1(x) == 1.0 for x in (-40.5, -41.0, -745.0,
                                                 -1e300, -np.inf))
        assert -np.expm1(-30.0) < 1.0

    @pytest.mark.parametrize("bridge_on", [True, False])
    @pytest.mark.parametrize("mu", [0.0, 1.3, -2.0])
    @pytest.mark.parametrize("n_steps", [2, 4, 16, 400, 4000])
    def test_matches_dense_pick(self, n_steps, mu, bridge_on):
        # without the bridge the dense pick gives the last sure zero, which
        # the sparse one picks at u[:, 0] = 0
        spec = ProblemSpec(mu=mu, T=1.5)
        n_paths = 300 if n_steps == 4000 else 2000
        cfg = SimConfig(n_paths=n_paths, n_steps=n_steps, seed=2 ** 63 + 5)
        times = np.linspace(0.0, spec.T, n_steps + 1)
        w, u = _draw_chunk(spec, cfg, 0, n_paths, shared_module.Scratch())
        u[:, 0] *= bridge_on
        ref = last_zeros_dense_pick(times, w, u, bridge_on)
        if bridge_on:
            assert np.array_equal(collect_last_zeros(spec, cfg), ref)
        assert np.array_equal(
            _last_zeros(times, w, u, shared_module.Scratch()), ref)
        # a block that does not start at path 0
        w, u = _draw_chunk(spec, cfg, 7, 50, shared_module.Scratch())
        u[:, 0] *= bridge_on
        assert np.array_equal(
            _last_zeros(times, w, u, shared_module.Scratch()), ref[7:57])

    @pytest.mark.parametrize("bridge_on", [True, False])
    def test_hand_built_rows(self, bridge_on):
        # dt = 0.25, so _NEAR dt = 5.0; without the bridge, as above, the
        # picks are made at u = 0 (no product of near factors underflows
        # to 0 here)
        rows = [
            [0.0, 4.0, 5.0, 6.0, 7.0],         # no zero: a = 0, then far
            [0.0, 0.3, 0.0, 0.4, 0.5],         # an exact landing b == 0
            [0.0, 0.3, 0.0, 0.0, 2.5],         # two landings, a = 0 after
            [0.0, 0.01, 0.02, -3.0, -4.0],     # near only before the change
            [0.0, -1.0, 2.0, 2.5, 3.0],        # ab exactly 5.0 after it
            [0.0, -1.0, 2.0, 2.4999, 3.0],     # and just below
            [0.0, 0.1, 0.2, 0.1, 0.05],        # near everywhere, no change
            [0.0, -0.1, 1e-200, 1e-200, 0.3],  # a product that underflows
        ]
        assert 2.0 * 2.5 == 5.0 == mc_module._NEAR * 0.25
        times = np.linspace(0.0, 1.0, 5)
        picks = np.concatenate([[0.0, 1e-300],
                                np.linspace(0.0, 1.0, 257)[1:-1],
                                [1.0 - 2.0 ** -53]])
        w = np.repeat(np.asarray(rows), picks.size, axis=0)
        u = np.column_stack([np.tile(picks, len(rows)) * bridge_on,
                             np.full(w.shape[0], 0.375)])
        got = _last_zeros(times, w, u, shared_module.Scratch())
        assert np.array_equal(got, last_zeros_dense_pick(times, w, u,
                                                         bridge_on))
        by_row = got.reshape(len(rows), picks.size)
        assert np.all(by_row[0] == 0.0)            # no zero: g = 0 always
        assert np.all(by_row[1] >= 0.5)            # the landing at t = 0.5
        assert np.all(by_row[3] >= 0.5)            # the change in [0.5, 0.75]

    def test_peak_memory_at_short_paths(self, monkeypatch):
        # at 16 steps about half the intervals are near, and the pick's
        # index lists hold about 32 bytes per near interval: this run
        # peaked at 14.9 MB, at 29.0 MB in blocks of 2^20 intervals across
        # workers, and at 20.8 MB in blocks of 2^20 path values picked 2^17
        # intervals at a time (tracemalloc)
        spec = ProblemSpec(mu=0.3, T=1.0)
        cfg = SimConfig(n_paths=100_000, n_steps=16, seed=3)
        monkeypatch.setattr(shared_module, "workers", lambda: 2)
        tracemalloc.start()
        try:
            collect_last_zeros(spec, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestStoppingRules:
    times = np.linspace(0.0, 1.0, 5)

    def test_fixed_time_exact_even_off_grid(self):
        rule = FixedTimeRule(0.377, T=1.0)
        w = np.zeros((3, 5))
        taus = rule.taus(self.times, w)
        npt.assert_array_equal(taus, np.full(3, 0.377))

    def test_fixed_time_clipped(self):
        assert FixedTimeRule(-1.0, T=1.0).c == 0.0
        assert FixedTimeRule(9.0, T=1.0).c == 1.0

    def test_sqrt_rule_mask(self):
        rule = SqrtRule(1.0, T=1.0)
        w = np.array([[0.0, 0.2, 0.9, 0.1, 0.0]])
        mask = rule.stop_mask(self.times, w)
        # |0.9| >= sqrt(0.5) and the terminal column is always true
        assert mask[0, 2]
        assert mask[0, -1]
        assert not mask[0, 1]

    @pytest.mark.parametrize("z", [1.2, 0.0, -0.5])
    def test_sqrt_rule_mask_without_abs(self, z):
        # two comparisons give the |w| >= z sqrt(T - t) mask bit for bit,
        # including the column at t = T and a negative z, without the
        # block-sized float |w| (whose taus peaked at 9.1 MB here)
        rule = SqrtRule(z, T=1.0)
        times = np.linspace(0.0, 1.0, 4001)
        w = np.random.default_rng(5).standard_normal((250, 4001)).cumsum(
            axis=1) * np.sqrt(times[1])
        want = np.abs(w) >= z * np.sqrt(np.maximum(1.0 - times, 0.0))
        assert np.array_equal(rule.stop_mask(times, w), want)
        tracemalloc.start()
        try:
            taus = rule.taus(times, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(taus, times[np.argmax(want, axis=1)])
        assert peak <= 3e6

    def test_optimal_rule_terminal_always_stops(self, boundaries_for):
        bp = boundaries_for(0.0)
        rule = OptimalRule(bp)
        w = np.array([[0.0, 0.3, -0.2, 0.1, 0.05]])
        mask = rule.stop_mask(self.times, w)
        assert mask[0, -1]
        taus = rule.taus(self.times, w)
        assert 0.0 <= taus[0] <= 1.0

    def test_rule_names(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert OptimalRule(bp).name == "optimal"
        assert OptimalRule(bp, factor=1.3).name == "scaled_optimal:1.3"
        assert SqrtRule(0.8, 1.0).name == "sqrt_rule:0.8"
        assert FixedTimeRule(0.5, 1.0).name == "fixed_time:0.5"

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameters_refused(self, boundaries_for, value):
        # with inf or NaN a terminal column need not stop, and tau would
        # read t = 0: the rules refuse them, also when not parsed from text
        bp = boundaries_for(0.0)
        for make in (lambda: OptimalRule(bp, factor=value),
                     lambda: SqrtRule(value, 1.0),
                     lambda: FixedTimeRule(value, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                make()

    def test_parse_policy(self, boundaries_for):
        bp = boundaries_for(0.0)
        spec = bp.spec
        assert isinstance(parse_policy("optimal", spec, bp), OptimalRule)
        assert parse_policy("scaled_optimal:1.2", spec, bp).factor == 1.2
        assert parse_policy("sqrt_rule:0.9", spec).z == 0.9
        assert parse_policy("fixed_time:0.25", spec).c == 0.25
        with pytest.raises(ValueError):
            parse_policy("optimal", spec, None)
        with pytest.raises(ValueError):
            parse_policy("scaled_optimal:1.2", spec, None)
        with pytest.raises(ValueError):
            parse_policy("banana", spec, bp)
        with pytest.raises(ValueError):
            parse_policy("fixed_time:abc", spec, bp)
        with pytest.raises(ValueError, match="no parameter"):
            parse_policy("optimal:2", spec, bp)
        with pytest.raises(ValueError, match="finite"):
            parse_policy("scaled_optimal:inf", spec, bp)


class TestEvaluatePolicies:
    spec = ProblemSpec(mu=0.0, T=1.0)

    def test_fixed_time_zero_scores_mean_g(self):
        # |g - 0| = g, so the estimate is E g = T/2 up to discretization
        # bias and sampling noise.
        cfg = SimConfig(n_paths=20000, n_steps=1000, seed=8088)
        report = evaluate_policy(self.spec, FixedTimeRule(0.0, 1.0), cfg)
        assert abs(report.estimate - 0.5) <= 0.02
        assert 0.0 < report.std_error < 5e-3

    def test_report_roundtrip_and_fields(self):
        cfg = SimConfig(n_paths=500, n_steps=50, seed=11)
        report = evaluate_policy(self.spec, FixedTimeRule(0.5, 1.0), cfg)
        assert report.policy_name == "fixed_time:0.5"
        assert report.n_paths == 500
        assert report.seed == 11
        doc = report.to_json_dict()
        assert doc["policy"] == "fixed_time:0.5"
        assert doc["spec"] == {"mu": 0.0, "T": 1.0}

    def test_deterministic_given_seed(self):
        cfg = SimConfig(n_paths=800, n_steps=80, seed=303)
        a = evaluate_policy(self.spec, FixedTimeRule(0.4, 1.0), cfg)
        b = evaluate_policy(self.spec, FixedTimeRule(0.4, 1.0), cfg)
        assert a.estimate == b.estimate
        assert a.std_error == b.std_error

    def test_chunking_stable(self, monkeypatch):
        # one reduction over the whole run: the block size cannot move a bit
        cfg = SimConfig(n_paths=1200, n_steps=64, seed=21)
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 10 ** 9)
        a = evaluate_policy(self.spec, FixedTimeRule(0.3, 1.0), cfg)
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 111 * 64)
        b = evaluate_policy(self.spec, FixedTimeRule(0.3, 1.0), cfg)
        assert (a.estimate, a.std_error) == (b.estimate, b.std_error)

    def test_optimal_beats_fixed_time(self, boundaries_for):
        bp = boundaries_for(0.0)
        cfg = SimConfig(n_paths=10000, n_steps=500, seed=4096)
        reports = evaluate_policies(
            self.spec, [OptimalRule(bp), FixedTimeRule(0.5, 1.0)], cfg)
        opt, fixed = reports
        assert opt.policy_name == "optimal"
        # E|g - 1/2| = 1/pi under the arcsine law vs V* = 0.2385
        assert opt.estimate + 3 * opt.std_error < fixed.estimate

    def test_common_random_numbers(self, boundaries_for):
        # Scoring in one pass means both rules see identical paths: the
        # estimates must differ only through the policies.
        bp = boundaries_for(0.0)
        cfg = SimConfig(n_paths=300, n_steps=40, seed=5)
        both = evaluate_policies(
            self.spec, [OptimalRule(bp), OptimalRule(bp)], cfg)
        assert both[0].estimate == both[1].estimate

    def test_discretization_consistency(self, boundaries_for):
        # Halving the step moves the estimate by no more than the combined
        # Monte Carlo noise once the grid is in the thousands of steps.
        rule = OptimalRule(boundaries_for(0.0))
        a = evaluate_policy(self.spec, rule,
                            SimConfig(n_paths=20000, n_steps=2000, seed=7272))
        b = evaluate_policy(self.spec, rule,
                            SimConfig(n_paths=20000, n_steps=4000, seed=7272))
        gap = abs(a.estimate - b.estimate)
        assert gap <= 3.0 * float(np.hypot(a.std_error, b.std_error))

    def test_drift_flip_antisymmetry(self, boundaries_for):
        # -B^mu is a Brownian motion with drift -mu and the same zero set,
        # so the optimal estimates under (mu, bp) and (-mu, flipped bp)
        # agree up to Monte Carlo noise.
        cfg = SimConfig(n_paths=20000, n_steps=500, seed=909)
        reps = [evaluate_policy(ProblemSpec(mu=mu, T=1.0),
                                OptimalRule(boundaries_for(mu, 80)), cfg)
                for mu in (0.6, -0.6)]
        gap = abs(reps[0].estimate - reps[1].estimate)
        assert gap <= 3.0 * float(np.hypot(reps[0].std_error,
                                           reps[1].std_error))


    def test_rule_for_another_problem_refused(self):
        bp = _sqrt_pair(ProblemSpec(mu=0.7, T=1.0))
        cfg = SimConfig(n_paths=20, n_steps=10, seed=1)
        for spec in (ProblemSpec(mu=-0.7, T=1.0), ProblemSpec(mu=0.7, T=0.5)):
            with pytest.raises(ValueError, match="does not match the bound"):
                evaluate_policy(spec, OptimalRule(bp), cfg)
            with pytest.raises(ValueError, match="does not match the bound"):
                evaluate_policies(spec, [SqrtRule(1.0, spec.T),
                                         OptimalRule(bp, 0.8)], cfg)
        assert evaluate_policy(bp.spec, OptimalRule(bp), cfg).n_paths == 20


class TestPerPathDump:
    spec = ProblemSpec(mu=0.4, T=1.0)

    def _cfg(self, **kw):
        base = dict(n_paths=200, n_steps=50, seed=616)
        base.update(kw)
        return SimConfig(**base)

    def test_fields_and_ranges(self):
        rec = _dump_rows(self.spec, FixedTimeRule(0.3, 1.0), self._cfg())
        assert rec.dtype.names == ("path_id", "g", "tau", "abs_error")
        npt.assert_array_equal(rec["path_id"], np.arange(200))
        assert np.all((rec["g"] >= 0.0) & (rec["g"] <= 1.0))
        assert np.all((rec["tau"] >= 0.0) & (rec["tau"] <= 1.0))
        npt.assert_array_equal(rec["abs_error"],
                               np.abs(rec["g"] - rec["tau"]))

    def test_rows_average_to_report(self):
        # the dump walks the very paths the streaming estimator averaged
        rule = FixedTimeRule(0.3, 1.0)
        cfg = self._cfg(n_paths=1500)
        rec = _dump_rows(self.spec, rule, cfg)
        rep = evaluate_policy(self.spec, rule, cfg)
        npt.assert_allclose(rec["abs_error"].mean(), rep.estimate, rtol=1e-12)

    def test_chunk_invariance(self, monkeypatch):
        rule = FixedTimeRule(0.3, 1.0)
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 7 * 50)
        a = _dump_rows(self.spec, rule, self._cfg())
        monkeypatch.setattr(mc_module, "_BLOCK_INTERVALS", 10 ** 9)
        b = _dump_rows(self.spec, rule, self._cfg())
        npt.assert_array_equal(a, b)

    def test_csv_roundtrip(self, tmp_path):
        rule = FixedTimeRule(0.3, 1.0)
        cfg = self._cfg(n_paths=37)
        rec = _dump_rows(self.spec, rule, cfg)
        out = tmp_path / "per_path.csv"
        save_per_path_csv(out, rec, manifest_hash="ab" * 32)
        lines = out.read_text().splitlines()
        assert lines[0] == "# manifest_hash=" + "ab" * 32
        assert lines[1] == "path_id,g,tau,abs_error"
        assert len(lines) == 2 + 37
        back = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        npt.assert_array_equal(back["path_id"], rec["path_id"])
        # %.17g formatting round-trips doubles exactly
        npt.assert_array_equal(back["g"], rec["g"])
        npt.assert_array_equal(back["tau"], rec["tau"])
        npt.assert_array_equal(back["abs_error"], rec["abs_error"])


class TestThreadedStream:
    """Path blocks run on a thread pool; no result may depend on it."""

    spec = ProblemSpec(mu=0.3, T=1.0)
    cfg = SimConfig(n_paths=1300, n_steps=90, seed=31)

    def _run(self, workers):
        # None: one worker per available CPU; 8: more workers than cores,
        # switching threads as often as possible.  40,000 intervals give
        # blocks of 444, 222 and 55 paths on 1, 2 and 8 workers: several
        # blocks per worker.
        rules = [OptimalRule(_sqrt_pair(self.spec)), SqrtRule(1.0, 1.0)]
        interval = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mc_module, "_BLOCK_INTERVALS", 40_000)
            if workers is not None:
                mp.setattr(shared_module, "workers", lambda: workers)
            sys.setswitchinterval(1e-6)
            try:
                return (collect_last_zeros(self.spec, self.cfg),
                        evaluate_policies(self.spec, rules, self.cfg),
                        _dump_rows(self.spec, rules[0], self.cfg))
            finally:
                sys.setswitchinterval(interval)

    def test_matches_one_serial_pass(self):
        # the whole ensemble drawn, scanned and stopped as one array
        g, _, rec = self._run(None)
        times = np.linspace(0.0, self.spec.T, self.cfg.n_steps + 1)
        scratch = shared_module.Scratch()
        w, u = _draw_chunk(self.spec, self.cfg, 0, self.cfg.n_paths, scratch)
        g_ref = _last_zeros(times, w, u, scratch)
        tau_ref = OptimalRule(_sqrt_pair(self.spec)).taus(times, w)
        npt.assert_array_equal(g, g_ref)
        npt.assert_array_equal(rec["path_id"], np.arange(self.cfg.n_paths))
        npt.assert_array_equal(rec["g"], g_ref)
        npt.assert_array_equal(rec["tau"], tau_ref)
        npt.assert_array_equal(rec["abs_error"], np.abs(g_ref - tau_ref))

    @pytest.mark.parametrize("workers", [None, 8])
    def test_worker_count_invariance(self, workers):
        g1, reps1, rec1 = self._run(1)
        g, reps, rec = self._run(workers)
        assert np.array_equal(g, g1)
        assert np.array_equal(rec, rec1)
        for a, b in zip(reps, reps1):
            assert a.estimate == b.estimate
            assert a.std_error == b.std_error

    @pytest.mark.parametrize("short_path", [0, 10 ** 9])
    def test_free_draws_or_turns(self, monkeypatch, short_path):
        # 90-step blocks take turns to draw; free draws give the same bits
        g1, reps1, rec1 = self._run(1)
        monkeypatch.setattr(mc_module, "_SHORT_PATH", short_path)
        g, reps, rec = self._run(8)
        assert np.array_equal(g, g1)
        assert np.array_equal(rec, rec1)
        assert reps == reps1

    def test_records_with_report_in_one_pass(self):
        rule = SqrtRule(1.0, 1.0)
        rec = np.empty(self.cfg.n_paths, mc_module.PER_PATH_DTYPE)
        rep = evaluate_policy(self.spec, rule, self.cfg, records=rec)
        assert rep == evaluate_policy(self.spec, rule, self.cfg)
        assert np.array_equal(rec, _dump_rows(self.spec, rule, self.cfg))
        with pytest.raises(ValueError, match="one row per path"):
            evaluate_policy(self.spec, rule, self.cfg, records=rec[:-1])
        with pytest.raises(ValueError, match="a rule"):
            evaluate_policies(self.spec, [], self.cfg, records=rec)

    def test_peak_memory_below_one_former_chunk(self):
        # The chunked loop before path blocks held a whole chunk of
        # 1000 x 4000 doubles five times over (normals, one uniform per
        # interval, path, two temporaries) and the previous chunk's path and
        # uniforms while drawing the next.  Blocks on workers, each thread's
        # path and interval products, must together stay within that single
        # chunk.
        spec = ProblemSpec(mu=0.3, T=1.0)
        cfg = SimConfig(n_paths=2000, n_steps=4000, seed=3)
        rules = [OptimalRule(_sqrt_pair(spec)), SqrtRule(1.0, 1.0)]
        tracemalloc.start()
        try:
            evaluate_policies(spec, rules, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 1000 * (cfg.n_steps + 1) * 8


def _scored(n_paths):
    """Estimates and per-path digest of one two-rule run."""
    spec = ProblemSpec(mu=0.3, T=1.0)
    cfg = SimConfig(n_paths=n_paths, n_steps=200, seed=41)
    rec = np.empty(n_paths, mc_module.PER_PATH_DTYPE)
    reports = evaluate_policies(
        spec, [SqrtRule(1.0, 1.0), FixedTimeRule(0.5, 1.0)], cfg, records=rec)
    return repr(([(r.estimate, r.std_error) for r in reports],
                 hashlib.sha256(rec.tobytes()).hexdigest()))


SCORED_IN_A_FRESH_PROCESS = """
import sys
from test_montecarlo import _scored
print(_scored(int(sys.argv[1])))
"""


class TestStreamScratch:
    """Blocks reuse their thread's arrays within one run, and only there."""

    def test_back_to_back_runs_equal_fresh_processes(self):
        # odd path counts end in a shorter block (502 then 501 paths, 499
        # then 498 on two workers): a thread that runs both reuses arrays
        # larger than its second block, and no stale row of them, nor any
        # state of an earlier run, may reach a result
        here = [_scored(n) for n in (1003, 997)]
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tests.parent / "src"), str(tests),
                        env.get("PYTHONPATH")) if p)
        for n, got in zip((1003, 997), here):
            proc = subprocess.run(
                [sys.executable, "-c", SCORED_IN_A_FRESH_PROCESS, str(n)],
                capture_output=True, text=True, timeout=300, env=env)
            assert (proc.returncode, proc.stdout) == (0, got + "\n"), \
                proc.stderr

    @staticmethod
    def _check_arrays_freed(monkeypatch, serial):
        spec = ProblemSpec(mu=0.3, T=1.0)
        cfg = SimConfig(n_paths=1000, n_steps=1000, seed=9)
        ensemble = simulate_paths(spec, cfg)
        paths = ensemble.paths.copy()
        monkeypatch.setattr(shared_module, "workers", lambda: 2)
        if serial:
            # one thread runs every block, as when the helper thread is
            # scheduled only after the caller has claimed them all
            monkeypatch.setattr(shared_module, "map_in_order",
                                lambda fn, items: [fn(i) for i in items])
        tracemalloc.start()
        try:
            evaluate_policy(spec, SqrtRule(1.0, 1.0), cfg)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # whichever threads run the blocks, one block's path and interval
        # products were held
        block = mc_module._BLOCK_INTERVALS // (2 * cfg.n_steps)
        assert peak > 2 * 8 * block * cfg.n_steps
        assert left < 1e5
        assert np.array_equal(ensemble.paths, paths)

    def test_arrays_do_not_outlive_the_stream(self, monkeypatch):
        self._check_arrays_freed(monkeypatch, serial=False)

    def test_one_thread_holds_a_whole_block(self, monkeypatch):
        self._check_arrays_freed(monkeypatch, serial=True)


class TestPathPins:
    """Exact outputs that depend on the paths alone: a change to how the
    sampler draws or uses its uniforms must leave them unmoved."""

    def test_simulate_paths_digest(self):
        ens = simulate_paths(ProblemSpec(mu=0.3, T=1.0),
                             SimConfig(n_paths=700, n_steps=200, seed=5))
        assert hashlib.sha256(ens.paths.tobytes()).hexdigest() == (
            "1532043a6090951c9e833d149797906cf1faaa6f46d02431e5740e6daa2d58c1")

    def test_bridge_off_last_zero_digest(self):
        # the last sure zero of each path, by the dense pick without the
        # bridge
        spec = ProblemSpec(mu=-0.5, T=2.0)
        cfg = SimConfig(n_paths=2500, n_steps=300, seed=77)
        w, u = _draw_chunk(spec, cfg, 0, cfg.n_paths, shared_module.Scratch())
        g = last_zeros_dense_pick(np.linspace(0.0, spec.T, cfg.n_steps + 1),
                                  w, u, bridge_on=False)
        assert hashlib.sha256(g.tobytes()).hexdigest() == (
            "fb861eefd7f875abd1cef67be569513946fd659e2ec2cf073fba917eab351747")


class TestRegressionPins:
    """Exact outputs of fixed runs: any change to the sampler moves them."""

    def test_two_rule_estimates(self):
        spec = ProblemSpec(mu=0.3, T=1.0)
        cfg = SimConfig(n_paths=3000, n_steps=500, seed=20261018)
        opt, sqrt_rule = evaluate_policies(
            spec, [OptimalRule(_sqrt_pair(spec)), SqrtRule(1.0, 1.0)], cfg)
        assert (opt.estimate, opt.std_error) == (0.25286999696043705,
                                                 0.0032561117327806715)
        assert (sqrt_rule.estimate, sqrt_rule.std_error) == (
            0.2388511806147633, 0.0032024003366299693)

    def test_last_zero_digest(self):
        g = collect_last_zeros(ProblemSpec(mu=-0.5, T=2.0),
                               SimConfig(n_paths=2500, n_steps=300, seed=77))
        assert hashlib.sha256(g.tobytes()).hexdigest() == (
            "1d3d4b630630bd42462ab2cc28449818653e3f1538378f69b646d32d0654a6ef")

    def test_per_path_digest(self):
        spec = ProblemSpec(mu=0.3, T=1.0)
        rec = _dump_rows(spec, OptimalRule(_sqrt_pair(spec), 0.8),
                         SimConfig(n_paths=700, n_steps=200, seed=5))
        assert hashlib.sha256(rec.tobytes()).hexdigest() == (
            "62551874df022ecfe49a55cb4e901cff7bc7a7134b539b81a2d7fc5470ab324d")
