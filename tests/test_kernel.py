"""Tests for the kernel quadrature and the lag-integral engine.

Cross-validation strategy: the fixed-rule vectorized integrator is checked
against (a) the adaptive scalar kernel, (b) scipy.integrate.quad / dblquad
reference values, (c) a plain Monte Carlo estimate of the kernel's
defining expectation, (d) its own untiled form, bit for bit, and (e) the
same integral with every entry standardized, to rounding.  The scalar
kernel and both untiled forms live in ``oracles.py``.
"""

import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from lastzero import (
    LagRule,
    ProblemSpec,
    gain_H,
    h_curves,
    lag_integral_batch,
    lag_rule,
)
import lastzero._shared as shared_module
import lastzero.kernel as kernel_module
from lastzero.closed_forms import _gain_H_into as gain_H_into
from oracles import (
    _KERNEL_N_GL,
    KernelQuery,
    integrate_K_over_lag,
    kernel_K,
    lag_integral_batch_standardized,
    lag_integral_batch_untiled,
    lag_integral_exact,
)


def _h_at(spec, time):
    pair = h_curves(spec, np.array([0.0, time]))
    return float(pair.h_minus[-1]), float(pair.h_plus[-1])


class TestKernelQuery:
    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            KernelQuery(t=0.0, x=0.0, s=0.5, z_minus=1.0, z_plus=-1.0)

    def test_accepts_degenerate_window(self):
        q = KernelQuery(t=0.0, x=0.0, s=0.5, z_minus=0.3, z_plus=0.3)
        assert q.z_minus == q.z_plus


class TestLagRule:
    def test_weights_integrate_constants(self):
        for L in (0.25, 1.0, 3.7):
            rule = lag_rule(L)
            npt.assert_allclose(rule.weights.sum(), L, rtol=1e-14)

    def test_nodes_interior_and_sorted(self):
        rule = lag_rule(2.0, n_nodes=64)
        assert rule.n == 64
        assert rule.nodes[0] > 0.0
        assert rule.nodes[-1] < 2.0
        assert np.all(np.diff(rule.nodes) > 0)

    def test_resolves_square_root_endpoints(self):
        # int_0^L (sqrt(s) + sqrt(L - s)) ds = (4/3) L^(3/2); plain rules
        # converge slowly here, the substituted rule is near-exact.
        L = 1.3
        rule = lag_rule(L, n_nodes=64)
        f = np.sqrt(rule.nodes) + np.sqrt(L - rule.nodes)
        npt.assert_allclose(f @ rule.weights, (4.0 / 3.0) * L ** 1.5,
                            rtol=1e-12)

    def test_zero_length(self):
        rule = lag_rule(0.0)
        assert rule.n == 0

    def test_negative_length_raises(self):
        with pytest.raises(ValueError):
            lag_rule(-0.1)

    @pytest.mark.parametrize("n_nodes", [0, 1, 6, 7, 9, 129, 3.5, 8.0])
    def test_bad_node_count_raises(self, n_nodes):
        # the rule splits its nodes evenly over two halves of at least 4
        for L in (0.0, 1.0):
            with pytest.raises(ValueError, match="n_nodes"):
                lag_rule(L, n_nodes)

    def test_numpy_node_count(self):
        assert lag_rule(1.0, np.int64(8)).n == 8

    @pytest.mark.parametrize("L", [np.nan, np.inf])
    def test_non_finite_length_raises(self, L):
        # NaN passes ``L < 0``; either would give non-finite nodes
        with pytest.raises(ValueError, match="lag length"):
            lag_rule(L)


class TestKernelK:
    spec = ProblemSpec(mu=0.4, T=1.0)

    def test_empty_window_is_zero(self):
        q = KernelQuery(t=0.1, x=0.2, s=0.3, z_minus=0.5, z_plus=0.5)
        assert kernel_K(self.spec, q) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kernel_K(self.spec, KernelQuery(0.1, 0.0, 0.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            kernel_K(self.spec, KernelQuery(0.5, 0.0, 0.6, -1.0, 1.0))

    def test_additive_in_window(self):
        q_ab = KernelQuery(0.2, 0.1, 0.4, -1.5, 0.3)
        q_bc = KernelQuery(0.2, 0.1, 0.4, 0.3, 2.0)
        q_ac = KernelQuery(0.2, 0.1, 0.4, -1.5, 2.0)
        lhs = kernel_K(self.spec, q_ab) + kernel_K(self.spec, q_bc)
        rhs = kernel_K(self.spec, q_ac)
        assert abs(lhs - rhs) <= 3e-9

    def test_sign_tracks_zero_level_curves(self):
        # H < 0 strictly between the zero-level curves at time t+s and
        # H > 0 strictly outside, so windowed averages inherit the sign.
        t, s = 0.1, 0.4
        hm, hp = _h_at(self.spec, t + s)
        inside = KernelQuery(t, 0.0, s, hm + 1e-3, hp - 1e-3)
        above = KernelQuery(t, 0.0, s, hp + 1e-3, hp + 1.0)
        below = KernelQuery(t, 0.0, s, hm - 1.0, hm - 1e-3)
        assert kernel_K(self.spec, inside) < 0.0
        assert kernel_K(self.spec, above) > 0.0
        assert kernel_K(self.spec, below) > 0.0

    def test_against_quadpack(self):
        spec = ProblemSpec(mu=-0.7, T=2.0)
        t, x, s = 0.3, 0.25, 0.8
        z_minus, z_plus = -1.4, 1.1
        hm, hp = _h_at(spec, t + s)

        def integrand(y):
            dens = np.exp(-0.5 * (y - x - spec.mu * s) ** 2 / s)
            dens /= np.sqrt(2.0 * np.pi * s)
            return gain_H(spec, t + s, y) * dens

        ref = quad(integrand, z_minus, z_plus, epsabs=1e-12, limit=200,
                   points=[0.0, hm, hp])[0]
        val = kernel_K(spec, KernelQuery(t, x, s, z_minus, z_plus),
                       eps_k=1e-10)
        assert abs(val - ref) <= 1e-8

    def test_terminal_limit_is_window_probability(self):
        # At t + s = T the gain H is 1 a.e., so K is the window mass of
        # the Gaussian transition kernel.
        spec = ProblemSpec(mu=0.9, T=1.0)
        t, s = 0.4, 0.6
        z_minus, z_plus = -0.2, 1.5
        center = 0.1 + spec.mu * s
        expect = (ndtr((z_plus - center) / np.sqrt(s))
                  - ndtr((z_minus - center) / np.sqrt(s)))
        val = kernel_K(spec, KernelQuery(t, 0.1, s, z_minus, z_plus))
        npt.assert_allclose(val, expect, rtol=1e-13)

    def test_accuracy_parameter_consistency(self):
        q = KernelQuery(0.15, -0.3, 0.55, -2.0, 0.9)
        loose = kernel_K(self.spec, q, eps_k=1e-7)
        tight = kernel_K(self.spec, q, eps_k=1e-12)
        assert abs(loose - tight) <= 1e-7

    def test_monte_carlo_expectation(self):
        # K(t, x, s, z-, z+) = E[H(t+s, x + mu s + sqrt(s) Z) 1{window}].
        spec = ProblemSpec(mu=0.0, T=1.0)
        t, x, s = 0.0, 0.2, 0.5
        hm, hp = _h_at(spec, t + s)
        rng = np.random.default_rng(915223)
        n = 4_000_000
        y = x + spec.mu * s + np.sqrt(s) * rng.standard_normal(n)
        vals = np.where((y > hm) & (y < hp), gain_H(spec, t + s, y), 0.0)
        est = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(n)
        val = kernel_K(spec, KernelQuery(t, x, s, hm, hp))
        assert abs(val - est) <= 3.0 * se


class TestLagIntegral:
    spec = ProblemSpec(mu=0.5, T=1.0)

    @staticmethod
    def _const_window(z_minus, z_plus):
        return lambda s: (np.full_like(s, z_minus), np.full_like(s, z_plus))

    def test_horizon_time_is_zero(self):
        win = self._const_window(-1.0, 1.0)
        assert integrate_K_over_lag(self.spec, self.spec.T, 0.3, win) == 0.0

    def test_empty_window_is_zero(self):
        win = self._const_window(0.0, 0.0)
        assert integrate_K_over_lag(self.spec, 0.2, 0.1, win) == 0.0

    def test_domain_and_window_errors(self):
        win = self._const_window(-1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_K_over_lag(self.spec, -0.1, 0.0, win)
        with pytest.raises(ValueError):
            integrate_K_over_lag(self.spec, 1.2, 0.0, win)
        bad = self._const_window(1.0, -1.0)
        with pytest.raises(ValueError):
            integrate_K_over_lag(self.spec, 0.2, 0.0, bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_points(self, bad):
        # these came back as NaN values with RuntimeWarnings
        with pytest.raises(ValueError, match="xs"):
            lag_integral_batch(self.spec, 0.2, [0.0, bad], -1.0, 1.0,
                               lag_rule(self.spec.T - 0.2))

    @pytest.mark.parametrize("rule", [
        lag_rule(0.5),
        LagRule(nodes=np.array([0.05, 1.0 - 0.9]), weights=np.full(2, 0.05)),
    ], ids=["past_horizon", "at_horizon"])
    def test_rejects_rule_reaching_horizon(self, rule):
        # T - t = 0.1: lag nodes at or past it leave no time for H
        with pytest.raises(ValueError, match="rule"):
            lag_integral_batch(self.spec, 0.9, [0.0], -1.0, 1.0, rule)

    @pytest.mark.parametrize("n_gl", [0, 1, 33, 32.0])
    def test_rejects_odd_or_too_few_nodes(self, n_gl):
        # n_gl / 2 nodes per panel: an odd count would quietly drop a node
        # (33 gave the 32-node value bit for bit), fewer than 2 none at all;
        # numpy refuses a float count with a TypeError that names no n_gl
        rule = lag_rule(self.spec.T - 0.2)
        with pytest.raises(ValueError, match="n_gl"):
            lag_integral_batch(self.spec, 0.2, [0.1], -1.0, 1.0, rule,
                               n_gl=n_gl)

    def test_against_adaptive_kernel(self):
        # Outer integration by QUADPACK over the eps_k-accurate scalar
        # kernel vs the fixed substituted rule.
        t, x = 0.3, 0.1
        z_minus, z_plus = -0.8, 1.1
        ref = quad(
            lambda s: kernel_K(self.spec,
                               KernelQuery(t, x, s, z_minus, z_plus),
                               eps_k=1e-11),
            0.0, self.spec.T - t, epsabs=1e-10, limit=200,
        )[0]
        val = integrate_K_over_lag(self.spec, t, x,
                                   self._const_window(z_minus, z_plus))
        assert abs(val - ref) <= 5e-8

    def test_batch_matches_scalar(self):
        t = 0.25
        rule = lag_rule(self.spec.T - t)
        zm = np.full(rule.n, -0.9)
        zp = np.full(rule.n, 1.3)
        xs = np.array([-0.4, 0.0, 0.7])
        batch = lag_integral_batch(self.spec, t, xs, zm, zp, rule)
        for i, x in enumerate(xs):
            single = integrate_K_over_lag(
                self.spec, t, x, self._const_window(-0.9, 1.3))
            npt.assert_allclose(batch[i], single, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("shape", ["per_point", "wrong_length"])
    def test_refuses_edges_not_one_row(self, shape):
        # a call's window is the same for every point: one edge per lag
        t = 0.4
        rule = lag_rule(self.spec.T - t)
        n = (2, rule.n) if shape == "per_point" else (rule.n + 1,)
        with pytest.raises(ValueError, match=rf"\({rule.n},\)"):
            lag_integral_batch(self.spec, t, [0.1, 0.1], np.full(n, -0.5),
                               np.full(n, 0.8), rule)

    def test_lag_dependent_window(self):
        # Window shrinking with lag; reference via scalar kernel + quad.
        spec = ProblemSpec(mu=0.0, T=1.0)
        t, x = 0.2, 0.05

        def window(s):
            half = 1.2 - 0.5 * s
            return -half, half

        ref = quad(
            lambda s: kernel_K(
                spec,
                KernelQuery(t, x, s, -(1.2 - 0.5 * s), 1.2 - 0.5 * s),
                eps_k=1e-11),
            0.0, spec.T - t, epsabs=1e-10, limit=200,
        )[0]

        def window_arrays(s):
            half = 1.2 - 0.5 * s
            return -half, half

        val = integrate_K_over_lag(spec, t, x, window_arrays)
        assert abs(val - ref) <= 5e-8
        del window

    def test_node_count_convergence(self):
        win = self._const_window(-0.8, 1.1)
        coarse = integrate_K_over_lag(self.spec, 0.3, 0.1, win, n_nodes=64)
        fine = integrate_K_over_lag(self.spec, 0.3, 0.1, win, n_nodes=256)
        assert abs(coarse - fine) <= 1e-9

    def test_package_lag_rule_against_fine_rules(self):
        # the default rules the value layer uses, 128 lags and the default
        # inner rule, against 256 lags and 256 inner nodes per side
        win = self._const_window(-0.8, 1.1)
        used = integrate_K_over_lag(self.spec, 0.3, 0.1, win, n_nodes=128)
        fine = integrate_K_over_lag(self.spec, 0.3, 0.1, win, n_nodes=256,
                                    n_gl=256)
        assert abs(used - fine) <= 1e-9

    @pytest.mark.parametrize("mu", [0.5, -2.0, 3.0])
    def test_inner_rule_resolves_dip_near_horizon(self, mu):
        # K at each lag node within 4e-4 of the horizon, where H(t+s, .)
        # dips to -1 over a few sqrt(T - t - s) around 0: a panel that
        # spans the dip missed it by up to 5e-4 with 32 nodes per side,
        # 9e-7 with 64
        spec, t = ProblemSpec(mu=mu, T=1.0), 0.3
        nodes = lag_rule(spec.T - t, 64).nodes
        xs = np.linspace(-0.7, 1.0, 9)
        for s in nodes[nodes > spec.T - t - 4e-4]:
            one = LagRule(nodes=np.array([s]), weights=np.ones(1))
            k = lag_integral_batch(spec, t, xs, -0.8, 1.1, one)
            k_fine = lag_integral_batch(spec, t, xs, -0.8, 1.1, one,
                                        n_gl=256)
            npt.assert_allclose(k, k_fine, rtol=0, atol=1e-9)


class TestLagTiling:
    spec = ProblemSpec(mu=0.7, T=1.0)
    t = 0.2

    def _inputs(self, n_points, window):
        rule = lag_rule(self.spec.T - self.t, 128)
        xs = np.linspace(-1.5, 1.5, n_points)
        if window == "straddles_zero":
            # a window around 0, shrinking toward the horizon
            half = np.sqrt(self.spec.T - self.t - rule.nodes)
            return rule, xs, -half - 0.05, half
        # far edges: clipped at +-10 sd of the transition law at every lag
        return rule, xs, np.full(rule.n, -50.0), np.full(rule.n, 50.0)

    def test_straddles_zero_has_shared_and_cut_lags(self):
        # both of the call's loops run, and at 64 points some lags are cut
        # for some points only
        rule, xs, zm, zp = self._inputs(64, "straddles_zero")
        center = xs[:, np.newaxis] + self.spec.mu * rule.nodes
        sq = np.sqrt(rule.nodes)
        uncut = (((zm - center) / sq > -kernel_module._CLIP)
                 & ((zp - center) / sq < kernel_module._CLIP))
        shared = uncut.all(axis=0)
        assert shared.any() and not shared.all()
        assert (uncut.any(axis=0) & ~shared).any()

    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [1, 2, 64])
    def test_tiled_equals_untiled(self, n_points, window):
        rule, xs, zm, zp = self._inputs(n_points, window)
        tiled = lag_integral_batch(self.spec, self.t, xs, zm, zp, rule)
        whole = lag_integral_batch_untiled(self.spec, self.t, xs, zm, zp,
                                           rule)
        assert np.array_equal(tiled, whole)

    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [2, 64])
    def test_jacobian_one_lag_tiles_equal_one_tile(self, monkeypatch,
                                                    n_points, window):
        rule, xs, zm, zp = self._inputs(n_points, window)
        knot_weights = _knot_weights(self.t, 0.1, rule)

        def run(tile_h_points):
            monkeypatch.setattr(kernel_module, "_TILE_H_POINTS",
                                tile_h_points)
            return lag_integral_batch(self.spec, self.t, xs, zm, zp, rule,
                                      knot_weights=knot_weights)

        one_lag = run(1)
        whole = run(2 * n_points * rule.n * _KERNEL_N_GL)  # a single tile
        for got, want in zip(one_lag, whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("window", ["straddles_zero", "clipped", "wide"])
    @pytest.mark.parametrize("n_points", [1, 2, 64])
    def test_rounding_against_standardized(self, n_points, window):
        # the package integrates on panels in y, the reference on each
        # entry's own panels in xi: the same rule, rounded differently.
        # Measured in ulps of the largest entry: values at most 2 (at 64
        # points, straddling and on the wide window: nu = 10, clipped at
        # every lag, |x| <= 6), d_beta at most 1, d_x at most 2; on the
        # wide window d_x at most 11.1, where against an mpmath
        # evaluation of the rule at its 64 points the reference is up to
        # 11.9 off and the package 2.1 (test_against_exact_rule)
        spec, t = self.spec, self.t
        if window == "wide":
            spec, t = ProblemSpec(mu=5.0, T=4.0), 0.0
            rule = lag_rule(spec.T - t, 128)
            xs = np.linspace(-6.0, 6.0, n_points)
            zm, zp = np.full(rule.n, -50.0), np.full(rule.n, 50.0)
        else:
            rule, xs, zm, zp = self._inputs(n_points, window)
        knot_weights = _knot_weights(t, 0.1, rule)
        got = lag_integral_batch(spec, t, xs, zm, zp, rule,
                                 knot_weights=knot_weights)
        want = lag_integral_batch_standardized(spec, t, xs, zm, zp, rule,
                                               knot_weights=knot_weights)
        d_x_ulps = 12 if window == "wide" else 2
        for g, w, ulps in zip(got, want, (2, d_x_ulps, 2)):
            assert (np.max(np.abs(g - w))
                    <= ulps * np.spacing(np.max(np.abs(w))))

    @pytest.mark.parametrize("mu, T, t, xs", [
        (0.7, 1.0, 0.2, [-1.5, 0.0, 1.5]),      # the clipped window
        (5.0, 4.0, 0.0, [-6.0, 0.0, 6.0]),      # the wide window
    ])
    def test_against_exact_rule(self, mu, T, t, xs):
        # the 32 smallest lags, where every entry is cut and sqrt(s) is
        # small: nodes laid out from y = 0 sit up to ulp(center)/sqrt(s),
        # 1e-12, off the places phi is taken at, which moved d_x by up to
        # 8 ulps of the largest; laid out from the center, measured at
        # most 0.8 (values at most 1)
        spec = ProblemSpec(mu=mu, T=T)
        full = lag_rule(T - t, 128)
        rule = LagRule(nodes=full.nodes[:32], weights=full.weights[:32])
        xs = np.array(xs)
        values, d_x, _ = lag_integral_batch(
            spec, t, xs, -50.0, 50.0, rule,
            knot_weights=_knot_weights(t, 0.1, rule))
        exact = np.array([lag_integral_exact(spec, t, x, -50.0, 50.0, rule)
                          for x in xs])
        for got, want in zip((values, d_x), exact.T):
            assert (np.max(np.abs(got - want))
                    <= 2 * np.spacing(np.max(np.abs(want))))

    def test_peak_memory_bounded(self):
        import tracemalloc

        rule, xs, zm, zp = self._inputs(64, "straddles_zero")
        lag_integral_batch(self.spec, self.t, xs, zm, zp, rule)  # warm caches
        tracemalloc.start()
        try:
            lag_integral_batch(self.spec, self.t, xs, zm, zp, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one untiled call peaks near 40 MB at this batch width
        assert peak <= 8e6

    def test_peak_memory_bounded_with_jacobian(self):
        import tracemalloc

        rule, xs, zm, zp = self._inputs(64, "straddles_zero")
        knot_weights = _knot_weights(self.t, 0.1, rule)
        lag_integral_batch(self.spec, self.t, xs, zm, zp, rule,
                           knot_weights=knot_weights)    # warm caches
        tracemalloc.start()
        try:
            lag_integral_batch(self.spec, self.t, xs, zm, zp, rule,
                               knot_weights=knot_weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestBatchInvariance:
    """A point's results do not depend on the batch it is computed in:
    each entry's arithmetic follows from its own window alone, though
    whether a lag shares its nodes depends on all its entries."""

    spec, t = ProblemSpec(mu=0.7, T=1.0), 0.2

    @pytest.mark.parametrize("with_jacobian", [False, True])
    def test_each_point_equals_itself_alone(self, with_jacobian):
        rule = lag_rule(self.spec.T - self.t)
        half = 1.1 * np.sqrt(self.spec.T - self.t - rule.nodes)
        zm, zp = -half - 0.05, half
        lo, hi = zm[0], zp[0]
        # near both edges (clipped on the far side at the smallest lags
        # only), inside, at the centre and just outside the window
        xs = np.array([lo + 1e-7, lo + 1e-4, lo + 0.02, -0.3, 0.0, 0.25,
                       hi - 0.02, hi - 1e-4, hi - 1e-7, lo - 0.01, hi + 0.01])
        center = xs[:, np.newaxis] + self.spec.mu * rule.nodes
        sq = np.sqrt(rule.nodes)
        clipped = ~(((zm - center) / sq > -kernel_module._CLIP)
                    & ((zp - center) / sq < kernel_module._CLIP))
        # points clipped at different numbers of small lags, in one batch
        assert len(set(clipped.sum(axis=1))) >= 3
        assert clipped.all(axis=0).any() and not clipped.all()
        knot_weights = (_knot_weights(self.t, 0.01, rule) if with_jacobian
                        else None)

        def call(x):
            got = lag_integral_batch(self.spec, self.t, x, zm, zp, rule,
                                     knot_weights=knot_weights)
            return got if with_jacobian else (got,)

        batch = call(xs)
        for order in (np.arange(xs.size), np.arange(xs.size)[::-1],
                      np.array([4, 0, 8])):
            for got, want in zip(call(xs[order]), batch):
                assert np.array_equal(got, want[order])
        for i, x in enumerate(xs):
            for got, want in zip(call([x]), batch):
                assert np.array_equal(got[0], want[i])

    @pytest.mark.parametrize("with_jacobian", [False, True])
    def test_runs_of_points_equal_single_points(self, monkeypatch,
                                                with_jacobian):
        # a budget of 3 points per pass: 11 points run as 3 + 3 + 3 + 2,
        # each bit for bit its own single-point call at the default budget
        rule, xs, zm, zp = TestLagTiling()._inputs(11, "straddles_zero")
        knot_weights = (_knot_weights(self.t, 0.01, rule) if with_jacobian
                        else None)

        def call(x):
            got = lag_integral_batch(self.spec, self.t, x, zm, zp, rule,
                                     knot_weights=knot_weights)
            return got if with_jacobian else (got,)

        single = [call([x]) for x in xs]
        monkeypatch.setattr(kernel_module, "_TILE_H_POINTS",
                            3 * 2 * _KERNEL_N_GL)
        rows = []    # points' rows per H call
        real = kernel_module._gain_H_into

        def gain_into(mu, s_rem, y, *work):
            rows.append(y.shape[0])
            return real(mu, s_rem, y, *work)

        monkeypatch.setattr(kernel_module, "_gain_H_into", gain_into)
        batch = call(xs)
        assert max(rows) == 3
        for i, alone in enumerate(single):
            for got, want in zip(batch, alone):
                assert got.shape[0] == xs.size
                assert np.array_equal(got[i], want[0])


def _knot_weights(t, cell, rule):
    """Weight of the knot at t in a linear interpolant with its next knot
    at t + cell, at each lag node: the solver's first grid cell."""
    return np.interp(t + rule.nodes, [t, t + cell], [1.0, 0.0])


class TestLagJacobian:
    """``knot_weights``: closed-form derivatives of the lag integral."""

    t, t_knot = 0.3, 0.42
    h = 1e-6

    def _window(self, rule, beta, clipped):
        # edges interpolate knots at t (beta±), t_knot and T, as in the
        # solver; far out (clipped at every lag) when ``clipped``
        u = self.t + rule.nodes
        knots = [self.t, self.t_knot, 1.0]
        far = 40.0 if clipped else 0.0
        zm = np.interp(u, knots, [beta[0], -0.7 - far, -far])
        zp = np.interp(u, knots, [beta[1], 0.8 + far, far])
        return zm, zp

    @pytest.mark.parametrize("clipped", [False, True])
    @pytest.mark.parametrize("mu", [0.0, 0.7, -0.7])
    def test_matches_central_differences(self, mu, clipped):
        spec = ProblemSpec(mu=mu, T=1.0)
        rule = lag_rule(spec.T - self.t)
        beta = np.array([-40.3, 40.6] if clipped else [-0.8, 0.9])
        xs = np.array([-0.5, 0.6] if clipped else beta)

        def values(xs, beta):
            return lag_integral_batch(spec, self.t, xs,
                                      *self._window(rule, beta, clipped),
                                      rule)

        r, d_x, d_beta = lag_integral_batch(
            spec, self.t, xs, *self._window(rule, beta, clipped), rule,
            knot_weights=_knot_weights(self.t, self.t_knot - self.t, rule))
        assert np.array_equal(r, values(xs, beta))
        step = self.h * np.eye(2)
        fd_x = np.array([(values(xs + e, beta) - values(xs - e, beta))[i]
                         for i, e in enumerate(step)]) / (2.0 * self.h)
        fd_beta = np.column_stack([values(xs, beta + e) - values(xs, beta - e)
                                   for e in step]) / (2.0 * self.h)
        assert d_x.shape == (2,) and d_beta.shape == (2, 2)
        npt.assert_allclose(d_x, fd_x, rtol=1e-5, atol=0)
        if clipped:
            # edges beyond 10 sd at every lag: the values ignore them
            assert np.all(fd_beta == 0.0) and np.all(d_beta == 0.0)
        else:
            # the first cell's edges move with beta±
            assert np.all(np.abs(np.diag(d_beta)) > 1e-3)
            scale = np.max(np.abs(fd_beta))
            assert np.max(np.abs(d_beta - fd_beta)) <= 1e-5 * scale

    def test_empty_batch(self):
        # no points: empty results, not a ZeroDivisionError from the tiling
        spec, rule = ProblemSpec(mu=0.0, T=1.0), lag_rule(0.7)
        assert lag_integral_batch(spec, self.t, [], -1.0, 1.0,
                                  rule).shape == (0,)
        r, d_x, d_beta = lag_integral_batch(
            spec, self.t, [], -1.0, 1.0, rule,
            knot_weights=_knot_weights(self.t, 0.1, rule))
        assert (r.shape, d_x.shape, d_beta.shape) == ((0,), (0,), (0, 2))

    def test_empty_rule(self):
        r, d_x, d_beta = lag_integral_batch(
            ProblemSpec(mu=0.0, T=1.0), 1.0, [0.1, 0.2], [], [],
            lag_rule(0.0), knot_weights=np.empty(0))
        assert np.all(r == 0.0) and np.all(d_x == 0.0)
        assert d_beta.shape == (2, 2) and np.all(d_beta == 0.0)


class TestLagWorkers:
    """Callers fan kernel calls out over the thread pool (``value`` rows,
    certificate times); a call on a pool thread gives the same bits."""

    inputs = TestLagTiling()

    @staticmethod
    def _on_pool(call, monkeypatch, workers):
        # three items of one fan-out, switching threads as often as possible
        if workers is not None:
            monkeypatch.setattr(shared_module, "workers", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            return shared_module.map_in_order(lambda _: call(), range(3))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, None, 3, 8])
    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [1, 2, 64])
    def test_equals_untiled(self, monkeypatch, n_points, window, workers):
        # 1: inline on the caller; None: one worker per available CPU;
        # 3: one thread per item; 8: more workers than items or cores
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(n_points, window)
        results = self._on_pool(
            lambda: lag_integral_batch(spec, t, xs, zm, zp, rule),
            monkeypatch, workers)
        whole = lag_integral_batch_untiled(spec, t, xs, zm, zp, rule)
        assert all(np.array_equal(got, whole) for got in results)

    @pytest.mark.parametrize("workers", [None, 8])
    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [2, 64])
    def test_jacobian_equals_one_worker(self, monkeypatch, n_points, window,
                                        workers):
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(n_points, window)
        knot_weights = _knot_weights(t, 0.1, rule)

        def call():
            return lag_integral_batch(spec, t, xs, zm, zp, rule,
                                      knot_weights=knot_weights)

        serial = call()
        for result in self._on_pool(call, monkeypatch, workers):
            assert all(np.array_equal(got, want)
                       for got, want in zip(result, serial))


_TILE_SHAPES = pytest.mark.parametrize("n_points, n_lags, n_gl", [
    (2, 128, 32), (2, 256, 128), (64, 128, 32)],
    ids=["solver", "certificate", "value_batch"])


class TestLagTileItems:
    """A call runs its tiles in lag order on the calling thread, one H call
    per tile: first the lags with no cut entry, on one row of nodes shared
    by the batch, then the other lags, on every point's own nodes.  Each
    tile stays within the H-point budget, and neither loop depends on the
    worker count or needs the pool."""

    spec, t = ProblemSpec(mu=0.4, T=1.0), 0.2

    @staticmethod
    def _record_H_calls(monkeypatch):
        calls = []   # (lags of the tile, H points) per call

        def gain_into(mu, s_rem, y, *work):
            calls.append((s_rem[0, :, 0, 0].copy(), y.size))
            return gain_H_into(mu, s_rem, y, *work)

        monkeypatch.setattr(kernel_module, "_gain_H_into", gain_into)
        return calls

    def _uncut(self, xs, rule):
        """Entries whose window (-1, 1) lies within _CLIP sd of the center."""
        center = xs[:, np.newaxis] + self.spec.mu * rule.nodes
        sq = np.sqrt(rule.nodes)
        return (((-1.0 - center) / sq > -kernel_module._CLIP)
                & ((1.0 - center) / sq < kernel_module._CLIP))

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @_TILE_SHAPES
    def test_tiles(self, monkeypatch, workers, n_points, n_lags, n_gl):
        rule = lag_rule(self.spec.T - self.t, n_lags)
        xs = np.linspace(-0.5, 0.5, n_points)
        monkeypatch.setattr(shared_module, "workers", lambda: workers)
        calls = self._record_H_calls(monkeypatch)
        lag_integral_batch(self.spec, self.t, xs, -1.0, 1.0, rule, n_gl=n_gl)
        uncut = self._uncut(xs, rule)
        assert uncut.any() and not uncut.all()
        shared = uncut.all(axis=0)
        tile = max(1, kernel_module._TILE_H_POINTS // (2 * n_points * n_gl))
        want = []    # (lag nodes, rows of H) per tile
        for lags, rows in ((shared, 1), (~shared, n_points)):
            idx = np.flatnonzero(lags)
            want += [(idx[j:j + tile], rows) for j in range(0, idx.size, tile)]
        assert len(calls) == len(want)
        for (s_rem, size), (cols, rows) in zip(calls, want):
            assert np.array_equal(s_rem,
                                  self.spec.T - self.t - rule.nodes[cols])
            # four panels of n_gl / 2 nodes per row and lag
            assert size == 2 * rows * n_gl * cols.size
            assert size <= max(kernel_module._TILE_H_POINTS,
                               2 * n_points * n_gl)

    def test_solver_call_is_one_H_pass(self, monkeypatch):
        # 2 points x 128 lags with the Jacobian: one tile, so one H call
        # per loop, 4 panels x 16 nodes on 108 lags for the batch and on
        # 20 lags for each point (2 x 128 x 64 = 16384 points unshared)
        rule = lag_rule(self.spec.T - self.t, 128)
        calls = self._record_H_calls(monkeypatch)
        lag_integral_batch(self.spec, self.t, [-0.3, 0.4], -1.0, 1.0, rule,
                           knot_weights=_knot_weights(self.t, 0.1, rule))
        assert [size for _, size in calls] == [6912, 2560]

    def test_value_batch_shares_H(self, monkeypatch):
        # 64 points: 11.3 H points per (point, lag) entry, against 64 when
        # every entry has its own nodes
        rule = lag_rule(self.spec.T - self.t, 128)
        xs = np.linspace(-0.5, 0.5, 64)
        calls = self._record_H_calls(monkeypatch)
        lag_integral_batch(self.spec, self.t, xs, -1.0, 1.0, rule)
        assert sum(size for _, size in calls) <= 12 * xs.size * rule.n

    @_TILE_SHAPES
    def test_serial_without_pool(self, monkeypatch, n_points, n_lags, n_gl):
        def no_pool(n_workers):
            raise AssertionError("the kernel must not use the thread pool")

        monkeypatch.setattr(shared_module, "workers", lambda: 4)
        monkeypatch.setattr(shared_module, "_pool", no_pool)
        rule = lag_rule(self.spec.T - self.t, n_lags)
        xs = np.linspace(-0.5, 0.5, n_points)
        got = lag_integral_batch(self.spec, self.t, xs, -1.0, 1.0, rule,
                                 n_gl=n_gl)
        want = lag_integral_batch_untiled(self.spec, self.t, xs, -1.0, 1.0,
                                          rule, n_gl=n_gl)
        assert np.array_equal(got, want)

    def test_edge_H_once_per_side_and_lag(self, monkeypatch):
        # the Jacobian's edge terms take H at each window edge once per
        # side and lag that sees the knots, shared by the 64 points
        rule = lag_rule(self.spec.T - self.t, 128)
        knot_weights = _knot_weights(self.t, 0.1, rule)
        n_at = np.count_nonzero(knot_weights)
        sizes = []
        real = kernel_module._gain_H_raw

        def gain_raw(mu, s, x):
            sizes.append(np.broadcast(s, x).size)
            return real(mu, s, x)

        monkeypatch.setattr(kernel_module, "_gain_H_raw", gain_raw)
        lag_integral_batch(self.spec, self.t, np.linspace(-0.5, 0.5, 64),
                           -1.0, 1.0, rule, knot_weights=knot_weights)
        assert 0 < n_at < rule.n and sizes == [2 * n_at]


class TestLagScratch:
    """Each thread reuses its own tile arrays from call to call."""

    inputs = TestLagTiling()

    def test_steady_state_peak_memory(self):
        # the warm-up call grows every tile array the traced call reuses;
        # what remains are the call's (B, n_s) arrays (allocating every
        # tile anew peaked at 6.3 MB here)
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(64, "straddles_zero")
        lag_integral_batch(spec, t, xs, zm, zp, rule)
        tracemalloc.start()
        try:
            lag_integral_batch(spec, t, xs, zm, zp, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1e6

    @pytest.mark.parametrize("workers", [None, 8])
    def test_concurrent_calls_equal_serial(self, monkeypatch, workers):
        # four callers at once as the items of one fan-out (None: one
        # thread per available CPU; 8: one thread per caller), each
        # switching between a 1-point call and a 64-point call with the
        # Jacobian
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(64, "straddles_zero")
        jobs = [(xs[:1], zm, zp, None),
                (xs, zm, zp, _knot_weights(t, 0.1, rule))]
        if workers is not None:
            monkeypatch.setattr(shared_module, "workers", lambda: workers)

        def call(job):
            x, lo, hi, knot_weights = job
            return lag_integral_batch(spec, t, x, lo, hi, rule,
                                      knot_weights=knot_weights)

        serial = [call(job) for job in jobs]

        def caller(first):
            return [call(jobs[(first + k) % 2]) for k in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = shared_module.map_in_order(caller, range(4))
        finally:
            sys.setswitchinterval(interval)
        for first, got in enumerate(results):
            for k, result in enumerate(got):
                want = serial[(first + k) % 2]
                if isinstance(want, tuple):
                    assert all(np.array_equal(g, w)
                               for g, w in zip(result, want))
                else:
                    assert np.array_equal(result, want)
