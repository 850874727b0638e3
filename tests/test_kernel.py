"""Tests for the kernel quadrature and the lag-integral engine.

Cross-validation strategy: the fixed-rule vectorized integrator is checked
against (a) the adaptive scalar kernel, (b) scipy.integrate.quad / dblquad
reference values, (c) a plain Monte Carlo estimate of the kernel's
defining expectation, and (d) its own untiled form, bit for bit.  The
scalar kernel and the untiled form live in ``oracles.py``.
"""

import sys
import threading
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import ndtr

from lastzero import (
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
    KernelQuery,
    integrate_K_over_lag,
    kernel_K,
    lag_integral_batch_untiled,
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

    def test_per_row_windows(self):
        t = 0.4
        rule = lag_rule(self.spec.T - t)
        windows = [(-0.5, 0.8), (-1.2, 1.6)]
        zm = np.stack([np.full(rule.n, w[0]) for w in windows])
        zp = np.stack([np.full(rule.n, w[1]) for w in windows])
        xs = np.array([0.1, 0.1])
        batch = lag_integral_batch(self.spec, t, xs, zm, zp, rule)
        for i, (lo, hi) in enumerate(windows):
            single = integrate_K_over_lag(self.spec, t, 0.1,
                                          self._const_window(lo, hi))
            npt.assert_allclose(batch[i], single, rtol=1e-13, atol=1e-16)

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


class TestLagTiling:
    spec = ProblemSpec(mu=0.7, T=1.0)
    t = 0.2

    def _inputs(self, n_points, window):
        rule = lag_rule(self.spec.T - self.t, 128)
        xs = np.linspace(-1.5, 1.5, n_points)
        if window == "straddles_zero":
            # per-row windows around 0, shrinking toward the horizon
            half = np.sqrt(self.spec.T - self.t - rule.nodes)
            widen = np.linspace(0.6, 1.4, n_points)[:, np.newaxis]
            return rule, xs, -widen * half - 0.05, widen * half
        # far edges: clipped at +-10 sd of the transition law at every lag
        return rule, xs, np.full(rule.n, -50.0), np.full(rule.n, 50.0)

    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [1, 2, 64])
    def test_tiled_equals_untiled(self, n_points, window):
        rule, xs, zm, zp = self._inputs(n_points, window)
        tiled = lag_integral_batch(self.spec, self.t, xs, zm, zp, rule)
        whole = lag_integral_batch_untiled(self.spec, self.t, xs, zm, zp,
                                           rule)
        assert np.array_equal(tiled, whole)

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

    def test_empty_rule(self):
        r, d_x, d_beta = lag_integral_batch(
            ProblemSpec(mu=0.0, T=1.0), 1.0, [0.1, 0.2], [], [],
            lag_rule(0.0), knot_weights=np.empty(0))
        assert np.all(r == 0.0) and np.all(d_x == 0.0)
        assert d_beta.shape == (2, 2) and np.all(d_beta == 0.0)


class TestLagWorkers:
    """Lag tiles run on the process's thread pool; no bit may depend on it."""

    inputs = TestLagTiling()

    @pytest.mark.parametrize("workers", [1, None, 3, 8])
    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [1, 2, 64])
    def test_equals_untiled(self, monkeypatch, n_points, window, workers):
        # None: one worker per available CPU; 3: tiles of unequal width;
        # 8: more workers than cores, switching threads as often as possible
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(n_points, window)
        if workers is not None:
            monkeypatch.setattr(shared_module, "workers", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            shared = lag_integral_batch(spec, t, xs, zm, zp, rule)
        finally:
            sys.setswitchinterval(interval)
        whole = lag_integral_batch_untiled(spec, t, xs, zm, zp, rule)
        assert np.array_equal(shared, whole)

    @pytest.mark.parametrize("workers", [None, 8])
    @pytest.mark.parametrize("window", ["straddles_zero", "clipped"])
    @pytest.mark.parametrize("n_points", [2, 64])
    def test_jacobian_equals_one_worker(self, monkeypatch, n_points, window,
                                        workers):
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(n_points, window)
        knot_weights = _knot_weights(t, 0.1, rule)

        def run():
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                return lag_integral_batch(spec, t, xs, zm, zp, rule,
                                          knot_weights=knot_weights)
            finally:
                sys.setswitchinterval(interval)

        with monkeypatch.context() as mp:
            mp.setattr(shared_module, "workers", lambda: 1)
            one = run()
        if workers is not None:
            monkeypatch.setattr(shared_module, "workers", lambda: workers)
        other = run()
        for got, want in zip(other, one):
            assert np.array_equal(got, want)


class TestLagTileItems:
    """The kernel's pool items are its tiles: together they cover the lag
    nodes once, every worker gets one, and each stays within its share of
    the H-point budget."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("n_points, n_lags, n_gl", [
        (2, 128, 64), (2, 256, 128), (64, 128, 64)],
        ids=["solver", "certificate", "value_batch"])
    def test_tiles(self, monkeypatch, workers, n_points, n_lags, n_gl):
        spec, t = ProblemSpec(mu=0.4, T=1.0), 0.2
        rule = lag_rule(spec.T - t, n_lags)
        starts, widths = [], []

        def map_serial(fn, items):
            results = []
            for item in items:
                starts.append(item)
                widths.append(0)
                results.append(fn(item))
            return results

        def gain_into(mu, s, y, *work):
            widths[-1] += y.shape[1]
            return gain_H_into(mu, s, y, *work)

        monkeypatch.setattr(shared_module, "workers", lambda: workers)
        monkeypatch.setattr(shared_module, "map_in_order", map_serial)
        monkeypatch.setattr(kernel_module, "_gain_H_into", gain_into)
        lag_integral_batch(spec, t, np.linspace(-0.5, 0.5, n_points),
                           -1.0, 1.0, rule, n_gl=n_gl)
        widths = [w // 2 for w in widths]       # H runs once per panel
        assert np.array_equal(starts, np.cumsum([0] + widths[:-1]))
        assert sum(widths) == rule.n
        assert len(starts) >= min(workers, rule.n)
        budget = max(kernel_module._TILE_H_POINTS // workers, n_points * n_gl)
        assert max(widths) * n_points * n_gl <= budget


class TestLagScratch:
    """Each thread reuses its own tile arrays from call to call."""

    inputs = TestLagTiling()

    def test_steady_state_peak_memory(self, monkeypatch):
        # on one thread, so the warm-up call grows every tile array the
        # traced call reuses; what remains are the call's (B, n_s) arrays
        # (allocating every tile anew peaked at 6.3 MB here)
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(64, "straddles_zero")
        monkeypatch.setattr(shared_module, "workers", lambda: 1)
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
        # two callers at once, each switching between a 1-point call and a
        # 64-point call with the Jacobian, on the shared pool
        spec, t = self.inputs.spec, self.inputs.t
        rule, xs, zm, zp = self.inputs._inputs(64, "straddles_zero")
        jobs = [(xs[:1], zm[:1], zp[:1], None),
                (xs, zm, zp, _knot_weights(t, 0.1, rule))]
        if workers is not None:
            monkeypatch.setattr(shared_module, "workers", lambda: workers)

        def call(job):
            x, lo, hi, knot_weights = job
            return lag_integral_batch(spec, t, x, lo, hi, rule,
                                      knot_weights=knot_weights)

        serial = [call(job) for job in jobs]
        results = {}

        def caller(first):
            results[first] = [call(jobs[(first + k) % 2]) for k in range(4)]

        threads = [threading.Thread(target=caller, args=(first,))
                   for first in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [0, 1]
        for first, got in results.items():
            for k, result in enumerate(got):
                want = serial[(first + k) % 2]
                if isinstance(want, tuple):
                    assert all(np.array_equal(g, w)
                               for g, w in zip(result, want))
                else:
                    assert np.array_equal(result, want)
