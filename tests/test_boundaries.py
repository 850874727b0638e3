"""Tests for the Volterra boundary solver and the BoundaryPair container.

The solved pair is validated structurally (terminal pinning, monotonicity,
class membership, sign), by symmetry relations that the equations imply,
by grid-refinement convergence, and by re-evaluating the defining integral
equations with an independent, finer quadrature.
"""

import functools
import hashlib
import json
import sys

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lastzero import (
    BoundaryPair,
    InvariantViolationError,
    NonConvergenceError,
    ProblemSpec,
    SchemaError,
    SolverConfig,
    boundary_residuals,
    h_curves,
    mean_g,
    solve_boundaries,
    value_at,
)
from lastzero.boundaries import sqrt_time_grid

import lastzero._shared as shared_module
import lastzero.boundaries as boundaries_module
from oracles import (_KERNEL_N_GL, h_root, large_drift_limit,
                     zero_drift_anchor, zero_drift_closed_form,
                     zero_drift_lag_integral)

# Regression anchor, solver defaults (n_steps=400, T=1): the discrete
# solution itself, as a solve at tol_res=1e-11 gives it (the
# path-independence test below ties default solves to such tight ones).
# Independent checks come from the residual certificate below and the
# lattice cross-validation in the acceptance suite.
B_PLUS_0_MU0 = 1.12269874


def _solve_counting_calls(monkeypatch, spec, n_steps):
    """``(pair, kernel calls)`` of one solve at ``n_steps``."""
    calls = []
    real = boundaries_module.lag_integral_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(boundaries_module, "lag_integral_batch", counting)
    bp = solve_boundaries(spec, SolverConfig(n_steps=n_steps))
    return bp, len(calls)


class TestSqrtTimeGrid:
    def test_span_and_shape(self):
        g = sqrt_time_grid(2.0, 50)
        assert g.size == 51
        assert g[0] == 0.0
        assert g[-1] == 2.0
        assert np.all(np.diff(g) > 0)

    def test_refines_toward_horizon(self):
        # Boundary slope blows up like 1/sqrt(T - t); spacing must shrink
        # near T to keep the collocation error balanced.
        g = sqrt_time_grid(1.0, 100)
        d = np.diff(g)
        assert np.all(np.diff(d) < 0)
        assert d[-1] < d[0] / 50


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(tol_res=-1.0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_res=float("nan"))

    def test_infinite_tolerance_rejected(self):
        # it would switch off the residual half of the stop test
        with pytest.raises(ValueError, match="tol_res"):
            SolverConfig(tol_res=float("inf"))

    def test_step_count_must_be_an_integer(self):
        with pytest.raises(ValueError, match="n_steps"):
            SolverConfig(n_steps=12.5)
        assert type(SolverConfig(n_steps=np.int64(12)).n_steps) is int

    def test_step_tolerance_derived(self):
        assert SolverConfig().tol_b == 1e-7
        assert SolverConfig(tol_res=1e-5).tol_b == 1e-7
        assert SolverConfig(tol_res=1e-11).tol_b == 1e-12


class TestSolvedBoundaries:
    def test_terminal_condition_exact(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert bp.b_minus[-1] == 0.0
        assert bp.b_plus[-1] == 0.0

    def test_monotone(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert np.all(np.diff(bp.b_minus) >= 0.0)
        assert np.all(np.diff(bp.b_plus) <= 0.0)

    def test_strict_sign_in_interior(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert np.all(bp.b_minus[:-1] < 0.0)
        assert np.all(bp.b_plus[:-1] > 0.0)

    @pytest.mark.parametrize("nu", [-10.0, -3.0, 0.0, 3.0, 10.0])
    def test_class_membership(self, boundaries_for, nu):
        # Uniqueness class: b- at or below the lower zero-level curve of H,
        # b+ at or above the upper one.  The solver checks no such thing:
        # every iterate is clipped into the class and the final monotone
        # projection only lowers b- and raises b+.
        bp = boundaries_for(nu, n_steps=80)
        hc = h_curves(bp.spec, bp.grid)
        assert np.all(bp.b_minus <= hc.h_minus + 1e-9)
        assert np.all(bp.b_plus >= hc.h_plus - 1e-9)

    def test_reported_residuals_within_tolerance(self, boundaries_for):
        bp = boundaries_for(0.0)
        res = bp.residuals[:-1]
        assert np.all(np.isfinite(res))
        assert np.max(np.abs(res)) <= 1e-6

    def test_zero_drift_symmetry(self, boundaries_for):
        bp = boundaries_for(0.0)
        npt.assert_allclose(bp.b_minus, -bp.b_plus, atol=1e-9, rtol=0)

    def test_regression_value_at_origin(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert abs(bp.b_plus[0] - B_PLUS_0_MU0) <= 1e-6

    @pytest.mark.parametrize("mu", [0.8, 3.0, 10.0, 20.0])
    def test_drift_flip_mirrors_boundaries(self, mu):
        # b±(t; -mu) = -b∓(t; mu), out to large drifts where one boundary
        # is thin; the +mu solve also certifies at every 20th node
        cfg = SolverConfig(n_steps=80)
        bp_pos = solve_boundaries(ProblemSpec(mu=mu, T=1.0), cfg)
        bp_neg = solve_boundaries(ProblemSpec(mu=-mu, T=1.0), cfg)
        npt.assert_allclose(bp_pos.b_plus, -bp_neg.b_minus, atol=1e-9,
                            rtol=0)
        npt.assert_allclose(bp_pos.b_minus, -bp_neg.b_plus, atol=1e-9,
                            rtol=0)
        cert = boundary_residuals(bp_pos.spec, bp_pos, bp_pos.grid[::20])
        assert np.max(np.abs(cert)) / bp_pos.spec.T <= 1e-5

    @pytest.mark.parametrize("mu", [0.0, 0.8])
    def test_path_independent_of_tolerance(self, mu):
        # The residual is nearly flat in x (smooth fit), so a small residual
        # alone does not pin the iterate; the step-size stop must deliver
        # the discrete solution itself, whatever the iteration path.
        spec = ProblemSpec(mu=mu, T=1.0)
        loose = solve_boundaries(spec, SolverConfig(n_steps=80))
        tight = solve_boundaries(spec, SolverConfig(n_steps=80,
                                                    tol_res=1e-11))
        npt.assert_allclose(loose.b_minus, tight.b_minus, atol=1e-6, rtol=0)
        npt.assert_allclose(loose.b_plus, tight.b_plus, atol=1e-6, rtol=0)

    @staticmethod
    def _count_kernel_calls(monkeypatch, nu, n_steps):
        return _solve_counting_calls(monkeypatch, ProblemSpec(mu=nu, T=1.0),
                                     n_steps)[1]

    def test_kernel_calls_per_step(self, monkeypatch):
        # each call gives the residual and its exact Jacobian: the start
        # point plus one call per Newton step, about 3.7 per step here
        n = 80
        assert self._count_kernel_calls(monkeypatch, 0.5, n) <= 5 * n

    @pytest.mark.parametrize("nu", [0.0, 1.0, -2.0])
    def test_kernel_calls_per_step_fine_grid(self, monkeypatch, nu):
        # warm starts on the default grid are good enough for about two
        # Newton steps per node
        n = 400
        assert self._count_kernel_calls(monkeypatch, nu, n) <= 3.5 * n

    @pytest.mark.parametrize("nu, n_steps", [(3.5574741713461897, 5),
                                             (-3.191689469140158, 4),
                                             (0.9605753653207767, 2)])
    def test_step_limit_certifies(self, monkeypatch, nu, n_steps):
        # coarse grids where a Newton step exceeds the step limit: the step
        # is cut back to the limit, and the solve stays cheap and still
        # certifies
        calls, long_steps = [], []
        real_kernel = boundaries_module.lag_integral_batch
        real_solve = np.linalg.solve

        def counting(*args, **kwargs):
            calls.append(1)
            return real_kernel(*args, **kwargs)

        def recording(a, b):
            step = real_solve(a, b)
            long_steps.append(np.max(np.abs(step))
                              > boundaries_module._STEP_LIMIT)
            return step

        monkeypatch.setattr(boundaries_module, "lag_integral_batch", counting)
        monkeypatch.setattr(np.linalg, "solve", recording)
        spec = ProblemSpec(mu=nu, T=1.0)
        cfg = SolverConfig(n_steps=n_steps)
        bp = solve_boundaries(spec, cfg)
        assert any(long_steps)
        assert len(calls) <= 8 * n_steps
        assert np.max(np.abs(bp.residuals)) / spec.T <= cfg.tol_res
        cert = boundary_residuals(spec, bp, bp.grid)
        assert np.max(np.abs(cert)) / spec.T <= 1e-5

    def test_grid_refinement_converges(self):
        spec = ProblemSpec(mu=0.5, T=1.0)
        b0 = {}
        for n in (50, 100, 200):
            pair = solve_boundaries(spec, SolverConfig(n_steps=n))
            b0[n] = (pair.b_minus[0], pair.b_plus[0])
        err_coarse = abs(b0[50][1] - b0[200][1])
        err_fine = abs(b0[100][1] - b0[200][1])
        assert err_fine < err_coarse
        assert err_coarse <= 1e-4
        assert err_fine <= 2e-5

    def test_independent_residual_certificate(self, boundaries_for):
        bp = boundaries_for(0.0)
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0.0, 0.97, 20))
        res = boundary_residuals(bp.spec, bp, times)
        assert np.max(np.abs(res)) <= 1e-5


class TestRegressionPins:
    """Exact outputs of fixed solves: any change to the sweep moves them."""

    # (mu, T, n_steps): kernel calls, then sha256 of grid, b_minus, b_plus
    # and residuals
    PINS = {
        (0.8, 1.0, 60): (243, (
            "fe3984f2fc65b5c934bbb75693542df6840d897a8b5541d325afc3236b44025b",
            "2cbee317be7f18f34cfadeb52f0a5c1f5f354fdd0baed52ae90a8981d89e89e2",
            "5d886bf857eb3af6d34d0fb486518c3166003d110134baf5916e1d8101c5a115",
            "6fdb71d117eb493a6c6e6ece83401779147008dc5e234f562e3981b5e82d79de",
        )),
        (-1.5, 2.0, 80): (323, (
            "b0456327e76590374d27993dc6d8c936f30165907fda79de33f0cd595387aa6c",
            "ee8744c2bc0dab074537da51f331bd639fa86978c99cf83e64fcf61a42c8db32",
            "f8eb7d1efb4b268feee6bd6648537b83b364f2f33341afc67927f94e44a3abfb",
            "39f898dc4ce8e78a9dd28f688d6e1406b2fabe28a0c6f3ad40b979a7caa1d71f",
        )),
    }

    @pytest.mark.parametrize("key", list(PINS))
    def test_solve_digest_and_kernel_calls(self, monkeypatch, key):
        mu, T, n_steps = key
        bp, n_calls = _solve_counting_calls(
            monkeypatch, ProblemSpec(mu=mu, T=T), n_steps)
        digests = tuple(hashlib.sha256(getattr(bp, name).tobytes())
                        .hexdigest()
                        for name in ("grid", "b_minus", "b_plus", "residuals"))
        assert (n_calls, digests) == self.PINS[key]


class TestInnerRule:
    """The solver's default Gauss-Legendre rule against 128 nodes per side,
    and a certificate whose rules stay finer than the solver's."""

    @pytest.mark.parametrize("nu", [0.0, 1.0, -2.0])
    def test_solve_against_fine_inner_rule(self, boundaries_for, monkeypatch,
                                           nu):
        default = boundaries_for(nu)
        monkeypatch.setattr(boundaries_module, "lag_integral_batch",
                            functools.partial(
                                boundaries_module.lag_integral_batch,
                                n_gl=128))
        fine = solve_boundaries(default.spec, SolverConfig(n_steps=400))
        root_T = np.sqrt(default.spec.T)
        assert abs(default.b_minus[0] - fine.b_minus[0]) <= 1e-12 * root_T
        assert abs(default.b_plus[0] - fine.b_plus[0]) <= 1e-12 * root_T

    def test_certificate_rules_finer_than_solver(self, monkeypatch):
        real = boundaries_module.lag_integral_batch
        seen = []

        def recording(spec, t, xs, zm, zp, rule, **kwargs):
            seen.append((rule.n, kwargs.get("n_gl", _KERNEL_N_GL)))
            return real(spec, t, xs, zm, zp, rule, **kwargs)

        monkeypatch.setattr(boundaries_module, "lag_integral_batch",
                            recording)
        spec = ProblemSpec(mu=0.3, T=1.0)
        bp = solve_boundaries(spec, SolverConfig(n_steps=10))
        solver = seen.copy()
        seen.clear()
        boundary_residuals(spec, bp, bp.grid[:-1])
        certificate = seen
        assert solver and len(certificate) == bp.grid.size - 1
        assert min(n for n, _ in certificate) > max(n for n, _ in solver)
        assert min(g for _, g in certificate) > max(g for _, g in solver)


class TestWorkerCountInvariance:
    """The certificate fans its times out over the thread pool; no bit may
    depend on the worker count."""

    @staticmethod
    def _certify(bp, times, workers):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shared_module, "workers", lambda: workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                return boundary_residuals(bp.spec, bp, times)
            finally:
                sys.setswitchinterval(interval)

    @pytest.mark.parametrize("nu", [0.0, 0.8])
    def test_one_worker_equals_eight(self, nu):
        bp = solve_boundaries(ProblemSpec(mu=nu, T=1.0),
                              SolverConfig(n_steps=60))
        times = np.append(bp.grid[::6], 1.5)        # ends at T and past it
        one = self._certify(bp, times, 1)
        eight = self._certify(bp, times, 8)
        assert one.shape == (times.size, 2)
        npt.assert_array_equal(one, eight)
        done = times >= bp.spec.T
        assert done.sum() == 2 and np.all(one[done] == 0.0)
        assert np.all(one[~done] != 0.0)


class TestBrownianScaling:
    def test_exact_scaling(self):
        # b±(t; mu, T) = sqrt(T) b±(t/T; mu sqrt(T), 1) and residuals scale
        # with T; the sweep solves only the normalized problem, so the
        # identity holds bit for bit, at tiny and at large horizons alike
        cfg = SolverConfig(n_steps=24)
        for mu, T in ((0.7, 1e-4), (-1.3, 0.3), (0.0, 2.0), (1.5, 4.0),
                      (-0.2, 100.0)):
            pair = solve_boundaries(ProblemSpec(mu=mu, T=T), cfg)
            unit = solve_boundaries(ProblemSpec(mu=mu * np.sqrt(T), T=1.0),
                                    cfg)
            assert pair.spec == ProblemSpec(mu=mu, T=T)
            assert np.array_equal(pair.grid, unit.grid * T)
            assert np.array_equal(pair.b_minus, unit.b_minus * np.sqrt(T))
            assert np.array_equal(pair.b_plus, unit.b_plus * np.sqrt(T))
            assert np.array_equal(pair.residuals, unit.residuals * T)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(nu=st.floats(-10.0, 10.0), log10_T=st.floats(-4.0, 2.0),
           n_steps=st.integers(2, 24))
    def test_certified_or_documented_failure(self, nu, log10_T, n_steps):
        # every finite (mu, T) either solves with residuals small relative
        # to T or raises one of the two documented errors; the returned
        # pair's constructor enforces sign pattern and monotonicity
        T = 10.0 ** log10_T
        cfg = SolverConfig(n_steps=n_steps)
        try:
            pair = solve_boundaries(ProblemSpec(mu=nu / np.sqrt(T), T=T), cfg)
        except (NonConvergenceError, InvariantViolationError):
            return
        assert np.max(np.abs(pair.residuals)) / T <= cfg.tol_res


class TestInterpolation:
    def test_terminal_and_knots(self, boundaries_for):
        bp = boundaries_for(0.0)
        bm, bpl = bp.interpolate(1.0)
        assert bm == 0.0 and bpl == 0.0
        k = 37
        bm, bpl = bp.interpolate(bp.grid[k])
        assert bm == bp.b_minus[k]
        assert bpl == bp.b_plus[k]

    def test_between_knots(self, boundaries_for):
        bp = boundaries_for(0.0)
        t = 0.5 * (bp.grid[10] + bp.grid[11])
        bm, bpl = bp.interpolate(t)
        assert bp.b_plus[11] <= bpl <= bp.b_plus[10]
        assert bp.b_minus[10] <= bm <= bp.b_minus[11]

    def test_vectorized_and_function_form(self, boundaries_for):
        bp = boundaries_for(0.0)
        ts = np.linspace(0.0, 1.0, 11)
        bm, bpl = bp.interpolate(ts)
        assert bm.shape == ts.shape
        fm, fp = bp.interpolate(ts)
        npt.assert_array_equal(fm, bm)
        npt.assert_array_equal(fp, bpl)

    def test_domain_errors(self, boundaries_for):
        bp = boundaries_for(0.0)
        for t in (-0.01, 1.01, np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="outside"):
                bp.interpolate(t)
        # both ends are relative to T: -50 T is far outside at T = 1e-14
        T = 1e-14
        tiny = BoundaryPair(spec=ProblemSpec(mu=0.0, T=T),
                            grid=np.array([0.0, 0.5 * T, T]),
                            b_minus=np.array([-1e-7, -5e-8, 0.0]),
                            b_plus=np.array([1e-7, 5e-8, 0.0]))
        for t in (-50.0 * T, 2.0 * T):
            with pytest.raises(ValueError, match="outside"):
                tiny.interpolate(t)


class TestContainerValidation:
    grid = np.array([0.0, 0.5, 1.0])

    def _make(self, bm, bp):
        return BoundaryPair(spec=ProblemSpec(mu=0.0, T=1.0), grid=self.grid,
                            b_minus=np.array(bm), b_plus=np.array(bp))

    def test_accepts_valid(self):
        pair = self._make([-1.0, -0.5, 0.0], [1.0, 0.5, 0.0])
        assert pair.grid.size == 3

    def test_rejects_nonzero_terminal(self):
        with pytest.raises(ValueError):
            self._make([-1.0, -0.5, -0.1], [1.0, 0.5, 0.0])

    def test_rejects_nonmonotone(self):
        with pytest.raises(ValueError):
            self._make([-0.5, -1.0, 0.0], [1.0, 0.5, 0.0])

    def test_rejects_sign_violation(self):
        with pytest.raises(ValueError):
            self._make([-1.0, -0.5, 0.0], [-0.2, 0.5, 0.0][::-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            self._make([-1.0, bad, 0.0], [1.0, 0.5, 0.0])
        with pytest.raises(ValueError):
            self._make([-1.0, -0.5, 0.0], [bad, 0.5, 0.0])
        with pytest.raises(ValueError):
            BoundaryPair(spec=ProblemSpec(mu=0.0, T=1.0),
                         grid=np.array([0.0, bad, 1.0]),
                         b_minus=np.array([-1.0, -0.5, 0.0]),
                         b_plus=np.array([1.0, 0.5, 0.0]))

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            BoundaryPair(spec=ProblemSpec(mu=0.0, T=1.0),
                         grid=np.array([0.0, 0.7, 0.6, 1.0]),
                         b_minus=np.array([-1.0, -0.5, -0.4, 0.0]),
                         b_plus=np.array([1.0, 0.5, 0.4, 0.0]))

    # The tolerances scale with the problem: grid ends with T, steps of b±
    # with sqrt(T).  Absolute ones accepted a wrong pair at a tiny horizon
    # and refused a rounding-level one at a large horizon.
    @staticmethod
    def _scaled(T, grid, bm, bp):
        return BoundaryPair(spec=ProblemSpec(mu=0.0, T=T), grid=grid,
                            b_minus=np.array(bm), b_plus=np.array(bp))

    def test_rejects_grid_ending_at_twice_a_tiny_horizon(self):
        # ends at 2T, so b+(T) = 5e-8 = sqrt(T) / 2 instead of 0
        T = 1e-14
        with pytest.raises(ValueError, match="span"):
            self._scaled(T, np.array([0.0, T, 2.0 * T]),
                         [-1e-7, -5e-8, 0.0], [1e-7, 5e-8, 0.0])

    def test_rejects_rising_b_plus_on_a_tiny_horizon(self):
        # a rise of 1e-13 is 1e-6 sqrt(T) at T = 1e-14
        T = 1e-14
        with pytest.raises(ValueError, match="monotonicity"):
            self._scaled(T, np.array([0.0, 0.5 * T, T]),
                         [-1e-7, -5e-8, 0.0], [1e-7, 1e-7 + 1e-13, 0.0])

    def test_accepts_rounding_on_a_large_horizon(self):
        # one ulp past T = 1e8, and a rise of 1e-9 = 1e-13 sqrt(T)
        T = 1e8
        grid = np.array([0.0, 0.5 * T, np.nextafter(T, 2.0 * T)])
        pair = self._scaled(T, grid, [-1e4, -5e3, 0.0],
                            [1e4, 1e4 + 1e-9, 0.0])
        assert pair.grid.size == 3

    def test_arrays_read_only(self, boundaries_for):
        bp = boundaries_for(0.0)
        with pytest.raises(ValueError):
            bp.b_plus[0] = 2.0


class TestNonConvergence:
    def test_iteration_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(boundaries_module, "MAX_ITER", 1)
        spec = ProblemSpec(mu=0.0, T=1.0)
        cfg = SolverConfig(n_steps=12, tol_res=1e-14)
        with pytest.raises(NonConvergenceError) as exc:
            solve_boundaries(spec, cfg)
        assert exc.value.step >= 0
        assert 0.0 <= exc.value.t <= 1.0
        assert exc.value.cause == "iteration budget exhausted"

    @pytest.mark.parametrize("failure", ["singular", "nan"])
    def test_unusable_step_raises_at_once(self, monkeypatch, failure):
        # a singular Jacobian or a non-finite step ends the node's
        # iterations after the one call that gave its start residual and
        # Jacobian
        calls = []
        real = boundaries_module.lag_integral_batch

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        def unusable(a, b):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(2, np.nan)

        monkeypatch.setattr(boundaries_module, "lag_integral_batch", counting)
        monkeypatch.setattr(np.linalg, "solve", unusable)
        with pytest.raises(NonConvergenceError) as exc:
            solve_boundaries(ProblemSpec(mu=0.0, T=1.0),
                             SolverConfig(n_steps=12))
        assert exc.value.step == 11
        assert exc.value.cause == "singular Jacobian"
        assert len(calls) == 1

    def test_runaway_iterate_raises_at_once(self, monkeypatch):
        # at nu = 1 and 800 steps the iterate of step 194 runs off towards
        # the trivial root b- -> -infinity, 0.25 a step; it took all 200
        # iterations to reach b- = -50 before the runaway bound ended it
        lags = []
        real = boundaries_module.lag_integral_batch

        def counting(spec, t, *args, **kwargs):
            lags.append(t)
            return real(spec, t, *args, **kwargs)

        monkeypatch.setattr(boundaries_module, "lag_integral_batch", counting)
        with pytest.raises(NonConvergenceError) as exc:
            solve_boundaries(ProblemSpec(mu=1.0, T=1.0),
                             SolverConfig(n_steps=800))
        assert exc.value.step == 194
        assert "ran off" in exc.value.cause and "trivial root" in str(exc.value)
        assert lags.count(lags[-1]) <= 15

    @pytest.mark.parametrize("part", ["residual", "Jacobian"])
    def test_non_finite_system_names_cause(self, monkeypatch, part):
        real = boundaries_module.lag_integral_batch

        def poisoned(*args, **kwargs):
            r, d_x, d_beta = real(*args, **kwargs)
            if part == "residual":
                return np.full_like(r, np.nan), d_x, d_beta
            return r, d_x, np.full_like(d_beta, np.inf)

        monkeypatch.setattr(boundaries_module, "lag_integral_batch", poisoned)
        with pytest.raises(NonConvergenceError) as exc:
            solve_boundaries(ProblemSpec(mu=0.3, T=1.0),
                             SolverConfig(n_steps=12))
        assert exc.value.step == 11
        assert exc.value.cause == f"non-finite {part}"
        assert f"non-finite {part}" in str(exc.value)


class TestSerialization:
    def test_json_round_trip(self, boundaries_for, tmp_path):
        bp = boundaries_for(0.0)
        path = tmp_path / "b.json"
        bp.save_json(path, config=SolverConfig())
        back, _ = BoundaryPair.load_json(path)
        assert back.spec == bp.spec
        npt.assert_array_equal(back.grid, bp.grid)
        npt.assert_array_equal(back.b_minus, bp.b_minus)
        npt.assert_array_equal(back.b_plus, bp.b_plus)
        npt.assert_array_equal(back.residuals, bp.residuals)

    def test_json_schema_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something.else.v9"}))
        with pytest.raises(SchemaError):
            BoundaryPair.load_json(path)

    def test_json_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all {")
        with pytest.raises(SchemaError):
            BoundaryPair.load_json(path)
        path.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError):
            BoundaryPair.load_json(path)

    @staticmethod
    def _doc():
        pair = BoundaryPair(spec=ProblemSpec(mu=0.0, T=1.0),
                            grid=np.array([0.0, 0.5, 1.0]),
                            b_minus=np.array([-1.0, -0.5, 0.0]),
                            b_plus=np.array([1.0, 0.5, 0.0]))
        return pair.to_json_dict()

    @pytest.mark.parametrize("key", ["spec", "grid", "b_minus", "b_plus",
                                     "residual_minus", "residual_plus"])
    def test_missing_key_is_schema_error(self, key):
        doc = self._doc()
        del doc[key]
        with pytest.raises(SchemaError):
            BoundaryPair.from_json_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("spec", [0.0, 1.0]), ("spec", {"mu": "fast", "T": 1.0}),
        ("spec", {"mu": None, "T": 1.0}), ("grid", None),
        ("b_minus", "oops"), ("b_plus", [1.0, 0.5]),
        ("residual_plus", [0.0]), ("b_minus", [-1.0, float("nan"), 0.0])])
    def test_malformed_value_is_schema_error(self, key, value):
        doc = self._doc()
        doc[key] = value
        with pytest.raises(SchemaError):
            BoundaryPair.from_json_dict(doc)

    def test_csv_reuses_solver_h_curves(self, tmp_path):
        # a solved pair (swept in normalized units) and a pair built from the
        # same arrays write the same h± curves, on the user's scale
        spec = ProblemSpec(mu=0.3, T=2.0)
        solved = solve_boundaries(spec, SolverConfig(n_steps=20))
        solved.save_csv(tmp_path / "solved.csv", manifest_hash="x")
        fresh = BoundaryPair(spec=spec, grid=solved.grid,
                             b_minus=solved.b_minus, b_plus=solved.b_plus,
                             residuals=solved.residuals)
        fresh.save_csv(tmp_path / "fresh.csv", manifest_hash="x")
        assert (tmp_path / "solved.csv").read_bytes() \
            == (tmp_path / "fresh.csv").read_bytes()

    def test_csv_layout(self, boundaries_for, tmp_path):
        bp = boundaries_for(0.0)
        path = tmp_path / "b.csv"
        bp.save_csv(path, manifest_hash="deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# manifest_hash=deadbeef"
        header = lines[1].split(",")
        assert header == ["t", "b_minus", "b_plus", "h_minus", "h_plus",
                          "residual_minus", "residual_plus"]
        first = lines[2].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0
        assert float(last[0]) == 1.0
        assert float(last[1]) == 0.0 and float(last[2]) == 0.0
        # h columns bracket the b columns (class membership in the file)
        t_mid = lines[2 + 200].split(",")
        assert float(t_mid[1]) <= float(t_mid[3])  # b- <= h-
        assert float(t_mid[2]) >= float(t_mid[4])  # b+ >= h+


class TestZeroDriftAnchor:
    """At mu = 0 the exact boundaries are ±z* sqrt(T - t), with z* the root
    of one scalar equation (``oracles.zero_drift_anchor``)."""

    Z_STAR = 1.12281350712333
    V_STAR = 0.23848329243193

    def test_root_agrees_across_lag_rules(self):
        roots = [zero_drift_anchor(n)[0] for n in (128, 256, 512, 1024, 2048)]
        assert max(roots) - min(roots) <= 1e-13
        assert abs(roots[0] - self.Z_STAR) <= 1e-13

    def test_one_sign_change_above_h_plus(self):
        lo = h_root(ProblemSpec(mu=0.0, T=1.0), 0.0, +1)
        zs = np.linspace(lo, 3.0, 201)[1:]
        f = np.array([zero_drift_lag_integral(z, z) for z in zs])
        assert f[0] < 0.0 < f[-1]
        assert np.count_nonzero(np.diff(np.sign(f))) == 1

    def test_optimal_error(self):
        assert abs(zero_drift_anchor()[1] - self.V_STAR) <= 1e-12

    def test_kernel_anchor_matches_closed_form(self):
        # z* is the root of 4 Phi(z) - 2 z phi(z) - 3 and V* = T (2 Phi(z*)
        # - 3/2), from no code in src/: the kernel's anchor must agree
        z_ref, v_ref = zero_drift_closed_form(1.0)
        z, v = zero_drift_anchor()
        assert abs(z - z_ref) <= 1e-13
        assert abs(v - v_ref) <= 1e-13


class TestLargeDriftLimit:
    """As |nu| grows, the thin boundary at t = 0 tends to c/|nu| and V* to
    its limit over nu^2 (``oracles.large_drift_limit``, no code of the
    package)."""

    @pytest.mark.parametrize("nu", [
        10.0, -10.0,
        pytest.param(30.0, marks=pytest.mark.xfail(
            strict=True, reason="the fixed 128-node lag rule misses c by "
                                "1.4e-8 at nu = 30 (ROADMAP item 1)"))])
    def test_thin_boundary_and_optimal_error(self, boundaries_for, nu):
        # measured at nu = +-10: 7.4e-12 from c and 5.2e-10 from the limit
        c, vstar_limit = large_drift_limit()
        bp = boundaries_for(nu)
        thin = bp.b_plus[0] if nu > 0 else -bp.b_minus[0]
        assert abs(abs(nu) * thin - c) <= 1e-10
        vstar = value_at(bp.spec, bp, 0.0, 0.0) + mean_g(bp.spec)
        assert abs(vstar * nu ** 2 - vstar_limit) <= 1e-8
