"""Tests for the value surface, stopping policy, and smooth-fit diagnostic.

V(t, x) is checked against its defining properties: zero on the closed
stopping set, negative inside the continuation region, vanishing at the
horizon, and near-zero (quadrature-level) residual of the raw formula on
the solved boundaries.  V* = V(0,0) + E g is pinned by frozen regression
values that the lattice oracle and Monte Carlo closure re-derive elsewhere.
"""

import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from lastzero import (
    BoundaryPair,
    OptimalRule,
    ProblemSpec,
    SolverConfig,
    ValueSurface,
    boundary_residuals,
    build_value_surface,
    mean_g,
    solve_boundaries,
    value_at,
)
from lastzero.boundaries import sqrt_time_grid
from lastzero.cli import main as cli_main
from lastzero.value import default_x_grid, value_row
from oracles import (raw_value_row, smooth_fit_diagnostic,
                     zero_drift_closed_form, zero_drift_value)

import lastzero._shared as shared_module
import lastzero.kernel as kernel_module
import lastzero.value as value_module

# Regression anchors at solver defaults (n_steps=400, T=1).  E g comes from
# the closed form (1 - exp(-mu^2 T / 2)) / mu^2; V(0,0) is certified by the
# residual checks and the lattice cross-validation in the acceptance suite.
VSTAR_MU0 = 0.23848268
VSTAR_MU1 = 0.19278790
V00_MU0 = -0.26151732


def should_stop(bp, t, x):
    """Membership in the closed stopping set, read off the optimal rule."""
    mask = OptimalRule(bp).stop_mask(np.array([t]), np.array([[x]]))
    return bool(mask[0, 0])


class TestShouldStop:
    def test_origin_is_continuation(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert not should_stop(bp, 0.3, 0.0)

    def test_boundary_is_stopping(self, boundaries_for):
        # the stopping set is closed: x = b+(t) stops
        bp = boundaries_for(0.0)
        _, zp = bp.interpolate(0.3)
        assert should_stop(bp, 0.3, zp)
        assert should_stop(bp, 0.3, zp + 0.5)
        assert not should_stop(bp, 0.3, zp - 1e-9)

    def test_horizon_always_stops(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert should_stop(bp, 1.0, 0.0)
        assert should_stop(bp, 1.0, -3.0)

    def test_domain_errors(self, boundaries_for):
        bp = boundaries_for(0.0)
        with pytest.raises(ValueError):
            should_stop(bp, -0.2, 0.0)
        with pytest.raises(ValueError):
            should_stop(bp, 1.2, 0.0)


class TestValueFunction:
    def test_zero_at_horizon(self, boundaries_for):
        bp = boundaries_for(0.0)
        xs = np.linspace(-2, 2, 7)
        npt.assert_array_equal(value_row(bp.spec, bp, 1.0, xs),
                               np.zeros(7))

    def test_exact_zero_on_stopping_set(self, boundaries_for):
        bp = boundaries_for(0.0)
        zm, zp = bp.interpolate(0.4)
        vals = value_row(bp.spec, bp, 0.4,
                         np.array([zm - 0.3, zm, zp, zp + 0.3]))
        npt.assert_array_equal(vals, np.zeros(4))

    def test_negative_in_continuation_region(self, boundaries_for):
        bp = boundaries_for(0.0)
        zm, zp = bp.interpolate(0.2)
        xs = np.linspace(zm + 1e-3, zp - 1e-3, 25)
        vals = value_row(bp.spec, bp, 0.2, xs)
        assert np.all(vals < 0.0)

    def test_raw_formula_vanishes_on_boundary(self, boundaries_for):
        # The boundary equations say exactly this; re-check through the
        # value formula's own kernel call, unclipped, at knots and between
        # them.
        bp = boundaries_for(0.0)
        for t in (bp.grid[50], 0.31, 0.5 * (bp.grid[200] + bp.grid[201])):
            zm, zp = bp.interpolate(float(t))
            raw = raw_value_row(bp, float(t), np.array([zm, zp]))
            assert np.max(np.abs(raw)) <= 2e-6

    def test_row_is_one_kernel_call(self, boundaries_for, monkeypatch):
        # all of a row's inside points in one call; a row with no inside
        # point makes none
        bp = boundaries_for(0.0)
        calls = []
        real = value_module.lag_integral_batch

        def counting(spec, t, xs, *args, **kwargs):
            calls.append(len(xs))
            return real(spec, t, xs, *args, **kwargs)

        monkeypatch.setattr(value_module, "lag_integral_batch", counting)
        zm, zp = bp.interpolate(0.25)
        xs = np.linspace(zm - 0.1, zp + 0.1, 200)
        row = value_row(bp.spec, bp, 0.25, xs)
        inside = (xs > zm) & (xs < zp)
        assert calls == [np.count_nonzero(inside)] and calls[0] > 64
        assert np.all(row[inside] < 0.0) and np.all(row[~inside] == 0.0)
        calls.clear()
        assert np.all(value_row(bp.spec, bp, 0.25, [zm, zp + 1.0]) == 0.0)
        assert calls == []

    def test_value_at_equals_wide_row(self):
        # V at one (t, x) must not depend on the grid it is computed with
        bp = solve_boundaries(ProblemSpec(mu=-1.3, T=2.0),
                              SolverConfig(n_steps=100))
        xs = np.linspace(bp.b_minus[0] - 1.0, bp.b_plus[0] + 1.0, 200)
        row = value_row(bp.spec, bp, 0.5, xs)
        assert np.count_nonzero(row) > 100
        single = [value_at(bp.spec, bp, 0.5, x) for x in xs]
        npt.assert_array_equal(row, single)

    def test_domain_error(self, boundaries_for):
        bp = boundaries_for(0.0)
        for t in (-0.1, np.nan, 1.1, np.inf):
            with pytest.raises(ValueError, match="outside"):
                value_at(bp.spec, bp, t, 0.0)

    def test_nan_x_raises(self, boundaries_for):
        # a NaN x lies in no window and was scored as stopped (V = 0);
        # +-inf does lie in the stopping set
        bp = boundaries_for(0.0)
        with pytest.raises(ValueError, match="NaN"):
            value_at(bp.spec, bp, 0.0, np.nan)
        with pytest.raises(ValueError, match="NaN"):
            value_row(bp.spec, bp, 0.3, np.array([0.0, np.nan]))
        assert np.all(value_row(bp.spec, bp, 0.3,
                                np.array([-np.inf, np.inf])) == 0.0)

    def test_zero_drift_symmetry_in_x(self, boundaries_for):
        bp = boundaries_for(0.0)
        xs = np.linspace(0.05, 1.0, 9)
        left = value_row(bp.spec, bp, 0.3, -xs)
        right = value_row(bp.spec, bp, 0.3, xs)
        npt.assert_allclose(left, right, atol=1e-12, rtol=0)


def _root_pair(z, T, n_steps):
    """The pair b± = ±z sqrt(T - t) at zero drift on a sqrt-time grid."""
    grid = sqrt_time_grid(T, n_steps)
    b = z * np.sqrt(T - grid)
    return BoundaryPair(spec=ProblemSpec(mu=0.0, T=T), grid=grid,
                        b_minus=-b, b_plus=b)


class TestZeroDriftSurface:
    """At zero drift on the exact boundaries ±z* sqrt(T - t), finely
    interpolated, ``value_row`` against the closed-form surface
    (``oracles.zero_drift_value``, no code of the package)."""

    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_against_closed_form(self, T):
        # measured at most 3.85e-9 T, at t = 0
        bp = _root_pair(zero_drift_closed_form()[0], T, 4000)
        xs = np.linspace(-1.5, 1.5, 601) * np.sqrt(T)
        for u in (0.0, 0.5, 0.9):
            v = value_row(bp.spec, bp, u * T, xs)
            assert np.count_nonzero(v) > 100
            exact = zero_drift_value(u * T, xs, T)
            assert np.max(np.abs(v - exact)) <= 1e-8 * T


class TestRowMemory:
    def test_wide_row_bounded_by_tile_budget(self, monkeypatch):
        # a row runs through the kernel in runs of 512 points, so neither
        # its work arrays nor the calling thread's Scratch grow with the
        # row: measured 5.0 and 1.6 MB, where one call over all 20,000
        # points peaked at 229 MB and left 62 MB in the Scratch.  A fresh
        # Scratch, warmed by one full run, is this thread's alone.
        monkeypatch.setattr(kernel_module, "_scratch", shared_module.Scratch())
        bp = _root_pair(1.1, 1.0, 50)
        xs = np.linspace(-1.0, 1.0, 20_000)
        value_row(bp.spec, bp, 0.0, xs[:1000])
        tracemalloc.start()
        try:
            row = value_row(bp.spec, bp, 0.0, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(row < 0.0)
        assert peak <= 8e6
        held = sum(buf.nbytes
                   for buf in kernel_module._scratch._buffers.values())
        assert held <= 2e6


class TestInnerRule:
    """The kernel's default Gauss-Legendre rule against 128 nodes per side."""

    T = 2.0

    @pytest.mark.parametrize("nu", [0.0, 1.0, -1.0, 3.0, -3.0, 10.0, -10.0])
    def test_drift_sweep(self, nu):
        # times up to 1e-4 T before the horizon, where the lag window is
        # short and H is steep near its kink
        spec = ProblemSpec(mu=nu / np.sqrt(self.T), T=self.T)
        bp = solve_boundaries(spec, SolverConfig(n_steps=100))
        worst = 0.0
        for u in (0.0, 0.5, 0.9, 0.99, 0.999, 0.9999):
            zm, zp = bp.interpolate(u * self.T)
            xs = np.linspace(zm, zp, 42)[1:-1]
            v = value_row(spec, bp, u * self.T, xs)
            assert np.all(v != 0.0)         # inside the window: no exact 0
            fine = raw_value_row(bp, u * self.T, xs, n_gl=128)
            worst = max(worst, float(np.max(np.abs(v - fine))))
        assert worst <= 1e-8 * self.T


class TestSpecMismatch:
    # Every evaluator reads the problem from ``spec`` and the windows from
    # ``bp``; a pair solved for another problem gave wrong numbers silently
    # (a (0.7, 1.5) pair read with mu = -0.7: V(0,0) -0.1712, not -0.3221).
    @pytest.mark.parametrize("call", [
        lambda spec, bp: value_row(spec, bp, 0.2, np.array([0.0])),
        lambda spec, bp: value_at(spec, bp, 0.0, 0.0),
        lambda spec, bp: build_value_surface(spec, bp, n_t=3, n_x=4),
        lambda spec, bp: boundary_residuals(spec, bp, [0.0]),
    ], ids=["value_row", "value_at", "build_value_surface",
            "boundary_residuals"])
    @pytest.mark.parametrize("mu, T", [(0.7, 1.0), (0.0, 0.5)])
    def test_raises(self, boundaries_for, call, mu, T):
        bp = boundaries_for(0.0)
        with pytest.raises(ValueError, match="does not match"):
            call(ProblemSpec(mu=mu, T=T), bp)


def _rescaled(bp, T):
    """The pair of (mu / sqrt(T), T) that Brownian scaling maps from bp."""
    root = np.sqrt(T)
    return BoundaryPair(spec=ProblemSpec(mu=bp.spec.mu / root, T=T),
                        grid=bp.grid * T, b_minus=bp.b_minus * root,
                        b_plus=bp.b_plus * root)


class TestInvariants:
    """Brownian scaling and the drift flip, on pairs built from one solve."""

    XS = np.linspace(-1.8, 1.8, 19)       # both boundaries and beyond
    US = (0.0, 0.3, 0.77, 0.95)           # times as fractions of T

    @pytest.fixture(scope="class")
    def unit_pair(self):
        return solve_boundaries(ProblemSpec(mu=0.7, T=1.0),
                                SolverConfig(n_steps=60))

    @pytest.mark.parametrize("T", [0.3, 2.5])
    def test_brownian_scaling(self, unit_pair, T):
        # V(t, x; mu, T) = T V(t/T, x/sqrt(T); mu sqrt(T), 1)
        bp = _rescaled(unit_pair, T)
        for u in self.US:
            unit = value_row(unit_pair.spec, unit_pair, u, self.XS)
            scaled = value_row(bp.spec, bp, u * T, self.XS * np.sqrt(T))
            assert np.any(unit < 0.0)
            assert np.max(np.abs(scaled - T * unit)) <= 1e-13 * T

    @pytest.mark.parametrize("T", [1.0, 2.5])
    def test_drift_flip(self, unit_pair, T):
        # -B^mu is B^(-mu) with the same zeros: V(t, x; mu) = V(t, -x; -mu)
        bp = _rescaled(unit_pair, T)
        flipped = BoundaryPair(spec=ProblemSpec(mu=-bp.spec.mu, T=T),
                               grid=bp.grid, b_minus=-bp.b_plus,
                               b_plus=-bp.b_minus)
        xs = self.XS * np.sqrt(T)
        for u in self.US:
            v = value_row(bp.spec, bp, u * T, xs)
            v_flip = value_row(flipped.spec, flipped, u * T, -xs)
            assert np.max(np.abs(v - v_flip)) <= 1e-13 * T


def _vstar(bp):
    """V* = V(0, 0) + E g, the optimal expected prediction error."""
    return value_at(bp.spec, bp, 0.0, 0.0) + mean_g(bp.spec)


class TestOptimalValue:
    def test_definition(self, boundaries_for, tmp_path, capsys):
        # ``lastzero value`` is the one place that writes V* out
        bp = boundaries_for(0.0)
        bp.save_json(tmp_path / "boundaries.json")
        assert cli_main(["value", "--boundaries",
                         str(tmp_path / "boundaries.json"),
                         "--grid", "2x2"]) == 0
        assert f"V* = {_vstar(bp):.10g}\n" in capsys.readouterr().out

    def test_regression_zero_drift(self, boundaries_for):
        bp = boundaries_for(0.0)
        assert abs(value_at(bp.spec, bp, 0.0, 0.0) - V00_MU0) <= 5e-5
        assert abs(_vstar(bp) - VSTAR_MU0) <= 5e-5

    def test_regression_unit_drift(self, boundaries_for):
        bp = boundaries_for(1.0)
        assert abs(_vstar(bp) - VSTAR_MU1) <= 5e-5

    def test_range(self, boundaries_for):
        # 0 < V* <= E|g - T| considerations aside, V* must undercut the
        # trivial always-stop-at-T policy, whose error is E(T - g).
        for mu in (0.0, 1.0):
            bp = boundaries_for(mu)
            spec = bp.spec
            vs = _vstar(bp)
            trivial = spec.T - mean_g(spec)
            assert 0.0 < vs < trivial


class TestValueSurface:
    def test_build_small_surface(self, boundaries_for):
        bp = boundaries_for(0.0)
        surf = build_value_surface(bp.spec, bp, n_t=12, n_x=21)
        assert surf.source == "integral_formula"
        assert surf.values.shape == (12, 21)
        assert np.all(surf.values <= 0.0)
        npt.assert_array_equal(surf.values[-1], np.zeros(21))

    @pytest.mark.parametrize("workers", [None, 8])
    def test_threaded_rows_match_serial(self, boundaries_for, monkeypatch,
                                        workers):
        # rows run on a thread pool (None: one thread per available CPU;
        # 8: more threads than cores, switching as often as possible) and
        # must come back bit for bit as the serial rows, in grid order
        bp = boundaries_for(1.0)
        if workers is not None:
            monkeypatch.setattr(shared_module, "workers", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            surf = build_value_surface(bp.spec, bp, n_t=9, n_x=70)
        finally:
            sys.setswitchinterval(interval)
        rows = [value_row(bp.spec, bp, float(t), surf.x_grid)
                for t in surf.t_grid]
        npt.assert_array_equal(surf.values,
                               np.minimum(np.stack(rows), 0.0))

    def test_zero_on_stopping_region_columns(self, boundaries_for):
        bp = boundaries_for(0.0)
        surf = build_value_surface(bp.spec, bp, n_t=10, n_x=25)
        for i, t in enumerate(surf.t_grid):
            for j, x in enumerate(surf.x_grid):
                if should_stop(bp, float(t), float(x)):
                    assert surf.values[i, j] == 0.0
                else:
                    assert surf.values[i, j] <= 0.0

    def test_default_x_grid_covers_boundaries(self, boundaries_for):
        bp = boundaries_for(0.0)
        xg = default_x_grid(bp, n_x=50)
        assert xg[0] < bp.b_minus[0]
        assert xg[-1] > bp.b_plus[0]

    def test_validation(self):
        spec = ProblemSpec(mu=0.0, T=1.0)
        t = np.array([0.0, 1.0])
        x = np.array([-1.0, 0.0, 1.0])
        good = np.zeros((2, 3))
        ValueSurface(spec=spec, t_grid=t, x_grid=x, values=good,
                     source="integral_formula")
        with pytest.raises(ValueError):
            ValueSurface(spec=spec, t_grid=t, x_grid=x,
                         values=good + 1.0, source="integral_formula")
        with pytest.raises(ValueError):
            ValueSurface(spec=spec, t_grid=t, x_grid=x,
                         values=np.zeros((3, 2)), source="integral_formula")
        with pytest.raises(ValueError):
            ValueSurface(spec=spec, t_grid=t, x_grid=x, values=good,
                         source="gut_feeling")
        with pytest.raises(ValueError):
            ValueSurface(spec=spec, t_grid=t[::-1].copy(), x_grid=x,
                         values=good, source="bellman")
        with pytest.raises(ValueError):
            ValueSurface(spec=spec, t_grid=t,
                         x_grid=np.array([-1.0, np.nan, 1.0]), values=good,
                         source="bellman")
        with pytest.raises(ValueError, match="<= 0"):
            ValueSurface(spec=spec, t_grid=t, x_grid=x,
                         values=np.where(good == 0.0, np.nan, good),
                         source="bellman")

    def test_serialization(self, boundaries_for, tmp_path):
        bp = boundaries_for(0.0)
        surf = build_value_surface(bp.spec, bp, n_t=4, n_x=5)
        csv_path = tmp_path / "v.csv"
        surf.save_csv(csv_path, manifest_hash="cafe")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# manifest_hash=cafe"
        assert lines[1] == "# source=integral_formula"
        assert lines[2] == "t,x,V"
        assert len(lines) == 3 + 4 * 5


class TestSmoothFit:
    def test_gaps_shrink(self, boundaries_for):
        bp = boundaries_for(0.0)
        report = smooth_fit_diagnostic(bp, t_samples=[0.2, 0.5],
                                       eps_factors=(1e-2, 1e-3))
        assert report.gaps_minus.shape == (2, 2)
        assert report.gaps_plus.shape == (2, 2)
        assert np.all(report.gaps_minus >= 0.0)
        assert report.decreasing_fraction() == 1.0
        assert report.final_gap_max() < report.gaps_plus[:, 0].max()

    def test_report_summaries(self, boundaries_for):
        bp = boundaries_for(0.0)
        report = smooth_fit_diagnostic(bp, t_samples=[0.35],
                                       eps_factors=(1e-2, 1e-3, 1e-4))
        assert 0.0 <= report.decreasing_fraction() <= 1.0
        assert report.final_gap_max() <= 1e-2
