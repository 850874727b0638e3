"""Closed forms: running-max law, gain function, H-zero curves, law of g."""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtr

from lastzero.closed_forms import (ProblemSpec, HCurvePair, _gain_H_raw,
                                   gain_H, h_curves, g_cdf, mean_g)
from oracles import (g_cdf_bvn, g_cdf_quad, gain_H_reference, h_root,
                     mean_g_quad)

# high-precision references (40-digit arbitrary-precision evaluation;
# regeneration: tests/oracles.py)
PHI_1 = 0.8413447460685429485852325456320379224779
PHI_INV_075 = 0.6744897501960817432022270145413071853869
# F^(1)(1, 1) = Phi(0) - e^2 Phi(-2), evaluated in 40-digit arithmetic
F_1_1_1 = 0.331897998776829393572850885970916301624

# Monte Carlo oracles, frozen from tests/oracles.py runs:
#   mc_running_max_cdf(nu=1, t=1, x=1): n=1e6 exact bridge-max samples
#   mc_last_zero_law(mu=1, T=1, t=0.5): n=1e6 paths, 4000 steps
MC_MAX_CDF, MC_MAX_CDF_SE = 0.332332, 4.71e-4        # seed 20240817
MC_G_CDF_HALF, MC_G_CDF_SE = 0.636038, 4.81e-4       # seed 20240818
MC_MEAN_G, MC_MEAN_G_SE = 0.392917, 3.40e-4          # seed 20240818


class TestProblemSpec:
    def test_valid(self):
        spec = ProblemSpec(mu=-1.5, T=2.0)
        assert spec.mu == -1.5 and spec.T == 2.0

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_bad_horizon(self, T):
        with pytest.raises(ValueError):
            ProblemSpec(mu=0.0, T=T)

    def test_bad_drift(self):
        with pytest.raises(ValueError):
            ProblemSpec(mu=np.nan, T=1.0)


class TestNormalCdf:
    # the gain function H is built on scipy's ndtr
    def test_reference_value(self):
        assert abs(ndtr(1.0) - PHI_1) < 1e-15

    def test_complement_identity(self):
        z = np.random.default_rng(42).uniform(-8.0, 8.0, 10_000)
        err = np.abs(ndtr(z) + ndtr(-z) - 1.0)
        assert err.max() <= 1e-14


def max_cdf(nu, t, x):
    """F(nu)(t, x) read off the gain function: for x >= 0, H at time 0 on
    the horizon t with drift -nu is 2 F(nu)(t, x) - 1."""
    return (gain_H(ProblemSpec(mu=-nu, T=t), 0.0, x) + 1.0) / 2.0


class TestMaxCdf:
    """The running-maximum law inside H, checked through H itself."""

    def test_zero_drift_reflection(self):
        # mu=0: P(max <= x) = 2 Phi(x / sqrt(t)) - 1
        t, x = 0.7, 0.9
        want = 2.0 * ndtr(x / np.sqrt(t)) - 1.0
        assert abs(max_cdf(0.0, t, x) - want) < 1e-14

    def test_analytic_value(self):
        assert abs(max_cdf(1.0, 1.0, 1.0) - F_1_1_1) < 1e-14

    def test_mc_oracle(self):
        assert abs(max_cdf(1.0, 1.0, 1.0) - MC_MAX_CDF) <= 3.0 * MC_MAX_CDF_SE

    def test_zero_level_has_zero_mass(self):
        # The running maximum of a BM started at 0 is >= 0 a.s. and has no
        # atom at 0 for t > 0, so F(t, 0) = 0 for every drift (H(t, 0) = -1).
        assert max_cdf(0.3, 1.0, 0.0) == 0.0
        assert max_cdf(-2.0, 0.5, 0.0) == 0.0
        assert max_cdf(0.0, 2.0, 0.0) == 0.0

    def test_range_and_monotone_in_x(self):
        x = np.linspace(0.0, 6.0, 200)
        f = max_cdf(-0.8, 2.0, x)
        assert np.all((0.0 <= f) & (f <= 1.0))
        assert np.all(np.diff(f) >= -1e-15)

    def test_extreme_drift_product_stable(self):
        # e^{2 mu x} Phi(-(x + mu t)/sqrt t) multiplies a huge exponential
        # by a tiny tail; the log-branch keeps it finite and in [0, 1]
        f = max_cdf(40.0, 1.0, 3.0)
        assert 0.0 <= f <= 1.0 and np.isfinite(f)

    def test_domain_errors(self):
        # F needs a horizon t > 0: H rejects times at or past T and before 0
        spec = ProblemSpec(mu=0.0, T=1.0)
        for t in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                gain_H(spec, t, 1.0)


class TestGainH:
    def setup_method(self):
        self.spec = ProblemSpec(mu=1.0, T=1.0)

    def test_at_origin(self):
        assert gain_H(self.spec, 0.5, 0.0) == -1.0

    def test_bounded(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(0.0, 1.0 - 1e-9, 2000)
        x = rng.standard_normal(2000) * 2.0
        h = gain_H(self.spec, t, x)
        assert np.all(np.abs(h) <= 1.0)

    def test_monotone_in_t(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(500) * 1.5
        t1 = rng.uniform(0.0, 0.5, 500)
        t2 = t1 + rng.uniform(0.0, 0.45, 500)
        h1 = gain_H(self.spec, t1, x)
        h2 = gain_H(self.spec, t2, x)
        assert np.all(h2 - h1 >= -1e-13)

    def test_far_field_limits(self):
        # far from zero there is no later zero: H -> +1
        assert gain_H(self.spec, 0.9, 8.0) > 0.999
        assert gain_H(self.spec, 0.9, -8.0) > 0.999

    def test_drift_flip_symmetry_exact(self):
        spec_m = ProblemSpec(mu=-1.0, T=1.0)
        rng = np.random.default_rng(7)
        t = rng.uniform(0.0, 1.0 - 1e-6, 1000)
        x = rng.standard_normal(1000)
        a = gain_H(self.spec, t, x)
        b = gain_H(spec_m, t, -x)
        # same arithmetic path on both sides: bitwise equality
        npt.assert_array_equal(a, b)

    def test_domain(self):
        with pytest.raises(ValueError):
            gain_H(self.spec, 1.0, 0.5)

    @pytest.mark.parametrize("t", [np.nan, [0.2, np.nan]])
    def test_nan_time_raises(self, t):
        # NaN compares false, so a check for bad t let it through as nan
        with pytest.raises(ValueError, match="0 <= t < T"):
            gain_H(self.spec, t, 0.3)

    @pytest.mark.parametrize("mu", [0.0, 2.6, -2.6, 50.0, -50.0])
    def test_equals_frozen_expressions(self, mu):
        # H is written into work arrays; its bits must be those of the plain
        # expressions, on a full grid and on the scalar-array broadcasts of
        # gain_H, h_curves and the lattice
        xs = np.array([0.0, 1e-300, -1e-300, 40.0, -40.0, 0.3, -1.7])
        ss = np.array([1e-12, 4.0, 0.37])
        s_grid, x_grid = np.meshgrid(ss, xs, indexing="ij")
        cases = [(s_grid, x_grid), (ss[:, np.newaxis], xs), (ss, 40.0),
                 (np.float64(4.0), xs), *((s, x) for s in ss for x in xs)]
        for s, x in cases:
            got = _gain_H_raw(mu, s, x)
            want = gain_H_reference(mu, s, x)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        spec = ProblemSpec(mu=mu, T=4.0)
        assert gain_H(spec, 3.0, -40.0) == gain_H_reference(mu, 1.0, -40.0)
        assert np.array_equal(gain_H(spec, np.array([0.0, 3.0]), xs[:2, None]),
                              gain_H_reference(mu, np.array([4.0, 1.0]),
                                               xs[:2, None]))

    @pytest.mark.parametrize("mu", [0.0, 2.6, -2.6])
    def test_equals_frozen_expressions_at_nan_inf_and_zero(self, mu):
        # H clips with maximum and minimum, the reference with np.clip:
        # NaN, infinite and zero x and s give the same bits, NaN's too
        xs = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308])
        seen = []
        with np.errstate(all="ignore"):
            for s in (0.0, 1e-12, 4.0, np.inf):
                got = _gain_H_raw(mu, s, xs)
                want = gain_H_reference(mu, s, xs)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                seen += got.tolist()
        assert np.isnan(seen).any() and {-1.0, 1.0} <= set(seen)


class TestHCurves:
    def test_zero_drift_closed_form(self):
        spec = ProblemSpec(mu=0.0, T=1.0)
        t = np.array([0.0, 0.19, 0.5, 0.84])
        hc = h_curves(spec, t)
        want = PHI_INV_075 * np.sqrt(1.0 - t)
        npt.assert_allclose(hc.h_plus, want, atol=1e-12)
        npt.assert_allclose(hc.h_minus, -want, atol=1e-12)

    def test_h_is_zero_level_of_gain(self):
        spec = ProblemSpec(mu=0.8, T=2.0)
        t = np.linspace(0.0, 1.9, 9)
        hc = h_curves(spec, t)
        for ti, hp, hm in zip(t, hc.h_plus, hc.h_minus):
            assert abs(gain_H(spec, ti, hp)) < 1e-10
            assert abs(gain_H(spec, ti, hm)) < 1e-10
            assert hm < 0.0 < hp

    @pytest.mark.parametrize("mu, T", [(0.0, 1.0), (0.8, 2.0),
                                       (-1.5, 0.25), (2.0, 4.0)])
    def test_matches_scalar_root(self, mu, T):
        # the vectorized bisection agrees with the scalar Brent polish
        spec = ProblemSpec(mu=mu, T=T)
        grid = T * (1.0 - np.linspace(1.0, 0.0, 41) ** 2)
        hc = h_curves(spec, grid)
        want_p = [h_root(spec, t, +1) for t in grid[:-1]] + [0.0]
        want_m = [h_root(spec, t, -1) for t in grid[:-1]] + [0.0]
        npt.assert_allclose(hc.h_plus, want_p, atol=1e-12, rtol=0)
        npt.assert_allclose(hc.h_minus, want_m, atol=1e-12, rtol=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HCurvePair(grid=np.array([0.0, 0.5]),
                       h_minus=np.array([-1.0, -0.5]),
                       h_plus=np.array([-0.1, 0.5]))  # h_plus sign broken

    def test_nan_grid_raises(self):
        # a NaN knot gave h_plus = [0.388, 0, 0] without complaint
        spec = ProblemSpec(mu=0.0, T=1.0)
        with pytest.raises(ValueError, match="ascending"):
            h_curves(spec, [0.0, np.nan, 1.0])
        with pytest.raises(ValueError, match="ascending"):
            HCurvePair(grid=np.array([0.0, np.nan, 1.0]),
                       h_minus=np.zeros(3), h_plus=np.zeros(3))
        with pytest.raises(ValueError, match="h_plus >= 0"):
            HCurvePair(grid=np.array([0.0, 1.0]),
                       h_minus=np.zeros(2), h_plus=np.array([np.nan, 0.0]))


class TestLawOfG:
    def test_cdf_monotone_and_range(self):
        spec = ProblemSpec(mu=1.0, T=1.0)
        t = np.linspace(0.02, 0.98, 25)
        c = np.array([g_cdf(spec, ti) for ti in t])
        assert np.all(np.diff(c) >= -1e-12)
        assert np.all((0.0 <= c) & (c <= 1.0))

    def test_zero_drift_arcsine(self):
        spec = ProblemSpec(mu=0.0, T=1.0)
        for t in (0.1, 0.5, 0.9):
            want = (2.0 / np.pi) * np.arcsin(np.sqrt(t))
            assert abs(g_cdf(spec, t) - want) < 1e-9

    @pytest.mark.parametrize("mu", [-2.0, -0.5, -1e-3, 1e-3, 0.3, 1.0, 3.0])
    def test_cdf_matches_quadrature(self, mu):
        # the closed form against the quadrature of (H + 1)/2 over the state
        for T in (0.5, 1.0, 4.0):
            spec = ProblemSpec(mu=mu, T=T)
            for r in np.concatenate([np.linspace(0.01, 0.99, 15), [0.999]]):
                assert abs(g_cdf(spec, r * T) - g_cdf_quad(spec, r * T)) \
                    <= 1e-12

    @pytest.mark.parametrize("mu,T", [(1.0, 1.0), (-0.5, 4.0), (3.0, 0.5),
                                      (1e-3, 1.0)])
    def test_cdf_is_four_term_bivariate_normal(self, mu, T):
        # one Owen's T value equals the four-Phi2 formula it collapses from
        spec = ProblemSpec(mu=mu, T=T)
        for r in np.linspace(0.01, 0.999, 25):
            assert abs(g_cdf(spec, r * T) - g_cdf_bvn(spec, r * T)) <= 1e-14

    @pytest.mark.parametrize("mu", [1e-300, 1e-160, 1e-154, 1e-20])
    @pytest.mark.parametrize("T", [1e-4, 1.0, 100.0])
    def test_cdf_near_zero_drift(self, mu, T):
        # the arcsine law, without 0/0 or overflow, however small mu^2 T
        r = np.linspace(0.001, 0.999, 101)
        want = (2.0 / np.pi) * np.arcsin(np.sqrt(r))
        with np.errstate(invalid="raise", divide="raise"):
            for m in (mu, -mu):
                got = g_cdf(ProblemSpec(mu=m, T=T), r * T)
                assert np.max(np.abs(got - want)) <= 1e-14

    def test_cdf_array_equals_scalar(self):
        spec = ProblemSpec(mu=-0.7, T=2.0)
        t = np.linspace(0.01, 1.99, 40)
        got = g_cdf(spec, t)
        assert isinstance(g_cdf(spec, 0.5), float)
        npt.assert_array_equal(got, [g_cdf(spec, ti) for ti in t])

    def test_cdf_mc_oracle(self):
        spec = ProblemSpec(mu=1.0, T=1.0)
        got = g_cdf(spec, 0.5)
        assert abs(got - MC_G_CDF_HALF) <= 3.0 * MC_G_CDF_SE

    def test_mean_mc_oracle(self):
        spec = ProblemSpec(mu=1.0, T=1.0)
        assert abs(mean_g(spec) - MC_MEAN_G) <= 3.0 * MC_MEAN_G_SE

    @pytest.mark.parametrize("T", [0.5, 1.0, 4.0])
    def test_zero_drift_mean(self, T):
        spec = ProblemSpec(mu=0.0, T=T)
        assert abs(mean_g(spec) - T / 2.0) < 1e-8

    @pytest.mark.parametrize("mu,T", [(1.0, 1.0), (2.0, 1.0), (0.5, 2.0),
                                      (-1.0, 4.0), (0.0, 2.0), (1e-6, 1.0),
                                      (-5e-7, 4.0), (20.0, 1.0),
                                      (-10.0, 4.0)])
    def test_mean_closed_form(self, mu, T):
        # the closed-form mean against the quadrature of the closed-form
        # law, two independent closed forms; the frozen MC oracle above
        # confirms both at (mu, T) = (1, 1)
        spec = ProblemSpec(mu=mu, T=T)
        assert abs(mean_g(spec) - mean_g_quad(spec)) <= 1e-9 * T

    @pytest.mark.parametrize("mu", [1e-300, 1e-160, 1e-154, 1e-20, 1e-9])
    @pytest.mark.parametrize("T", [1e-4, 1.0, 100.0])
    def test_mean_near_zero_drift(self, mu, T):
        # mu^2 T underflows or is subnormal for the smallest drifts: the
        # limit T/2 must come out, never 0/0
        with np.errstate(invalid="raise", divide="raise"):
            for m in (mu, -mu):
                val = mean_g(ProblemSpec(mu=m, T=T))
                assert abs(val - 0.5 * T) <= 1e-12 * T

    def test_mean_in_range(self):
        spec = ProblemSpec(mu=-0.7, T=3.0)
        assert 0.0 < mean_g(spec) < 3.0

    def test_cdf_domain(self):
        spec = ProblemSpec(mu=0.0, T=1.0)
        for bad in (0.0, 1.0, -0.2, 1.3, np.nan, [0.5, 1.0]):
            with pytest.raises(ValueError):
                g_cdf(spec, bad)
