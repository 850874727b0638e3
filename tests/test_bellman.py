"""Tests for the trinomial lattice oracle.

The lattice is an independent discretization (no shared quadrature or
root-finding with the integral solver), so its own invariants are checked
here: terminal condition, sign, monotonicity in time, symmetry under zero
drift, mesh-refinement convergence, and frozen values at the default
resolution.  Agreement with the integral solver is the acceptance suite's
criterion; here we only exercise the comparison report machinery.
"""

import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from lastzero import (
    LatticeSpec,
    LatticeTooCoarseError,
    ProblemSpec,
    bellman_solve,
    oracle_compare,
)
from lastzero.bellman import _extract_row

# Frozen values at the default 2000 x 2001 lattice (T = 1).  Derived once
# from this discretization; the integral formula reproduces them to the
# O(3e-4) discretization error, which the acceptance suite verifies.
V00_LATTICE_MU0 = -0.26184857
V00_LATTICE_MU1 = -0.20106903
Z_STAR_LATTICE = 1.108118


def _v_origin(surface):
    i0 = int(np.argmin(np.abs(surface.x_grid)))
    assert abs(surface.x_grid[i0]) < 1e-12
    return float(surface.values[0, i0])


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeSpec(n_t=1)
        with pytest.raises(ValueError):
            LatticeSpec(n_x=0)

    @pytest.mark.parametrize("field", ["n_t", "n_x"])
    def test_non_integer_rejected(self, field):
        for value in (100.5, True):
            with pytest.raises(ValueError, match=field):
                LatticeSpec(**{field: value})
        assert type(getattr(LatticeSpec(**{field: np.int64(100)}),
                            field)) is int

    def test_default_span_covers_drift(self):
        spec = ProblemSpec(mu=2.0, T=4.0)
        assert LatticeSpec().span(spec) == 6.0 * 2.0 + 2.0 * 4.0


class TestBellmanSolve:
    def test_terminal_row_zero(self, bellman_for):
        surf, _ = bellman_for(0.0)
        npt.assert_array_equal(surf.values[-1], np.zeros(surf.x_grid.size))

    def test_values_nonpositive(self, bellman_for):
        surf, _ = bellman_for(0.0)
        assert surf.values.max() <= 0.0
        assert surf.source == "bellman"

    def test_monotone_in_time(self, bellman_for):
        # The gain H(t, x) is nondecreasing in t, so waiting is never
        # cheaper later: V(., x) is nondecreasing along t for every column.
        surf, _ = bellman_for(0.0)
        assert np.min(np.diff(surf.values, axis=0)) >= -1e-14

    def test_zero_drift_symmetry(self, bellman_for):
        surf, pair = bellman_for(0.0)
        npt.assert_allclose(surf.values, surf.values[:, ::-1],
                            atol=1e-13, rtol=0)
        npt.assert_allclose(pair.b_minus, -pair.b_plus, atol=1e-13, rtol=0)

    def test_frozen_origin_values(self, bellman_for):
        surf0, _ = bellman_for(0.0)
        assert abs(_v_origin(surf0) - V00_LATTICE_MU0) <= 1e-6
        surf1, _ = bellman_for(1.0)
        assert abs(_v_origin(surf1) - V00_LATTICE_MU1) <= 1e-6

    def test_frozen_square_root_level(self, z_star_bellman):
        assert abs(z_star_bellman - Z_STAR_LATTICE) <= 1e-4

    def test_boundary_structure(self, bellman_for):
        _, pair = bellman_for(0.0)
        assert pair.b_minus[-1] == 0.0 and pair.b_plus[-1] == 0.0
        assert np.all(np.diff(pair.b_minus) >= 0.0)
        assert np.all(np.diff(pair.b_plus) <= 0.0)
        assert np.all(pair.b_plus[:-1] > 0.0)

    def test_mesh_refinement_converges(self):
        spec = ProblemSpec(mu=0.3, T=1.0)
        vals = {}
        for n in (250, 500, 1000):
            surf, _ = bellman_solve(spec, LatticeSpec(n_t=n, n_x=n + 1))
            vals[n] = _v_origin(surf)
        assert abs(vals[500] - vals[1000]) < abs(vals[250] - vals[500])

    def test_narrow_span_raises(self):
        # a continuation region (c < 0) reaching either end of the x-lattice,
        # as a span too narrow for the boundaries gives, is an error
        x = np.linspace(-1.0, 1.0, 5)
        assert _extract_row(x, np.array([1.0, -1.0, -2.0, -1.0, 1.0])) \
            == (-0.75, 0.75)
        for c_row in ([-1.0, -1.0, -2.0, -1.0, 1.0],
                      [1.0, -1.0, -2.0, -1.0, -0.5]):
            with pytest.raises(LatticeTooCoarseError, match="edge"):
                _extract_row(x, np.array(c_row))

    def test_regression_digest(self):
        # exact values and boundaries of a fixed lattice: any change to
        # the backward sweep moves them
        surface, pair = bellman_solve(ProblemSpec(mu=0.7, T=1.0),
                                      LatticeSpec(n_t=200, n_x=201))
        digests = [hashlib.sha256(a.tobytes()).hexdigest()
                   for a in (surface.values, pair.b_minus, pair.b_plus)]
        assert digests == [
            "901b954dd55d74196af293dc4e2239fc4832d426eb25b9f40c39f52765d8644a",
            "030cf3f35d4cb06a45d015a99d09420921f143f2489ae25364e1f19c11e7c44a",
            "9900f854d8e9c2713b344722aee3346dfc995cdd4214b3464d5fde75f9819c08",
        ]

    def test_drift_flip_mirrors(self):
        lat = LatticeSpec(n_t=400, n_x=401)
        _, bp_pos = bellman_solve(ProblemSpec(mu=0.7, T=1.0), lat)
        _, bp_neg = bellman_solve(ProblemSpec(mu=-0.7, T=1.0), lat)
        npt.assert_allclose(bp_pos.b_plus, -bp_neg.b_minus, atol=1e-12,
                            rtol=0)
        npt.assert_allclose(bp_pos.b_minus, -bp_neg.b_plus, atol=1e-12,
                            rtol=0)


class TestOracleCompare:
    def test_self_distance_zero(self, bellman_for):
        _, pair = bellman_for(0.0)
        report = oracle_compare(pair, pair)
        assert report.sup_norm == 0.0
        assert report.l2_norm == 0.0

    def test_spec_mismatch_raises(self, bellman_for):
        _, pair0 = bellman_for(0.0)
        _, pair1 = bellman_for(1.0)
        with pytest.raises(ValueError):
            oracle_compare(pair0, pair1)

    def test_report_fields(self, bellman_for):
        _, pair = bellman_for(0.0)
        widened = type(pair)(spec=pair.spec, grid=pair.grid,
                             b_minus=1.01 * pair.b_minus,
                             b_plus=1.01 * pair.b_plus)
        report = oracle_compare(pair, widened)
        expected_sup = 0.01 * pair.b_plus[0]
        npt.assert_allclose(report.sup_norm, expected_sup, rtol=1e-10)
        assert 0.0 < report.l2_norm < report.sup_norm
        doc = report.to_json_dict()
        assert set(doc) == {"sup_minus", "sup_plus", "l2_minus", "l2_plus",
                            "sup_norm", "l2_norm"}
