"""Closed forms of the last-zero prediction problem.

A Brownian motion with drift ``mu`` on the horizon ``[0, T]`` has a last
zero ``g``.  Stopping as close as possible to ``g`` in L1 reduces to a
standard optimal stopping problem whose gain function ``H`` is built from
the law of the running maximum of drifted Brownian motion,

    F(nu)(t, x) = P(max_{s<=t} (nu*s + B_s) <= x)
                = Phi((x - nu t)/sqrt(t)) - exp(2 nu x) Phi((-x - nu t)/sqrt(t)).

This module holds that gain function, its zero-level curves h+-, and the
law of ``g`` itself: its CDF through Owen's T function and its mean, both
exact.  Everything downstream (kernel quadrature, boundary solver, lattice
oracle, Monte Carlo) consumes these; the numerical references that check
them live with the tests.  All functions are pure and accept scalars or
numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr, owens_t


@dataclass(frozen=True)
class ProblemSpec:
    """One problem instance: drift ``mu`` and horizon ``T > 0``."""

    mu: float
    T: float

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError(f"drift mu must be finite, got {self.mu}")
        if not np.isfinite(self.T) or self.T <= 0.0:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if not math.isfinite(float(self.mu) * math.sqrt(self.T)):
            raise ValueError(f"nu = mu*sqrt(T) overflows for mu = {self.mu} "
                             f"and T = {self.T}")


@dataclass(frozen=True)
class HCurvePair:
    """Zero-level curves of the gain function H on a time grid.

    ``h_minus <= 0 <= h_plus`` delimit the region where H < 0; ``h_minus``
    is nondecreasing, ``h_plus`` nonincreasing, and both vanish at t = T.
    """

    grid: np.ndarray
    h_minus: np.ndarray
    h_plus: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        hm = np.asarray(self.h_minus, dtype=float)
        hp = np.asarray(self.h_plus, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "h_minus", hm)
        object.__setattr__(self, "h_plus", hp)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly ascending with >= 2 points")
        if hm.shape != grid.shape or hp.shape != grid.shape:
            raise ValueError("curve arrays must match the grid shape")
        if np.any(hm > 1e-12) or np.any(hp < -1e-12):
            raise ValueError("h_minus must be <= 0 and h_plus >= 0")
        if np.any(np.diff(hm) < -1e-10) or np.any(np.diff(hp) > 1e-10):
            raise ValueError("h_minus must be nondecreasing and h_plus nonincreasing")


def gain_H(spec: ProblemSpec, t, x):
    """Gain function of the reduced stopping problem, values in [-1, 1].

    H(t, x) = 2 P(no zero of the path after t | state x at t) - 1.  For
    x > 0 this is 2 F(-mu)(T-t, x) - 1, for x < 0 it is 2 F(mu)(T-t, -x) - 1,
    and the x -> 0 limit value -1 is returned at x = 0.  Both branches
    collapse to one formula in a = |x|, nu = -mu*sign(x), which also makes
    H(t, x; mu) bit-identical to H(t, -x; -mu).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t >= spec.T) or np.any(t < 0.0):
        raise ValueError("gain_H requires 0 <= t < T")
    out = _gain_H_raw(spec.mu, spec.T - t, x)
    return float(out) if out.ndim == 0 else out


def _gain_H_raw(mu, s, x):
    """H with s = T - t > 0 precomputed; no domain checks.

    H = 2 F(nu)(s, a) - 1 with a = |x| and nu = -mu sign(x).  The product
    exp(2 nu a) * Phi((-a - nu s)/sqrt(s)) in F pairs a huge exponential
    with a tiny tail; it is evaluated as exp(2 nu a + logPhi), whose
    exponent is always <= 0 up to log-correction terms.
    """
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    nu = -mu * np.sign(x)
    rs = np.sqrt(s)
    first = ndtr((a - nu * s) / rs)
    second = np.exp(2.0 * nu * a + log_ndtr((-a - nu * s) / rs))
    return 2.0 * np.clip(first - second, 0.0, 1.0) - 1.0


def h_curves(spec: ProblemSpec, grid) -> HCurvePair:
    """Zero curves of H on a time grid by one vectorized bracketed bisection.

    At every grid point t < T the roots of x -> H(t, x) on each side of 0
    (H(t, 0) = -1, H increases in |x| and tends to 1 at +-inf) are
    bracketed for all nodes and both sides at once, then bisected together
    to a relative width of a few ulps; h_minus(T) = h_plus(T) = 0 by
    continuity.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly ascending with >= 2 points")
    if grid[0] < 0.0 or grid[-1] > spec.T:
        raise ValueError("grid must lie within [0, T]")
    hp = np.zeros_like(grid)
    hm = np.zeros_like(grid)
    inner = grid < spec.T
    s = np.tile(spec.T - grid[inner], 2)
    side = np.repeat([1.0, -1.0], s.size // 2)

    def f(a):
        return _gain_H_raw(spec.mu, s, side * a)

    lo = np.full(s.size, 1e-12 * np.sqrt(spec.T))
    hi = np.sqrt(s)
    for _ in range(200):
        low = f(hi) <= 0.0
        if not low.any():
            break
        lo = np.where(low, hi, lo)
        hi = np.where(low, 2.0 * hi, hi)
    else:
        raise RuntimeError("failed to bracket H roots; H should reach 1 "
                           "for large |x|")
    for _ in range(200):
        if np.all(hi - lo <= 4.0 * np.finfo(float).eps * hi):
            break
        mid = 0.5 * (lo + hi)
        neg = f(mid) <= 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    root = 0.5 * (lo + hi)
    hp[inner] = root[:root.size // 2]
    hm[inner] = -root[root.size // 2:]
    return HCurvePair(grid=grid, h_minus=hm, h_plus=hp)


def g_cdf(spec: ProblemSpec, t):
    """P(last zero <= t) for 0 < t < T, in closed form; vectorized over t.

    With a = mu sqrt(t), b = mu sqrt(T) and rho = sqrt(t/T) the law is

        Phi2(a, b; rho) - Phi2(-a, b; -rho) + Phi2(-a, -b; rho)
            - Phi2(a, -b; -rho).

    Writing each bivariate normal CDF Phi2 with Owen's T function, the Phi
    terms cancel, the constants add up to 1, every T term in b vanishes
    (a - rho b = 0), and the four T terms in a are +-T(+-a, +-q) with
    q = sqrt((T - t)/t).  T is even in its first argument and odd in its
    second, so they add up to -4 T(a, q):

        P(g <= t) = 1 - 4 T(mu sqrt(t), sqrt((T - t)/t)).

    At mu = 0, T(0, q) = arctan(q)/(2 pi) gives the arcsine law
    (2/pi) arcsin sqrt(t/T); the formula needs no branch as mu -> 0.
    Returns a float for scalar t.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((t > 0.0) & (t < spec.T)):
        raise ValueError("g_cdf requires 0 < t < T")
    out = np.clip(1.0 - 4.0 * owens_t(spec.mu * np.sqrt(t),
                                      np.sqrt(spec.T - t) / np.sqrt(t)),
                  0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def mean_g(spec: ProblemSpec) -> float:
    """E g = (1 - exp(-mu^2 T/2)) / mu^2, and T/2 at zero drift.

    Written as T (1 - exp(-nu^2/2)) / nu^2 with nu^2 = mu^2 T and expm1, so
    it stays accurate as nu -> 0; nu^2 below the smallest normal double
    (including mu = 0) returns the limit T/2.
    """
    nu2 = spec.mu * spec.mu * spec.T
    if nu2 < np.finfo(float).tiny:
        return 0.5 * spec.T
    return float(spec.T * -np.expm1(-0.5 * nu2) / nu2)
