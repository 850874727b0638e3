"""Closed-form scalar machinery for the last-zero prediction problem.

A Brownian motion with drift ``mu`` on the horizon ``[0, T]`` has a last
zero ``g``.  Stopping as close as possible to ``g`` in L1 reduces to a
standard optimal stopping problem whose gain function ``H`` is built from
the law of the running maximum of drifted Brownian motion,

    F(nu)(t, x) = P(max_{s<=t} (nu*s + B_s) <= x)
                = Phi((x - nu t)/sqrt(t)) - exp(2 nu x) Phi((-x - nu t)/sqrt(t)).

Everything downstream (kernel quadrature, boundary solver, lattice oracle,
Monte Carlo) consumes the functions defined here.  All functions are pure
and accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr


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

    def interpolate(self, t):
        """Piecewise-linear values (h_minus(t), h_plus(t))."""
        t = np.asarray(t, dtype=float)
        return (np.interp(t, self.grid, self.h_minus),
                np.interp(t, self.grid, self.h_plus))


def std_normal_cdf(z):
    """Standard normal CDF, accurate to ~1e-16 in both tails."""
    z = np.asarray(z, dtype=float)
    if np.any(~np.isfinite(z)):
        raise ValueError("std_normal_cdf requires finite arguments")
    out = ndtr(z)
    return float(out) if out.ndim == 0 else out


def std_normal_pdf(z):
    """Standard normal density."""
    z = np.asarray(z, dtype=float)
    out = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def _max_cdf_raw(nu, t, x):
    """F(nu)(t, x) without domain checks; nu, t, x broadcastable arrays.

    The product exp(2 nu x) * Phi((-x - nu t)/sqrt(t)) pairs a huge
    exponential with a tiny tail; it is evaluated as exp(2 nu x + logPhi)
    whose exponent is always <= 0 up to log-correction terms.
    """
    rt = np.sqrt(t)
    first = ndtr((x - nu * t) / rt)
    second = np.exp(2.0 * nu * x + log_ndtr((-x - nu * t) / rt))
    return np.clip(first - second, 0.0, 1.0)


def max_cdf(nu, t, x):
    """P(running maximum of drift-``nu`` BM at time t is <= x), t > 0, x >= 0."""
    nu = np.asarray(nu, dtype=float)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("max_cdf requires t > 0")
    if np.any(x < 0.0):
        raise ValueError("max_cdf requires x >= 0")
    out = _max_cdf_raw(nu, t, x)
    return float(out) if out.ndim == 0 else out


def max_cdf_dx(nu, t, x):
    """d/dx of max_cdf: (2/sqrt(t)) phi((x-nu t)/sqrt(t)) - 2 nu e^{2 nu x} Phi((-x-nu t)/sqrt(t)).

    Bounded by 2/sqrt(t) + 2|nu|.
    """
    nu = np.asarray(nu, dtype=float)
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("max_cdf_dx requires t > 0")
    if np.any(x < 0.0):
        raise ValueError("max_cdf_dx requires x >= 0")
    rt = np.sqrt(t)
    out = (2.0 / rt) * std_normal_pdf((x - nu * t) / rt) \
        - 2.0 * nu * np.exp(2.0 * nu * x + log_ndtr((-x - nu * t) / rt))
    return float(out) if out.ndim == 0 else out


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
    """H with s = T - t > 0 precomputed; no domain checks."""
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    nu = -mu * np.sign(x)
    return 2.0 * _max_cdf_raw(nu, s, a) - 1.0


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


def _h_root(spec: ProblemSpec, t: float, side: int) -> float:
    """Root of H(t, .) on the given side of 0 (side = +1 or -1)."""
    s = spec.T - t
    lo = 1e-12 * np.sqrt(spec.T)
    hi = np.sqrt(s)

    def f(a):
        return _gain_H_raw(spec.mu, s, side * a)

    tries = 0
    while f(hi) <= 0.0:
        hi *= 2.0
        tries += 1
        if tries > 200:
            raise RuntimeError(
                f"failed to bracket H root at t={t} (side {side:+d}); "
                "H should reach 1 for large |x|")
    root = brentq(f, lo, hi, xtol=1e-14, rtol=1e-15)
    return side * root


def density_f(spec: ProblemSpec, s, b):
    """Transition density of the drifted motion: N(mu*s, s) evaluated at b."""
    s = np.asarray(s, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("density_f requires s > 0")
    out = np.exp(-0.5 * (b - spec.mu * s) ** 2 / s) / np.sqrt(2.0 * np.pi * s)
    return float(out) if out.ndim == 0 else out


def g_cdf(spec: ProblemSpec, t) -> float:
    """P(last zero <= t), 0 < t < T.

    The conditional probability of no further zero given the state x at
    time t equals (H(t, x) + 1)/2; integrating it against the marginal
    density of the state gives the unconditional law.  The x-integral runs
    over [mu t - 12 sqrt(t), mu t + 12 sqrt(t)], split at 0, with adaptive
    Gauss-Kronrod refinement.
    """
    t = float(t)
    if not 0.0 < t < spec.T:
        raise ValueError("g_cdf requires 0 < t < T")
    from scipy.integrate import quad

    s = spec.T - t

    def integrand(x):
        return 0.5 * (_gain_H_raw(spec.mu, s, x) + 1.0) \
            * np.exp(-0.5 * (x - spec.mu * t) ** 2 / t) / np.sqrt(2.0 * np.pi * t)

    lo = spec.mu * t - 12.0 * np.sqrt(t)
    hi = spec.mu * t + 12.0 * np.sqrt(t)
    total = 0.0
    for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if b > a:
            val, _ = quad(integrand, a, b, epsabs=1e-11, epsrel=1e-11, limit=200)
            total += val
    return float(min(max(total, 0.0), 1.0))


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
