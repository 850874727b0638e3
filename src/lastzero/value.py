"""Value function from solved boundaries, V*, and smooth-fit checks.

With boundaries (b-, b+) in hand, the value of the transformed stopping
problem is the lag integral of the kernel over the continuation window,

    V(t, x) = int_0^{T-t} K(t, x, s, b-(t+s), b+(t+s)) ds,

zero on the stopping set D = {x <= b-(t)} u {x >= b+(t)}.  The optimal
expected prediction error is V* = V(0,0) + E g.

A surface's rows are independent lag integrals; ``build_value_surface``
runs them on threads, one per CPU the process may use (the kernel's numpy
and scipy ufuncs release the interpreter lock), and assembles them in grid
order, so the result does not depend on the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .closed_forms import ProblemSpec, mean_g
from .kernel import lag_rule, lag_integral_batch
from .boundaries import BoundaryPair
from ._shared import _available_cpus, write_csv

_SOURCES = ("integral_formula", "bellman")

# Points per kernel call in ``value_row``.
_CHUNK = 64


@dataclass(frozen=True)
class ValueSurface:
    spec: ProblemSpec
    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray          # shape (len(t_grid), len(x_grid))
    source: str

    def __post_init__(self):
        tg = np.asarray(self.t_grid, dtype=float)
        xg = np.asarray(self.x_grid, dtype=float)
        vv = np.asarray(self.values, dtype=float)
        if self.source not in _SOURCES:
            raise ValueError(f"source must be one of {_SOURCES}")
        if tg.ndim != 1 or xg.ndim != 1 or vv.shape != (tg.size, xg.size):
            raise ValueError("values must be (len(t_grid), len(x_grid))")
        if np.any(np.diff(tg) <= 0) or np.any(np.diff(xg) <= 0):
            raise ValueError("grids must be strictly ascending")
        if np.any(vv > 1e-12):
            raise ValueError("V must be <= 0 everywhere")
        for name, arr in (("t_grid", tg), ("x_grid", xg), ("values", vv)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    def save_csv(self, path, manifest_hash: str | None = None) -> None:
        """Long-format dump: one (t, x, V) row per cell."""
        ts = [f"{t:.17g}" for t in self.t_grid]
        xs = [f"{x:.17g}" for x in self.x_grid]
        write_csv(path, ["t", "x", "V"],
                  ((t, x, f"{v:.17g}")
                   for t, row in zip(ts, self.values)
                   for x, v in zip(xs, row)),
                  {"manifest_hash": manifest_hash, "source": self.source})


def value_row(spec: ProblemSpec, bp: BoundaryPair, t: float, xs,
              n_lag: int = 128, clip_stop: bool = True) -> np.ndarray:
    """V(t, x) for an array of x at one time, exact 0 on the stopping set.

    With ``clip_stop=False`` the lag integral is evaluated verbatim even on
    the stopping set (used by diagnostics that difference V across the
    boundary; there the formula's residual matters, not the policy's 0).
    Raises ``ValueError`` if ``spec`` is not ``bp.spec``.
    """
    if spec != bp.spec:
        raise ValueError(f"{spec} does not match the boundaries' {bp.spec}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.zeros(xs.shape)
    if t >= spec.T * (1 - 1e-15):
        return out
    if clip_stop:
        zm_t, zp_t = bp.interpolate(t)
        idx = np.flatnonzero((xs > zm_t) & (xs < zp_t))
    else:
        idx = np.arange(xs.size)
    if idx.size == 0:
        return out
    rule = lag_rule(spec.T - t, n_lag)
    zm, zp = bp.interpolate(t + rule.nodes)
    for lo in range(0, idx.size, _CHUNK):
        sel = idx[lo:lo + _CHUNK]
        out[sel] = lag_integral_batch(spec, t, xs[sel], zm, zp, rule)
    return out


def value_at(spec: ProblemSpec, bp: BoundaryPair, t: float, x: float) -> float:
    """V(t, x) via the boundary-window lag integral (0 on the stopping set)."""
    return float(value_row(spec, bp, t, np.array([x]))[0])


def optimal_value_Vstar(spec: ProblemSpec, bp: BoundaryPair) -> float:
    """V* = V(0, 0) + E g, the optimal expected prediction error."""
    return value_at(spec, bp, 0.0, 0.0) + mean_g(spec)


def default_x_grid(bp: BoundaryPair, n_x: int = 200) -> np.ndarray:
    """Span [b-(0) - 2 sqrt(T), b+(0) + 2 sqrt(T)]: covers D both sides."""
    margin = 2.0 * np.sqrt(bp.spec.T)
    return np.linspace(bp.b_minus[0] - margin, bp.b_plus[0] + margin, n_x)


def build_value_surface(spec: ProblemSpec, bp: BoundaryPair, n_t: int = 100,
                        n_x: int = 200) -> ValueSurface:
    """V on n_t equally spaced times in [0, T] by ``default_x_grid(bp, n_x)``."""
    t_grid = np.linspace(0.0, spec.T, n_t)
    x_grid = default_x_grid(bp, n_x)

    def row(t):
        return value_row(spec, bp, t, x_grid)

    vals = np.zeros((t_grid.size, x_grid.size))
    with ThreadPoolExecutor(max_workers=_available_cpus()) as ex:
        for i, v in enumerate(ex.map(row, t_grid)):
            vals[i] = v
    # quadrature noise must not leak above zero
    vals = np.minimum(vals, 0.0)
    return ValueSurface(spec=spec, t_grid=t_grid, x_grid=x_grid, values=vals,
                        source="integral_formula")


@dataclass(frozen=True)
class SmoothFitReport:
    """One-sided derivative gaps |V_x(inner) - V_x(outer)| at both boundaries.

    gaps_minus/gaps_plus have shape (len(t_samples), len(eps)); the outer
    derivative vanishes identically (V = 0 on D), so each gap is just the
    magnitude of the inner one-sided slope, which smooth fit sends to 0.
    """

    t_samples: np.ndarray
    eps: np.ndarray
    gaps_minus: np.ndarray
    gaps_plus: np.ndarray

    def decreasing_fraction(self) -> float:
        """Fraction of (t, boundary) samples with monotonically shrinking gap."""
        both = np.vstack([self.gaps_minus, self.gaps_plus])
        dec = np.all(np.diff(both, axis=1) <= 0.0, axis=1)
        return float(np.mean(dec))

    def final_gap_max(self) -> float:
        return float(max(self.gaps_minus[:, -1].max(),
                         self.gaps_plus[:, -1].max()))


def smooth_fit_diagnostic(spec: ProblemSpec, bp: BoundaryPair, t_samples,
                          eps_factors=(1e-2, 1e-3, 1e-4)) -> SmoothFitReport:
    """Estimate V_x just inside b±(t) at shrinking offsets eps*sqrt(T).

    The outer one-sided derivative is exactly 0 (V vanishes on the stopping
    set), so the gap at step eps is the inner central-difference slope
    |V(t, b±) - V(t, b± ∓ 2 eps)| / (2 eps), centered one step inside.  Both
    samples come from the raw integral formula (no stopping-set clipping):
    its small residual at the discrete boundary is common to both and
    cancels, instead of being amplified by 1/eps.  Smooth fit sends the
    sequence to 0 as eps shrinks.  The lag rule has 192 nodes, finer than
    the surface's 128.
    """
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if np.any(t_samples <= 0.0) or np.any(t_samples >= spec.T):
        raise ValueError("t_samples must be interior to (0, T)")
    eps = np.asarray(eps_factors, dtype=float) * np.sqrt(spec.T)
    gm = np.empty((t_samples.size, eps.size))
    gp = np.empty((t_samples.size, eps.size))
    ne = eps.size
    for i, t in enumerate(t_samples):
        zm, zp = bp.interpolate(t)
        xs = np.concatenate([[zm, zp], zm + 2.0 * eps, zp - 2.0 * eps])
        v = value_row(spec, bp, t, xs, n_lag=192, clip_stop=False)
        gm[i] = np.abs(v[2:2 + ne] - v[0]) / (2.0 * eps)
        gp[i] = np.abs(v[1] - v[2 + ne:]) / (2.0 * eps)
    return SmoothFitReport(t_samples=t_samples, eps=eps, gaps_minus=gm,
                           gaps_plus=gp)
