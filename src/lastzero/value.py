"""Value function from solved boundaries and V*.

With boundaries (b-, b+) in hand, the value of the transformed stopping
problem is the lag integral of the kernel over the continuation window,

    V(t, x) = int_0^{T-t} K(t, x, s, b-(t+s), b+(t+s)) ds,

zero on the stopping set D = {x <= b-(t)} u {x >= b+(t)}, evaluated with
128 lag nodes and 32 Gauss-Legendre nodes on each side of H's kink.  The
optimal expected error is V* = V(0,0) + E g.  Smooth fit (V_x continuous across b±) is a
property the tests check, with their own finer raw evaluation.

A surface's rows are independent lag integrals; ``build_value_surface``
fans them out over the process's one thread pool (``_shared.map_in_order``;
the kernel's numpy and scipy ufuncs release the interpreter lock), each row
one kernel call over its inside points on the thread that runs it, and
assembles them in grid order, so the result does not depend on the worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import ProblemSpec
from .kernel import lag_rule, lag_integral_batch
from .boundaries import BoundaryPair
from ._shared import map_in_order, write_csv

_SOURCES = ("integral_formula", "bellman")


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
        if not (np.all(np.diff(tg) > 0) and np.all(np.diff(xg) > 0)):
            raise ValueError("grids must be strictly ascending")
        if not np.all(vv <= 1e-12):
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


def value_row(spec: ProblemSpec, bp: BoundaryPair, t: float, xs) -> np.ndarray:
    """V(t, x) for an array of x at one time, exact 0 on the stopping set.

    Raises ``ValueError`` if ``spec`` is not ``bp.spec``, t lies outside
    [0, T] or an x is NaN (x = +-inf lies in the stopping set).
    """
    if spec != bp.spec:
        raise ValueError(f"{spec} does not match the boundaries' {bp.spec}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if np.isnan(xs).any():
        raise ValueError("value_row requires x that are not NaN")
    out = np.zeros(xs.shape)
    zm_t, zp_t = bp.interpolate(t)          # raises for t outside [0, T]
    if t >= spec.T * (1 - 1e-15):
        return out
    idx = np.flatnonzero((xs > zm_t) & (xs < zp_t))
    if idx.size:
        rule = lag_rule(spec.T - t)
        zm, zp = bp.interpolate(t + rule.nodes)
        out[idx] = lag_integral_batch(spec, t, xs[idx], zm, zp, rule)
    return out


def value_at(spec: ProblemSpec, bp: BoundaryPair, t: float, x: float) -> float:
    """V(t, x) via the boundary-window lag integral (0 on the stopping set),
    bit for bit the same x's entry in any ``value_row`` call."""
    return float(value_row(spec, bp, t, np.array([x]))[0])


def default_x_grid(bp: BoundaryPair, n_x: int = 200) -> np.ndarray:
    """Span [b-(0) - 2 sqrt(T), b+(0) + 2 sqrt(T)]: covers D both sides."""
    margin = 2.0 * np.sqrt(bp.spec.T)
    return np.linspace(bp.b_minus[0] - margin, bp.b_plus[0] + margin, n_x)


def build_value_surface(spec: ProblemSpec, bp: BoundaryPair, n_t: int = 100,
                        n_x: int = 200) -> ValueSurface:
    """V on n_t equally spaced times in [0, T] by ``default_x_grid(bp, n_x)``."""
    t_grid = np.linspace(0.0, spec.T, n_t)
    x_grid = default_x_grid(bp, n_x)

    rows = map_in_order(lambda t: value_row(spec, bp, t, x_grid), t_grid)
    # quadrature noise must not leak above zero
    vals = np.minimum(np.stack(rows), 0.0)
    return ValueSurface(spec=spec, t_grid=t_grid, x_grid=x_grid, values=vals,
                        source="integral_formula")
