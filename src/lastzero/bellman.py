"""Independent lattice oracle: backward induction on a trinomial chain.

Solves the discrete-time, discrete-space analogue of the stopping problem

    V(t_k, x_i) = min(0,  dt * H(t_k, x_i) + E[V(t_{k+1}, X_{k+1})]),

with V(T, .) = 0, on a uniform lattice.  The one-step transition is a
trinomial jump matched to the exact mean (mu dt) and variance (dt) of the
Brownian increment: a deterministic shift of m0 cells absorbs most of the
drift, and the residual drift delta plus the full variance are carried by a
jump of +-J cells,

    m0 = round(mu dt / dx),  delta = mu dt - m0 dx,
    J  = ceil(sqrt(dt + delta^2) / dx),
    p+- = (q +- delta / (J dx)) / 2,   q = (dt + delta^2) / (J dx)^2.

The stride J enforces the step-width guard (J dx)^2 >= dt + delta^2 so the
probabilities stay in [0, 1] even when the raw lattice has dx < sqrt(dt),
as the default 2000 x 2001 lattice does.  Everything beyond the lattice
edge is treated as stopped (V = 0); the default span puts the edges deep
inside the stopping region, so that choice costs an exponentially small
error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._shared import integer_fields
from .closed_forms import ProblemSpec, _gain_H_raw
from .boundaries import BoundaryPair
from .value import ValueSurface


class LatticeTooCoarseError(RuntimeError):
    """Extraction or transition construction failed at this resolution."""


@dataclass(frozen=True)
class LatticeSpec:
    n_t: int = 2000
    n_x: int = 2001

    def __post_init__(self):
        integer_fields(self, n_t=2, n_x=2)

    def span(self, spec: ProblemSpec) -> float:
        """Half-width of the x-lattice: 6 sqrt(T) + |mu| T."""
        return 6.0 * np.sqrt(spec.T) + abs(spec.mu) * spec.T


def _trinomial(spec: ProblemSpec, dt: float, dx: float):
    """Moment-matched stride trinomial: (m0, J, p_minus, p_zero, p_plus)."""
    m0 = int(round(spec.mu * dt / dx))
    delta = spec.mu * dt - m0 * dx
    J = max(1, int(np.ceil(np.sqrt(dt + delta * delta) / dx)))
    jdx = J * dx
    q = (dt + delta * delta) / (jdx * jdx)
    p_plus = 0.5 * (q + delta / jdx)
    p_minus = 0.5 * (q - delta / jdx)
    p_zero = 1.0 - q
    probs = np.clip([p_minus, p_zero, p_plus], 0.0, 1.0)
    if min(p_minus, p_zero, p_plus) < -1e-12:
        raise LatticeTooCoarseError(
            f"invalid transition probabilities {p_minus:.3e}, {p_zero:.3e}, "
            f"{p_plus:.3e}; refine the lattice")
    return m0, J, probs[0], probs[1], probs[2]


def _shift_expectation(v_next: np.ndarray, m0: int, J: int, pm: float,
                       pz: float, pp: float) -> np.ndarray:
    """E[V(t_{k+1}, x + jump)] with out-of-range values absorbed at 0."""
    n = v_next.size
    pad = abs(m0) + J
    vp = np.zeros(n + 2 * pad)
    vp[pad:pad + n] = v_next
    base = pad + m0
    return (pz * vp[base:base + n]
            + pp * vp[base + J:base + J + n]
            + pm * vp[base - J:base - J + n])


def _extract_row(x: np.ndarray, c_row: np.ndarray):
    """Zero crossings of the continuation value: (b_minus, b_plus)."""
    neg = np.flatnonzero(c_row < 0.0)
    if neg.size == 0:
        raise LatticeTooCoarseError("no continuation cells in a lattice row")
    i_lo, i_hi = neg[0], neg[-1]
    if i_lo == 0 or i_hi == x.size - 1:
        raise LatticeTooCoarseError("continuation region touches the "
                                    "lattice edge")
    dx = x[1] - x[0]
    b_plus = x[i_hi] + dx * c_row[i_hi] / (c_row[i_hi] - c_row[i_hi + 1])
    b_minus = x[i_lo] - dx * c_row[i_lo] / (c_row[i_lo] - c_row[i_lo - 1])
    return b_minus, b_plus


def bellman_solve(spec: ProblemSpec, lat: LatticeSpec = LatticeSpec()):
    """Backward induction; returns (ValueSurface, BoundaryPair).

    Boundaries come from the pre-clamp continuation value of each row: the
    outermost sign changes, refined by linear interpolation to the zero
    crossing.  Raises :class:`LatticeTooCoarseError` if extracted
    boundaries are non-monotone by more than one interpolation cell.
    """
    span = lat.span(spec)
    x = np.linspace(-span, span, lat.n_x)
    dx = x[1] - x[0]
    dt = spec.T / lat.n_t
    t_grid = np.linspace(0.0, spec.T, lat.n_t + 1)
    m0, J, pm, pz, pp = _trinomial(spec, dt, dx)

    values = np.zeros((lat.n_t + 1, lat.n_x))
    bm = np.zeros(lat.n_t + 1)
    bp = np.zeros(lat.n_t + 1)
    for k in range(lat.n_t - 1, -1, -1):
        h_row = _gain_H_raw(spec.mu, spec.T - t_grid[k], x)
        c = dt * h_row + _shift_expectation(values[k + 1], m0, J, pm, pz,
                                            pp)
        bm[k], bp[k] = _extract_row(x, c)
        np.minimum(c, 0.0, out=values[k])

    # monotone up to one interpolation cell, then clamp exactly
    worst = max(float(np.max(np.diff(bp), initial=0.0)),
                float(np.max(-np.diff(bm), initial=0.0)))
    if worst > dx + 1e-12:
        raise LatticeTooCoarseError(
            f"lattice boundaries non-monotone by {worst:.3e} > one cell "
            f"({dx:.3e})")
    bm = np.minimum.accumulate(bm[::-1])[::-1]
    bp = np.maximum.accumulate(bp[::-1])[::-1]

    surface = ValueSurface(spec=spec, t_grid=t_grid, x_grid=x, values=values,
                           source="bellman")
    pair = BoundaryPair(spec=spec, grid=t_grid, b_minus=bm, b_plus=bp)
    return surface, pair


@dataclass(frozen=True)
class OracleCompareReport:
    """Boundary distances on a common grid over [0, 0.95 T]."""

    sup_minus: float
    sup_plus: float
    l2_minus: float
    l2_plus: float

    @property
    def sup_norm(self) -> float:
        return max(self.sup_minus, self.sup_plus)

    @property
    def l2_norm(self) -> float:
        return max(self.l2_minus, self.l2_plus)

    def to_json_dict(self) -> dict:
        return {"sup_minus": self.sup_minus, "sup_plus": self.sup_plus,
                "l2_minus": self.l2_minus, "l2_plus": self.l2_plus,
                "sup_norm": self.sup_norm, "l2_norm": self.l2_norm}


def oracle_compare(bp_integral: BoundaryPair,
                   bp_bellman: BoundaryPair) -> OracleCompareReport:
    """Sup and RMS distances at 2001 times in [0, 0.95 T], last 5% excluded.

    Both discretizations degrade in the final stretch (square-root cusp
    meets grid resolution), so the comparison window stops at 0.95 T.
    """
    sa, sb = bp_integral.spec, bp_bellman.spec
    if sa.mu != sb.mu or sa.T != sb.T:
        raise ValueError(f"spec mismatch: ({sa.mu}, {sa.T}) vs "
                         f"({sb.mu}, {sb.T})")
    t = np.linspace(0.0, 0.95 * sa.T, 2001)
    am, ap = bp_integral.interpolate(t)
    bm, bpl = bp_bellman.interpolate(t)
    dm = np.abs(am - bm)
    dp = np.abs(ap - bpl)
    return OracleCompareReport(
        sup_minus=float(dm.max()), sup_plus=float(dp.max()),
        l2_minus=float(np.sqrt(np.mean(dm ** 2))),
        l2_plus=float(np.sqrt(np.mean(dp ** 2))))
