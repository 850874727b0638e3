"""Quadrature for the stopping-kernel and its lag integral.

The kernel

    K(t, x, s, z-, z+) = E[ H(t+s, x + B_s) 1{z- < x + B_s < z+} ]
                       = int_{z-}^{z+} H(t+s, y) phi((y - x - mu s)/sqrt(s)) / sqrt(s) dy

is the building block of the value formula V(t,x) = int_0^{T-t} K ds and of
the boundary equations.  ``lag_integral_batch`` evaluates that lag integral
for a batch of points with a fixed, fully vectorized composite rule.  The
lag endpoints are tamed by the substitutions s = u^2 (near s = 0, where the
transition density concentrates) and T - t - s = v^2 (near the horizon,
where H has a square-root derivative blow-up), restoring smooth integrands.

Inner integrals are computed in the standardized variable
xi = (y - x - mu s)/sqrt(s) so that narrow transition densities at small
lags are always resolved; panels are split at the image of the kink
y = 0, and again where H's dip around it has died out, which near the
horizon is close to the kink.  A call is one serial pass over contiguous
tiles of lag nodes, on the calling thread whatever calls it; parallelism
belongs to the callers that hold independent calls (``value`` rows and
the certificate's times).  Every (point, lag) entry gets the same
arithmetic in whichever tile it lands, so no result depends on the
tiling.  A tile's (point, lag, node) arrays are the thread's own work
arrays (``_shared.Scratch``), reused from tile to tile and call to call
and kept for the life of the thread; ufuncs write into them with
``out=``, so the steady state allocates no tile memory.  Each holds at
most max(2^15, B n_gl) points: 256 KB in a ``value`` row, 64 KB in a
solver call.  On request the same pass also gives the integral's
derivatives in the evaluation point and in the knot values of the window
edges: the boundary solver's exact Jacobian.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _shared
from .closed_forms import ProblemSpec, _gain_H_into, _gain_H_raw

# Standardized tail cutoff: mass beyond is ~1.5e-23, far below the rule's error.
_CLIP = 10.0

# H evaluations per tile on one thread: bounds each (point, lag, node)
# temporary at 256 KB; a ``value`` batch (64 points x 32 nodes) is tiles of
# 16 lags, a solver call (2 points x 128 lags x 32 nodes) one tile.
_TILE_H_POINTS = 2 ** 15

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Each thread's tile arrays, reused from call to call.
_scratch = _shared.Scratch()


@dataclass(frozen=True)
class LagRule:
    """Composite quadrature rule for integrals over the lag s in (0, L]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=32)
def _gauss_unit(n: int):
    """Gauss-Legendre nodes/weights on [0, 1], symmetrized exactly."""
    r, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (r - r[::-1])          # enforce exact +- symmetry
    w = 0.5 * (w + w[::-1])
    return 0.5 * (r + 1.0), 0.5 * w


def lag_rule(L: float, n_nodes: int = 128) -> LagRule:
    """Build the doubly-substituted rule for int_0^L K(s) ds.

    Half the nodes live in u = sqrt(s) on [0, sqrt(L/2)], the other half in
    v = sqrt(L - s) on the upper half; both substitutions carry Jacobian 2u
    (resp. 2v).  Nodes are returned ascending in s and never touch 0 or L.
    """
    if not 0.0 <= L < np.inf:        # NaN included
        raise ValueError(f"lag length must be finite and >= 0, got {L}")
    if (not isinstance(n_nodes, numbers.Integral) or n_nodes < 8
            or n_nodes % 2):
        raise ValueError(
            f"n_nodes must be an even integer >= 8, got {n_nodes!r}")
    if L == 0.0:
        return LagRule(nodes=np.empty(0), weights=np.empty(0))
    r, w = _gauss_unit(n_nodes // 2)
    half = np.sqrt(L / 2.0)
    u = half * r
    s_lo = u * u
    w_lo = 2.0 * u * (half * w)
    v = half * r
    s_hi = L - v * v
    w_hi = 2.0 * v * (half * w)
    order = np.argsort(s_hi)
    return LagRule(nodes=np.concatenate([s_lo, s_hi[order]]),
                   weights=np.concatenate([w_lo, w_hi[order]]))


def lag_integral_batch(spec: ProblemSpec, t: float, xs, z_minus, z_plus,
                       rule: LagRule, n_gl: int = 32, knot_weights=None):
    """Vectorized int_0^{L} K(t, x, s, z-(s), z+(s)) ds for a batch of x.

    Parameters
    ----------
    xs : array (B,)
        Evaluation points.
    z_minus, z_plus : arrays (n_s,) or (B, n_s)
        Window edges at each lag node (optionally per evaluation point).
    rule : LagRule
        Lag nodes/weights from ``lag_rule(T - t, .)``.
    n_gl : int, even
        Gauss-Legendre nodes on each side of the kink, n_gl / 2 per panel.
    knot_weights : array (n_s,), optional
        lambda_s = dz-(s)/dbeta- = dz+(s)/dbeta+: how each window edge
        moves with one knot value beta± of its interpolant.  When given,
        the call returns ``(values, d_x, d_beta)`` instead of ``values``:
        ``d_x`` (B,) holds each value's derivative in its own evaluation
        point, ``d_beta`` (B, 2) its derivatives in beta- and beta+.

    The inner integral per (x, s-node) uses four Gauss-Legendre panels in
    the standardized variable, two on each side of the image of the kink
    y = 0.  The panels next to the kink end where H's dip around it has
    died out, ``_CLIP`` widths sqrt(T - t - s) away, or halfway to the
    window edge if that is nearer: near the horizon the dip is narrow, and
    a panel that spans the whole side leaves it unresolved.  Empty or
    clipped-away windows contribute exactly 0.  Lag nodes are cut into
    tiles of ``max(1, _TILE_H_POINTS // (B n_gl))`` nodes, run one after
    the other on the calling thread; every (x, s-node) entry is reduced
    over the same Gauss-Legendre axis whatever the tile, so the result
    does not depend on the tiling.  The lag sum runs along each point's own
    row, so neither does it depend on the batch width: a point's value is
    the same bit for bit alone or in any batch.

    The derivatives are those of the inner integral in closed form.  In x
    it is int H(center + sqrt(s) xi) xi phi(xi) dxi / sqrt(s), a second
    reduction of the H values the integral itself uses.  In an edge it is
    ±H(t+s, z±(s)) phi(xi±)/sqrt(s) where the edge is not clipped and the
    window not empty, one H value per edge, point and lag node with
    lambda_s != 0.  The values are bit-identical with and without
    ``knot_weights``.
    """
    if not isinstance(n_gl, numbers.Integral) or n_gl < 2 or n_gl % 2:
        raise ValueError(f"n_gl must be an even integer >= 2, got {n_gl!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    with_jacobian = knot_weights is not None
    s = rule.nodes[np.newaxis, :]                      # (1, n_s)
    sq = np.sqrt(s)
    zm = np.asarray(z_minus, dtype=float)
    zp = np.asarray(z_plus, dtype=float)
    center = xs[:, np.newaxis] + spec.mu * s           # (B, n_s)
    a = np.maximum((zm - center) / sq, -_CLIP)
    c = np.minimum((zp - center) / sq, _CLIP)
    c = np.maximum(c, a)
    mid = np.clip(-center / sq, a, c)
    s_rem = spec.T - t - s                             # (1, n_s), > 0 by rule
    # H(t+s, y) dips to -1 at y = 0 over a few sqrt(s_rem); in xi it has
    # died out _CLIP of those widths from the kink
    dip = _CLIP * np.sqrt(s_rem / s)                   # (1, n_s)
    r, w = _gauss_unit(n_gl // 2)
    wr = w * r
    out = np.zeros((xs.size, rule.n))
    moment = np.zeros((xs.size, rule.n)) if with_jacobian else None
    tile = max(1, _TILE_H_POINTS // (xs.size * n_gl))
    for j in range(0, rule.n, tile):
        cols = slice(j, min(j + tile, rule.n))
        shape = (xs.size, cols.stop - cols.start, 2, n_gl // 2)
        xi, y, h, *h_work = (_scratch.array(name, shape) for name
                             in ("xi", "y", "h", "a", "nu", "tmp"))
        mass = _scratch.array("mass", (2,) + shape[:2])  # (panel, B, tile)
        center_t, sq_t, s_rem_t = (v[:, cols, np.newaxis, np.newaxis]
                                   for v in (center, sq, s_rem))
        a_t, mid_t, c_t, dip_t = (v[:, cols] for v in (a, mid, c, dip))
        # each side of the kink is two panels, cut where the dip has died
        # out or halfway, whichever is nearer the kink
        for lo_s, cut, hi_s in (
                (a_t, np.maximum(mid_t - dip_t, 0.5 * (a_t + mid_t)), mid_t),
                (mid_t, np.minimum(mid_t + dip_t, 0.5 * (mid_t + c_t)), c_t)):
            lo = np.stack((lo_s, cut))                 # (panel, B, tile)
            width = np.stack((cut - lo_s, hi_s - cut))
            # xi = lo + width r, y = center + sq xi
            np.add(lo.transpose(1, 2, 0)[..., np.newaxis],
                   np.multiply(width.transpose(1, 2, 0)[..., np.newaxis], r,
                               out=xi), out=xi)
            np.add(center_t, np.multiply(sq_t, xi, out=y), out=y)
            _gain_H_into(spec.mu, s_rem_t, y, h, *h_work)
            phi = y                                    # y is spent
            np.multiply(np.multiply(-0.5, xi, out=phi), xi, out=phi)
            np.multiply(np.exp(phi, out=phi), _INV_SQRT_2PI, out=phi)
            h_phi = np.multiply(h, phi, out=h)
            np.einsum("bspg,g->bsp", h_phi, w, out=mass.transpose(1, 2, 0))
            out[:, cols] += (width * mass).sum(axis=0)
            if with_jacobian:
                # int H xi phi over each panel, xi = lo + width r
                moment[:, cols] += (width * (lo * mass + width * np.einsum(
                    "bspg,g->pbs", h_phi, wr))).sum(axis=0)

    values = (out * rule.weights).sum(axis=1)
    if not with_jacobian:
        return values
    d_x = (moment * (rule.weights / sq[0])).sum(axis=1)
    # edge terms, sides stacked first, on the lag nodes that see the knots
    at = np.flatnonzero(knot_weights)
    a_at, c_at = a[:, at], c[:, at]
    xi_edge = np.stack([a_at, c_at])                   # (2, B, n_at)
    z_edge = np.stack([np.broadcast_to(z, center.shape)[:, at]
                       for z in (zm, zp)])
    free = np.stack([a_at > -_CLIP, c_at < _CLIP]) & (c_at > a_at)
    dens = _gain_H_raw(spec.mu, s_rem[:, at], z_edge) \
        * np.exp(-0.5 * xi_edge * xi_edge) * _INV_SQRT_2PI
    lag_w = rule.weights[at] * np.asarray(knot_weights)[at] / sq[0, at]
    d_beta = np.where(free, dens, 0.0) @ lag_w         # (2, B)
    return values, d_x, np.column_stack([-d_beta[0], d_beta[1]])
