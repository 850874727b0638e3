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
lags are always resolved; panels are split at the image of y = 0.  The lag
nodes are cut into contiguous tiles, the items of one fan-out over the
process's thread pool (``_shared.map_in_order``; inline when the call
already runs inside a fan-out): at least one tile per worker, and at most
2^16 H points in flight across all threads whatever the batch width.
Every (point, lag) entry gets the same arithmetic in whichever tile it
lands, so no result depends on the worker count.  A tile's
(point, lag, node) arrays are the thread's own work arrays
(``_shared.Scratch``), reused from tile to tile and call to call and kept
for the life of the thread; ufuncs write into them with ``out=``, so the
steady state allocates no tile memory.  Each holds at most
max(2^16 / workers, B n_gl) points, 256 KB on two workers.  On request the
same pass also gives the integral's derivatives in the evaluation point and
in the knot values of the window edges: the boundary solver's exact
Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _shared
from .closed_forms import ProblemSpec, _gain_H_into, _gain_H_raw

# Standardized tail cutoff: mass beyond is ~1.5e-23, far below the rule's error.
_CLIP = 10.0

# H evaluations in flight across all workers: bounds the (point, lag, node)
# temporaries at 512 KB per array in total; on two workers a solver call
# (2 points x 128 lags x 64 nodes) is two tiles of 64 lags.
_TILE_H_POINTS = 2 ** 16

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Each thread's tile arrays, reused from call to call (see ``run_tile``).
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
    if L < 0.0:
        raise ValueError("lag length must be >= 0")
    if L == 0.0:
        return LagRule(nodes=np.empty(0), weights=np.empty(0))
    n_half = max(n_nodes // 2, 4)
    r, w = _gauss_unit(n_half)
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
                       rule: LagRule, n_gl: int = 64, knot_weights=None):
    """Vectorized int_0^{L} K(t, x, s, z-(s), z+(s)) ds for a batch of x.

    Parameters
    ----------
    xs : array (B,)
        Evaluation points.
    z_minus, z_plus : arrays (n_s,) or (B, n_s)
        Window edges at each lag node (optionally per evaluation point).
    rule : LagRule
        Lag nodes/weights from ``lag_rule(T - t, .)``.
    knot_weights : array (n_s,), optional
        lambda_s = dz-(s)/dbeta- = dz+(s)/dbeta+: how each window edge
        moves with one knot value beta± of its interpolant.  When given,
        the call returns ``(values, d_x, d_beta)`` instead of ``values``:
        ``d_x`` (B,) holds each value's derivative in its own evaluation
        point, ``d_beta`` (B, 2) its derivatives in beta- and beta+.

    The inner integral per (x, s-node) uses two Gauss-Legendre panels in the
    standardized variable, split at the image of the kink y = 0; empty or
    clipped-away windows contribute exactly 0.  Lag nodes are cut into
    tiles of at most ``ceil(n_s / workers)`` nodes and at most
    ``_TILE_H_POINTS / workers`` H evaluations, one pool item each; every
    (x, s-node) entry is reduced over the same Gauss-Legendre axis whatever
    the tile, so the result does not depend on the worker count.  The lag sum
    ``out @ rule.weights`` is a BLAS product whose rounding can change with
    the batch width, which is why ``value_row`` fixes its batch.

    The derivatives are those of the inner integral in closed form.  In x
    it is int H(center + sqrt(s) xi) xi phi(xi) dxi / sqrt(s), a second
    reduction of the H values the integral itself uses.  In an edge it is
    ±H(t+s, z±(s)) phi(xi±)/sqrt(s) where the edge is not clipped and the
    window not empty, one H value per edge, point and lag node with
    lambda_s != 0.  The values are bit-identical with and without
    ``knot_weights``.
    """
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
    r, w = _gauss_unit(n_gl)
    wr = w * r
    out = np.zeros((xs.size, rule.n))
    moment = np.zeros((xs.size, rule.n)) if with_jacobian else None
    n_workers = _shared.workers()
    tile = max(1, min(-(-rule.n // n_workers),
                      _TILE_H_POINTS // (n_workers * xs.size * n_gl)))

    def run_tile(j):
        cols = slice(j, min(j + tile, rule.n))
        shape = (xs.size, cols.stop - cols.start, n_gl)
        xi, y, h, *h_work = (_scratch.array(name, shape) for name
                             in ("xi", "y", "h", "a", "nu", "tmp"))
        mass = _scratch.array("mass", shape[:2])
        center_t = center[:, cols, np.newaxis]
        sq_t = sq[:, cols, np.newaxis]
        s_rem_t = s_rem[:, cols, np.newaxis]
        for lo, hi in ((a[:, cols], mid[:, cols]),
                       (mid[:, cols], c[:, cols])):
            width = hi - lo                            # (B, tile)
            # xi = lo + width r, y = center + sq xi
            np.add(lo[..., np.newaxis],
                   np.multiply(width[..., np.newaxis], r, out=xi), out=xi)
            np.add(center_t, np.multiply(sq_t, xi, out=y), out=y)
            _gain_H_into(spec.mu, s_rem_t, y, h, *h_work)
            phi = y                                    # y is spent
            np.multiply(np.multiply(-0.5, xi, out=phi), xi, out=phi)
            np.multiply(np.exp(phi, out=phi), _INV_SQRT_2PI, out=phi)
            h_phi = np.multiply(h, phi, out=h)
            np.einsum("bsg,g->bs", h_phi, w, out=mass)
            out[:, cols] += width * mass
            if with_jacobian:
                # int H xi phi over the panel, xi = lo + width r
                moment[:, cols] += width * (
                    lo * mass + width * np.einsum("bsg,g->bs", h_phi, wr))

    _shared.map_in_order(run_tile, range(0, rule.n, tile))
    values = out @ rule.weights
    if not with_jacobian:
        return values
    d_x = moment @ (rule.weights / sq[0])
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
