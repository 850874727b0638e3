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
lags are always resolved; panels are split at the image of y = 0.  Wide
batches are evaluated in tiles of lag nodes, so the (point, lag, node)
temporaries stay near a fixed size whatever the batch width.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closed_forms import ProblemSpec, _gain_H_raw

# Standardized tail cutoff: mass beyond is ~1.5e-23, far below the rule's error.
_CLIP = 10.0

# H evaluations per lag tile: bounds each (point, lag, node) temporary at
# 512 KB; a solver call (2 points x 128 lags x 64 nodes) fits in one tile.
_TILE_H_POINTS = 2 ** 16


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
                       rule: LagRule, n_gl: int = 64) -> np.ndarray:
    """Vectorized int_0^{L} K(t, x, s, z-(s), z+(s)) ds for a batch of x.

    Parameters
    ----------
    xs : array (B,)
        Evaluation points.
    z_minus, z_plus : arrays (n_s,) or (B, n_s)
        Window edges at each lag node (optionally per evaluation point).
    rule : LagRule
        Lag nodes/weights from ``lag_rule(T - t, .)``.

    The inner integral per (x, s-node) uses two Gauss-Legendre panels in the
    standardized variable, split at the image of the kink y = 0; empty or
    clipped-away windows contribute exactly 0.  Lag nodes are processed in
    tiles of about ``_TILE_H_POINTS`` H evaluations; every (x, s-node) entry
    is reduced over the same Gauss-Legendre axis whatever the tiling, so the
    result does not depend on the batch width.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if rule.n == 0:
        return np.zeros(xs.shape)
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
    out = np.zeros((xs.size, rule.n))
    tile = max(1, _TILE_H_POINTS // (xs.size * n_gl))
    for j in range(0, rule.n, tile):
        cols = slice(j, j + tile)
        center_t = center[:, cols, np.newaxis]
        sq_t = sq[:, cols, np.newaxis]
        s_rem_t = s_rem[:, cols, np.newaxis]
        for lo, hi in ((a[:, cols], mid[:, cols]), (mid[:, cols], c[:, cols])):
            width = hi - lo                            # (B, tile)
            xi = lo[..., np.newaxis] + width[..., np.newaxis] * r  # (B, tile, n_gl)
            y = center_t + sq_t * xi
            h = _gain_H_raw(spec.mu, s_rem_t, y)
            phi = np.exp(-0.5 * xi * xi) * (1.0 / np.sqrt(2.0 * np.pi))
            out[:, cols] += width * np.einsum("bsg,g->bs", h * phi, w)
    return out @ rule.weights
