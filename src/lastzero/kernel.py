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

Each inner integral is four Gauss-Legendre panels in y over the window cut
to ten standard deviations of the transition density, split at the kink
y = 0 and again where H's dip around it has died out.  A cut window's
panels are laid out from the density's center, so that its nodes keep
full precision in the standardized variable.  A call's window edges are
one row for all its points: where no entry of a lag is cut, the points
share the lag's nodes y and H values, nearly all of the cost.  A call is
two serial loops over tiles of lag nodes, on the calling thread;
parallelism belongs to the callers that hold independent calls (``value``
rows and the certificate's times).  No result depends on the tiling or on
the batch.  A tile's (point, lag, panel, node) arrays are the thread's own
work arrays (``_shared.Scratch``), reused from tile to tile and call to
call and kept for the life of the thread; ufuncs write into them with
``out=``, so the steady state allocates no tile memory.  Each holds at
most 2^15 points: a call takes a wide batch in runs of 2^15 / (2 n_gl).
On request the same loops also give the integral's derivatives in the
evaluation point and in the knot values of the window edges, with H at
each edge once per side and lag: the boundary solver's exact Jacobian.
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

# Panel nodes per tile on one thread, 2 n_gl per (point, lag) entry: 256 KB
# per work array, 512 points per pass; a 200-point ``value`` row is tiles of
# 2 lags, a solver call (2 points x 128 lags) one tile.
_TILE_H_POINTS = 2 ** 15

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Each thread's tile arrays, reused from call to call.
_scratch = _shared.Scratch()


def _by_side(panels):
    """Sum four panels, each side of the kink first: (p0+p1) + (p2+p3)."""
    return (panels[..., 0] + panels[..., 1]) + (panels[..., 2] + panels[..., 3])


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
    # s_hi falls as v rises: reversed, it ascends
    return LagRule(nodes=np.concatenate([s_lo, s_hi[::-1]]),
                   weights=np.concatenate([w_lo, w_hi[::-1]]))


def _panels(lo, hi, kink, dip):
    """Four panels from the breakpoints lo <= cut- <= mid <= cut+ <= hi,
    where mid is the kink clipped into [lo, hi], as (start, width)
    arrays with the panel on a new last axis.  The cuts lie ``dip`` from
    mid, or halfway to lo or hi if that is nearer."""
    edges = np.empty(lo.shape + (5,))
    start, cut_lo, mid, cut_hi, end = (edges[..., i] for i in range(5))
    np.copyto(start, lo)
    np.copyto(end, hi)
    np.minimum(np.maximum(kink, lo, out=mid), hi, out=mid)
    np.maximum(mid - dip, 0.5 * (lo + mid), out=cut_lo)
    np.minimum(mid + dip, 0.5 * (mid + hi), out=cut_hi)
    return edges[..., :-1], np.subtract(edges[..., 1:], edges[..., :-1])


def _panel_sums(xi, width, h, w, phi, with_jacobian):
    """Each entry's inner integral over its four panels, and with the
    Jacobian its moment int H xi phi dxi: ``(values, moments)`` of shape
    ``xi.shape[:-2]``, moments None without it.

    ``xi`` (B, n, 4, G) holds the standardized variable at each panel's
    Gauss-Legendre nodes, ``width`` (B or 1, n, 4) the panels' widths in
    it and ``h`` (B or 1, n, 4, G) H at the nodes; ``phi``, shaped like
    ``xi``, is a work array, and the moment spends ``xi``.
    """
    np.multiply(xi, xi, out=phi)
    np.exp(np.multiply(-0.5, phi, out=phi), out=phi)
    h_phi = np.multiply(np.multiply(phi, _INV_SQRT_2PI, out=phi), h, out=phi)
    mass = np.einsum("bspg,g->bsp", h_phi, w,
                     out=_scratch.array("mass", xi.shape[:-1]))
    values = _by_side(width * mass)
    if not with_jacobian:
        return values, None
    # int H xi phi over each panel
    return values, _by_side(width * np.einsum(
        "bspg,g->bsp", np.multiply(h_phi, xi, out=xi), w))


def _tiles(columns, tile):
    """The indices of the True entries of ``columns``, ascending, in runs
    of at most ``tile``: a slice where a run is contiguous (a view, not a
    copy), else an index array."""
    idx = np.flatnonzero(columns)
    for j in range(0, idx.size, tile):
        run = idx[j:j + tile]
        yield (slice(run[0], run[-1] + 1)
               if run[-1] - run[0] + 1 == run.size else run)


def lag_integral_batch(spec: ProblemSpec, t: float, xs, z_minus, z_plus,
                       rule: LagRule, n_gl: int = 32, knot_weights=None):
    """Vectorized int_0^{L} K(t, x, s, z-(s), z+(s)) ds for a batch of x.

    Parameters
    ----------
    xs : array (B,)
        Evaluation points, finite; B may be 0.
    z_minus, z_plus : scalars or arrays (n_s,)
        Window edges at each lag node, the same for every point.
    rule : LagRule
        Lag nodes/weights from ``lag_rule(T - t, .)``, all below T - t.
    n_gl : int, even
        Gauss-Legendre nodes on each side of the kink, n_gl / 2 per panel.
    knot_weights : array (n_s,), optional
        lambda_s = dz-(s)/dbeta- = dz+(s)/dbeta+: how each window edge
        moves with one knot value beta± of its interpolant.  When given,
        the call returns ``(values, d_x, d_beta)`` instead of ``values``:
        ``d_x`` (B,) holds each value's derivative in its own evaluation
        point, ``d_beta`` (B, 2) its derivatives in beta- and beta+.

    Each (x, s-node) entry's window is first cut to ``_CLIP`` standard
    deviations of its transition density's center x + mu s.  Its inner
    integral uses four Gauss-Legendre panels in y, from five breakpoints:
    the window edges, the kink y = 0 clipped into the window, and between
    them two cuts where H's dip around the kink has died out, ``_CLIP``
    widths sqrt(T - t - s) from it, or halfway to the window edge if that
    is nearer: near the horizon the dip is narrow, and a panel that spans
    a whole side leaves it unresolved.  The panels are laid out as offsets
    d from an origin: y = 0 for an uncut entry, whose edges stay exactly
    z- and z+, the center for a cut one, whose nodes y = center + d then
    keep xi = d/sqrt(s) to the last bit however far the center lies from
    0.  The entry is (width in d)/sqrt(s) times sum_g w_g H(y_g) phi(xi_g)
    over its panels; empty or cut-away windows contribute exactly 0.  An
    entry's arithmetic depends on its own window alone, and the lag sum
    runs along each point's own row, so a point's value is the same bit
    for bit alone or in any batch.

    A call takes at most ``max(1, _TILE_H_POINTS // (2 n_gl))`` points in
    one pass, and a wider batch in consecutive runs of that many.  A pass
    of B points runs over tiles of at most
    ``max(1, _TILE_H_POINTS // (2 B n_gl))`` lag nodes on the calling
    thread: first the lags with no cut entry, whose window is the edges'
    for every point, so that their nodes and H values are evaluated once
    for the pass and only phi depends on x; then the other lags, with H
    on every point's own nodes.  An entry's arithmetic is the same
    whatever the run or tile, so the result does not depend on the tiling.

    The derivatives are those of the inner integral in closed form.  In x
    it is int H(center + sqrt(s) xi) xi phi(xi) dxi / sqrt(s), a second
    reduction of the H values the integral itself uses.  In an edge it is
    ±H(t+s, z±(s)) phi(xi±)/sqrt(s) where the edge is not clipped and the
    window not empty.  H there is taken once per side and lag node with
    lambda_s != 0 for all points; its product with each point's phi is
    formed in C order, so that ``d_beta``'s lag sum rounds alike in any
    batch.  The values are bit-identical with and without ``knot_weights``.
    """
    if not isinstance(n_gl, numbers.Integral) or n_gl < 2 or n_gl % 2:
        raise ValueError(f"n_gl must be an even integer >= 2, got {n_gl!r}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not np.isfinite(xs).all():
        raise ValueError("xs must be finite")
    if rule.n and not rule.nodes[-1] < spec.T - t:
        raise ValueError(f"rule's lag nodes reach T - t = {spec.T - t:.17g}")
    zm, zp = (np.asarray(z, dtype=float) for z in (z_minus, z_plus))
    if {zm.shape, zp.shape} - {(), rule.nodes.shape}:
        raise ValueError(f"window edges must be scalars or of shape "
                         f"({rule.n},), got {zm.shape} and {zp.shape}")
    zm, zp = (np.broadcast_to(z, rule.nodes.shape) for z in (zm, zp))
    with_jacobian = knot_weights is not None
    run = max(1, _TILE_H_POINTS // (2 * n_gl))
    if xs.size > run:
        parts = [lag_integral_batch(spec, t, xs[j:j + run], zm, zp, rule,
                                    n_gl, knot_weights)
                 for j in range(0, xs.size, run)]
        return (tuple(map(np.concatenate, zip(*parts))) if with_jacobian
                else np.concatenate(parts))
    s = rule.nodes[np.newaxis, :]                      # (1, n_s)
    sq = np.sqrt(s)
    center = xs[:, np.newaxis] + spec.mu * s           # (B, n_s)
    a = np.maximum((zm - center) / sq, -_CLIP)
    c = np.maximum(np.minimum((zp - center) / sq, _CLIP), a)
    s_rem = spec.T - t - s                             # (1, n_s), > 0
    # each entry's window cut to _CLIP sd of its center, as offsets from
    # its origin; an empty window has zero width
    uncut = (a > -_CLIP) & (c < _CLIP)
    origin = np.where(uncut, 0.0, center)
    lo = np.where(a > -_CLIP, zm - origin, -_CLIP * sq)
    hi = np.maximum(np.where(c < _CLIP, zp - origin, _CLIP * sq), lo)
    # H(t+s, y) dips to -1 at y = 0 over a few sqrt(s_rem); it has died out
    # _CLIP of those widths from the kink
    dip = _CLIP * np.sqrt(s_rem)                       # (1, n_s)
    r, w = _gauss_unit(n_gl // 2)
    out = np.empty((xs.size, rule.n))
    moment = np.empty((xs.size, rule.n)) if with_jacobian else None
    tile = max(1, _TILE_H_POINTS // (2 * n_gl * max(xs.size, 1)))

    def integrate(cols, rows):
        """The entries of lags ``cols`` on rows ``rows`` of the windows."""
        o = origin[rows, cols]
        lo_d, width_d = _panels(lo[rows, cols], hi[rows, cols], 0.0 - o,
                                dip[:, cols])
        y, h, *h_work = (_scratch.array(name, lo_d.shape + r.shape)
                         for name in ("y", "h", "a", "nu", "tmp"))
        d = np.add(lo_d[..., np.newaxis],
                   np.multiply(width_d[..., np.newaxis], r, out=y), out=y)
        sq_t = sq[:, cols, np.newaxis]
        rel = (center[:, cols] - o)[..., np.newaxis, np.newaxis]
        xi = np.subtract(d, rel, out=_scratch.array("xi", (xs.size,)
                                                    + d.shape[1:]))
        np.divide(xi, sq_t[..., np.newaxis], out=xi)
        np.add(o[..., np.newaxis, np.newaxis], d, out=y)     # d is spent
        _gain_H_into(spec.mu, s_rem[:, cols, np.newaxis, np.newaxis], y, h,
                     *h_work)
        # phi takes H's first work array, free again
        out[:, cols], m = _panel_sums(xi, width_d / sq_t, h, w,
                                      _scratch.array("a", xi.shape),
                                      with_jacobian)
        if with_jacobian:
            moment[:, cols] = m

    # lags with no cut entry have the window of the edges: one row, shared
    shared = uncut.all(axis=0)
    for lags, rows in ((shared, slice(1)), (~shared, slice(None))):
        for cols in _tiles(lags, tile):
            integrate(cols, rows)

    values = (out * rule.weights).sum(axis=1)
    if not with_jacobian:
        return values
    d_x = (moment * (rule.weights / sq[0])).sum(axis=1)
    # edge terms, sides stacked first, on the lag nodes that see the knots
    at = np.flatnonzero(knot_weights)
    a_at, c_at = a[:, at], c[:, at]
    xi_edge = np.stack([a_at, c_at])                   # (2, B, n_at)
    free_edge = np.stack([a_at > -_CLIP, c_at < _CLIP]) & (c_at > a_at)
    h_edge = _gain_H_raw(spec.mu, s_rem[:, at], np.stack([zm[at], zp[at]]))
    # in C order: broadcast, the product would take the layout of a[:, at],
    # and the row sum below would round differently by batch width
    dens = np.multiply(h_edge[:, np.newaxis], np.exp(-0.5 * xi_edge * xi_edge),
                       order="C") * _INV_SQRT_2PI
    lag_w = rule.weights[at] * np.asarray(knot_weights)[at] / sq[0, at]
    # a row sum, like the lag sums: a matrix product's rounding may depend
    # on the batch width
    d_beta = (np.where(free_edge, dens, 0.0) * lag_w).sum(axis=-1)  # (2, B)
    return values, d_x, np.column_stack([-d_beta[0], d_beta[1]])
