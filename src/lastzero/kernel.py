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
share the lag's nodes y and H values, nearly all of the cost.  A caller
whose calls move the windows at a few lags only (the boundary solver's
Newton iterations) may keep a ``memo`` across them.  It holds each shared
lag's panel offsets, widths and H values with the inputs they are a pure
function of: (mu, n_gl, the rule's size) and, per lag, T - t - s, z- and
z+.  A later call reuses a lag only where those inputs are bitwise the
same and no entry is cut, so every output is the same bits with or
without it.  A call is at most three serial loops over tiles of lag
nodes, on the calling thread; parallelism belongs to the callers that
hold independent calls (``value`` rows and the certificate's times).  No
result depends on the tiling, on the batch or on a memo.  Each thread
keeps one work buffer of 6 x 2^15 floats (``_shared.Scratch``) for its
life, and every tile carves the (point, lag, panel, node) arrays
its loop holds out of it; ufuncs write into them with ``out=``, so the
steady state allocates no tile memory.  A loop takes as many lags per
tile as the buffer holds of what it keeps per lag, so the loop that
evaluates H on one shared row runs in tiles several times longer than
the one that evaluates it on every point's row; a call takes a wide
batch in runs of 2^15 / (2 n_gl) points.
On request the same loops also give the integral's derivatives in the
evaluation point and in the knot values of the window edges, with H at
each edge once per side and lag: the boundary solver's exact Jacobian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _shared
from .closed_forms import ProblemSpec, _gain_H_into, _gain_H_raw

# Standardized tail cutoff: mass beyond is ~1.5e-23, far below the rule's error.
_CLIP = 10.0

# Floats in each thread's one work buffer, 1.5 MB, out of which every tile
# carves the arrays its loop holds (``_floats_per_lag``).  Where H runs on
# every point's row, those are six arrays of 2 n_gl nodes per (point, lag)
# entry: 512 points per pass, and a 200-point ``value`` row in tiles of 2
# lags.  Its shared row holds one such array of every point's row beside
# one-row arrays: tiles of 54 lags for 48 points without the Jacobian.  A
# solver call (2 points x 128 lags) is one tile in each loop.
_WORK_FLOATS = 6 * 2 ** 15

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Each thread's work buffer, reused from call to call.
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
    """Read-only Gauss-Legendre nodes/weights on [0, 1], exactly symmetric."""
    r, w = np.polynomial.legendre.leggauss(n)
    r = 0.5 * (r - r[::-1])          # enforce exact +- symmetry
    w = 0.5 * (w + w[::-1])
    nodes, weights = 0.5 * (r + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    s = u * u
    wt = 2.0 * u * (half * w)
    # the upper half mirrors the lower (v = u), and reversed it ascends
    return LagRule(nodes=np.concatenate([s, (L - s)[::-1]]),
                   weights=np.concatenate([wt, wt[::-1]]))


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


def _floats_per_lag(points, h_rows, n_gl, with_jacobian):
    """Floats of work memory a tile holds per lag node (``_tile_arrays``):
    xi on every point's row and H's five arrays on ``h_rows`` rows, 2 n_gl
    nodes each; where H's arrays have fewer rows than there are points,
    also ``mass`` and, with the Jacobian, ``phi``."""
    if h_rows == points:
        return 2 * n_gl * 6 * points
    phi_rows = points if with_jacobian else 0
    return 2 * n_gl * (points + 5 * h_rows + phi_rows) + 4 * points


def _tile_arrays(lags, points, h_rows, n_gl, with_jacobian):
    """A tile's work arrays, carved back to back from the start of the
    calling thread's one buffer, by name.

    ``xi`` (points, lags, 4, n_gl/2) holds the standardized variable at
    the nodes.  H's nodes ``y``, its values ``h`` and its three work
    arrays ``a``, ``nu`` and ``tmp`` have ``h_rows`` rows: every point's,
    one shared by all points, or none where H is recalled.  ``phi``,
    shaped like xi, is xi itself without the Jacobian, whose sums need
    no xi after phi.  Where H's arrays have every point's row, phi (with
    the Jacobian) and ``mass`` (points, lags, 4) take its work arrays,
    free once H is done; else they have their own.
    """
    node = (lags, 4, n_gl // 2)
    # the whole budget at once, its pages touched only as tiles use them:
    # grown tile by tile, the freed smaller buffers left about 1 MB more
    # peak RSS in ``value``
    buf = _scratch.array("work", (max(_WORK_FLOATS, lags * _floats_per_lag(
        points, h_rows, n_gl, with_jacobian)),))
    start = 0

    def take(shape):
        nonlocal start
        view = buf[start:start + math.prod(shape)].reshape(shape)
        start += view.size
        return view

    arrays = {name: take((rows,) + node) for name, rows in (
        ("xi", points), ("y", h_rows), ("h", h_rows), ("a", h_rows),
        ("nu", h_rows), ("tmp", h_rows))}
    if h_rows == points:
        # H's work arrays, free once H is done
        phi = arrays["a"]
        mass = arrays["nu"].reshape(-1)[:points * lags * 4]
    else:
        phi = take((points,) + node) if with_jacobian else None
        mass = take((points, lags, 4))
    arrays["phi"] = phi if with_jacobian else arrays["xi"]
    arrays["mass"] = mass.reshape(points, lags, 4)
    return arrays


def _panel_sums(xi, width, h, w, phi, mass, with_jacobian):
    """Each entry's inner integral over its four panels, and with the
    Jacobian its moment int H xi phi dxi: ``(values, moments)`` of shape
    ``xi.shape[:-2]``, moments None without it.

    ``xi`` (B, n, 4, G) holds the standardized variable at each panel's
    Gauss-Legendre nodes, ``width`` (B or 1, n, 4) the panels' widths in
    it and ``h`` (B or 1, n, 4, G) H at the nodes.  ``phi``, shaped like
    ``xi``, and ``mass`` (B, n, 4) are work arrays; without the Jacobian
    phi may be ``xi`` itself, and with it the moment spends ``xi``.
    """
    np.multiply(xi, xi, out=phi)
    np.exp(np.multiply(-0.5, phi, out=phi), out=phi)
    h_phi = np.multiply(np.multiply(phi, _INV_SQRT_2PI, out=phi), h, out=phi)
    mass = np.einsum("bspg,g->bsp", h_phi, w, out=mass)
    values = _by_side(width * mass)
    if not with_jacobian:
        return values, None
    # int H xi phi over each panel
    return values, _by_side(width * np.einsum(
        "bspg,g->bsp", np.multiply(h_phi, xi, out=xi), w))


def _tiles(columns, tile):
    """The indices of the True entries of ``columns``, ascending, in runs
    of at most ``tile``, each with its length: a slice where a run is
    contiguous (a view, not a copy), else an index array."""
    idx = np.flatnonzero(columns)
    for j in range(0, idx.size, tile):
        run = idx[j:j + tile]
        yield (slice(run[0], run[-1] + 1)
               if run[-1] - run[0] + 1 == run.size else run), run.size


def _same_bits(a, b):
    """Entrywise: do the float arrays ``a`` and ``b`` hold the same bits?"""
    return np.asarray(a).view(np.int64) == np.asarray(b).view(np.int64)


def _recall(memo, mu, n_gl, inputs, shared):
    """The lags whose values ``memo`` holds for this call: stored under the
    key (mu, n_gl, number of lags) from bitwise the same ``inputs``
    (T - t - s, z-, z+), and with no cut entry now.  A memo under another
    key starts again, empty."""
    key = (float(mu).hex(), n_gl, shared.size)
    if memo.get("key") != key:
        n, g = shared.size, n_gl // 2
        memo.clear()
        memo.update(key=key, valid=np.zeros(n, dtype=bool),
                    inputs=np.empty((3, n)), d=np.empty((n, 4, g)),
                    width=np.empty((n, 4)), h=np.empty((n, 4, g)))
    match = memo["valid"] & shared
    for now, stored in zip(inputs, memo["inputs"]):
        match &= _same_bits(now, stored)
    return match


def lag_integral_batch(spec: ProblemSpec, t: float, xs, z_minus, z_plus,
                       rule: LagRule, n_gl: int = 32, knot_weights=None,
                       memo: dict | None = None):
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
    memo : dict, optional
        Kept by the caller from call to call, empty at first, and used by
        one thread at a time: the shared lags' nodes and H values, reused
        while their inputs hold (below).

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

    A pass of B points runs three loops over tiles of lag nodes on the
    calling thread: first the lags whose values a ``memo`` holds; then the
    lags with no cut entry, whose window is the edges' for every point, so
    that their nodes and H values are evaluated once for the pass and only
    phi depends on x; then the other lags, with H on every point's own
    nodes.  Each tile carves its arrays out of the thread's one buffer of
    ``_WORK_FLOATS`` floats, and a loop takes ``max(1, _WORK_FLOATS // F)``
    lags per tile, F the floats it holds per lag (``_floats_per_lag``):
    xi on B rows, with the Jacobian phi on B rows, and mass, beside H's
    five arrays on no row, on one row or on B rows, where they also hold
    phi and mass.  A call takes at most ``max(1, _WORK_FLOATS // (12
    n_gl))`` points in one pass, the points of one lag of the last loop,
    and a wider batch in consecutive runs of that many.  An entry's
    arithmetic is the same whatever the run or tile, so the result does
    not depend on the tiling.

    The derivatives are those of the inner integral in closed form.  In x
    it is int H(center + sqrt(s) xi) xi phi(xi) dxi / sqrt(s), a second
    reduction of the H values the integral itself uses.  In an edge it is
    ±H(t+s, z±(s)) phi(xi±)/sqrt(s) where the edge is not clipped and the
    window not empty.  H there is taken once per side and lag node with
    lambda_s != 0 for all points; its product with each point's phi is
    formed in C order, so that ``d_beta``'s lag sum rounds alike in any
    batch.  The values are bit-identical with and without ``knot_weights``.

    With a ``memo``, a pass keeps its shared lags' panel offsets d, panel
    widths and H values there, keyed on what they are a pure function of:
    (mu, n_gl, rule.n) and, per lag, T - t - s, z- and z+.  A later pass
    reuses a lag's values where its three inputs are bitwise the stored
    ones and none of its entries is cut; there it forms only xi, phi and
    the sums.  Its other lags, such as those whose window moved, go to the
    per-point pass, which gives an uncut entry the same bits: its origin
    is 0 and its edges z± there too.  A pass that reuses no lag, as the
    first under a new key, stores its own shared lags in their place, in
    the memo's arrays.  Every output is bit-identical with and without a
    memo: reuse rests on the inputs' values, never on what the caller says
    has changed.
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
    # a pass takes as many points as one lag of the per-point loop holds
    run = max(1, _WORK_FLOATS // _floats_per_lag(1, 1, n_gl, False))
    if xs.size > run:
        parts = [lag_integral_batch(spec, t, xs[j:j + run], zm, zp, rule,
                                    n_gl, knot_weights, memo)
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

    def sums(cols, o, d, width_d, arrays, h=None, keep=None):
        """The entries of lags ``cols`` from their panels' offsets ``d``
        from origins ``o`` and widths, in the tile's ``arrays``, with H at
        the nodes: ``h``, or else evaluated here, spending ``d``, and
        stored in ``keep`` if given."""
        sq_t = sq[:, cols, np.newaxis]
        rel = (center[:, cols] - o)[..., np.newaxis, np.newaxis]
        xi = np.subtract(d, rel, out=arrays["xi"])
        np.divide(xi, sq_t[..., np.newaxis], out=xi)
        if h is None:
            y, h = arrays["y"], arrays["h"]
            np.add(o[..., np.newaxis, np.newaxis], d, out=y)
            _gain_H_into(spec.mu, s_rem[:, cols, np.newaxis, np.newaxis], y,
                         h, arrays["a"], arrays["nu"], arrays["tmp"])
            if keep is not None:
                keep["h"][cols] = h[0]
        out[:, cols], m = _panel_sums(xi, width_d / sq_t, h, w,
                                      arrays["phi"], arrays["mass"],
                                      with_jacobian)
        if with_jacobian:
            moment[:, cols] = m

    def integrate(cols, arrays, keep=None):
        """The entries of lags ``cols`` on as many rows of the windows as
        the tile's H arrays have, one or all; with ``keep``, the first
        row's panels and H are stored there."""
        h_rows = arrays["y"].shape[0]
        o = origin[:h_rows, cols]
        lo_d, width_d = _panels(lo[:h_rows, cols], hi[:h_rows, cols],
                                0.0 - o, dip[:, cols])
        y = arrays["y"]
        d = np.add(lo_d[..., np.newaxis],
                   np.multiply(width_d[..., np.newaxis], r, out=y), out=y)
        if keep is not None:
            keep["d"][cols], keep["width"][cols] = d[0], width_d[0]
        sums(cols, o, d, width_d, arrays, keep=keep)

    def recall(cols, arrays):
        """The entries of lags ``cols`` from the memo's stored values."""
        d, width_d, h = (memo[name][cols][np.newaxis]
                         for name in ("d", "width", "h"))
        sums(cols, origin[:1, cols], d, width_d, arrays, h)

    # lags with no cut entry have the window of the edges: one row, shared
    shared = uncut.all(axis=0)
    reuse, keep = np.zeros_like(shared), None
    if memo is not None and xs.size:
        inputs = (s_rem[0], zm, zp)
        reuse = _recall(memo, spec.mu, n_gl, inputs, shared)
        if not reuse.any():
            # nothing to reuse: the memo keeps this call's shared lags
            np.copyto(memo["inputs"], inputs)
            np.copyto(memo["valid"], shared)
            keep = memo
    # with reuse, an unmatched shared lag joins the per-point pass
    one_row = shared & (not reuse.any())
    for lags, h_rows, integrate_lags in (
            (reuse, 0, recall),
            (one_row, 1, partial(integrate, keep=keep)),
            (~(reuse | one_row), xs.size, integrate)):
        if not (xs.size and lags.any()):
            continue
        # as many lags as the buffer holds of what this loop keeps per lag
        tile = max(1, _WORK_FLOATS // _floats_per_lag(
            xs.size, h_rows, n_gl, with_jacobian))
        for cols, n_lags in _tiles(lags, tile):
            integrate_lags(cols, _tile_arrays(n_lags, xs.size, h_rows, n_gl,
                                              with_jacobian))

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
