"""Independent numerical oracles used to freeze expected test values.

Everything here is deliberately implemented from first principles, without
importing the package under test (except where a test explicitly checks a
quadrature against Monte Carlo of the *same* integrand).  Heavy Monte Carlo
oracles are run once via ``PYTHONPATH=src python3 tests/oracles.py`` and
their (estimate, standard error) pairs are frozen into the test modules
together with the generating seed and sample size.

The references at the end (scalar Brent root of H, adaptive scalar kernel,
untiled lag integrals, quadrature law of g and nested-quad E g) use a frozen
copy of the package's gain function H, written as plain expressions, and
the package's lag rule: they check how the package solves and integrates,
not what it integrates.  The four-term bivariate-normal law
of g checks the algebra that collapses it to one Owen's T value.  The
smooth-fit diagnostic differences the package's own raw lag integral
across the solved boundaries.  The zero-drift anchor, last, solves the
scalar equation that the exact boundaries b± = ±z* sqrt(T - t) of the
driftless problem obey; its closed form, the closed-form value surface on
those boundaries and the large-drift limit need no code of the package.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, owens_t

from lastzero.closed_forms import ProblemSpec, g_cdf
from lastzero.kernel import (_CLIP, LagRule, _gauss_unit, lag_integral_batch,
                             lag_rule)

# The kernel's inner Gauss-Legendre node count, read off its signature so
# that the references below always use the package's default rule.
_KERNEL_N_GL = inspect.signature(lag_integral_batch).parameters["n_gl"].default


# ---------------------------------------------------------------------------
# High-precision scalar references (mpmath)
# ---------------------------------------------------------------------------

def mp_normal_cdf(z, dps: int = 40):
    """Standard normal CDF via mpmath erfc at `dps` decimal digits."""
    from mpmath import erfc, mp, mpf, sqrt

    mp.dps = dps
    return erfc(-mpf(z) / sqrt(2)) / 2


def mp_normal_quantile(p, dps: int = 40):
    """Inverse standard normal CDF via mpmath erfinv."""
    from mpmath import erfinv, mp, mpf, sqrt

    mp.dps = dps
    return sqrt(2) * erfinv(2 * mpf(p) - 1)


# ---------------------------------------------------------------------------
# Arcsine law for the last zero of driftless Brownian motion on [0, T]
# ---------------------------------------------------------------------------

def arcsine_cdf(t, T):
    """P(g <= t) = (2/pi) arcsin sqrt(t/T) for zero drift."""
    t = np.asarray(t, dtype=float)
    return (2.0 / np.pi) * np.arcsin(np.sqrt(np.clip(t / T, 0.0, 1.0)))


def arcsine_mean(T):
    """E g = T/2 for zero drift."""
    return 0.5 * T


# ---------------------------------------------------------------------------
# Monte Carlo oracle: distribution of the running maximum of drifted BM
# ---------------------------------------------------------------------------

def mc_running_max_cdf(nu, t, x, n_paths=1_000_000, n_steps=1000, seed=20240817,
                       chunk=4000):
    """Estimate P(max_{s<=t} (nu*s + B_s) <= x) by simulation.

    Increments of drifted Brownian motion are exact Gaussians for any step
    size; the per-interval maximum is sampled exactly from the Brownian
    bridge maximum law, M = (a + b + sqrt((b-a)^2 - 2*dt*log U)) / 2 given
    endpoint values a, b.  Returns (estimate, standard_error).
    """
    rng = np.random.default_rng(seed)
    dt = t / n_steps
    hits = 0
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        incr = nu * dt + np.sqrt(dt) * rng.standard_normal((m, n_steps))
        path = np.cumsum(incr, axis=1)
        left = np.concatenate([np.zeros((m, 1)), path[:, :-1]], axis=1)
        u = rng.random((m, n_steps))
        seg_max = 0.5 * (left + path
                         + np.sqrt((path - left) ** 2 - 2.0 * dt * np.log(u)))
        run_max = seg_max.max(axis=1)
        hits += int(np.count_nonzero(np.maximum(run_max, 0.0) <= x))
        done += m
    p = hits / n_paths
    se = np.sqrt(p * (1.0 - p) / n_paths)
    return p, se


# ---------------------------------------------------------------------------
# Monte Carlo oracle: law of the last zero g of drifted BM on [0, T]
# ---------------------------------------------------------------------------

def mc_last_zero_law(mu, T, t_query, n_paths=1_000_000, n_steps=4000,
                     seed=20240818, chunk=1000):
    """Estimate (P(g <= t_query), se) and (E g, se) by bridge-corrected MC.

    Grid sign changes count as crossings; same-sign intervals cross with the
    Brownian bridge probability exp(-2 x_k x_{k+1} / dt).  The last zero is
    placed by linear interpolation inside sign-change intervals and uniformly
    inside bridge-detected ones.  Paths with no detected crossing give g = 0.
    """
    rng = np.random.default_rng(seed)
    dt = T / n_steps
    g_sum = 0.0
    g_sq = 0.0
    below = 0
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        incr = mu * dt + np.sqrt(dt) * rng.standard_normal((m, n_steps))
        path = np.cumsum(incr, axis=1)
        left = np.concatenate([np.zeros((m, 1)), path[:, :-1]], axis=1)
        sign_change = left * path <= 0.0
        bridge_p = np.exp(np.minimum(-2.0 * left * path / dt, 0.0))
        u_cross = rng.random((m, n_steps))
        u_place = rng.random((m, n_steps))
        crossed = sign_change | (u_cross < bridge_p)
        any_cross = crossed.any(axis=1)
        # Rightmost crossing interval [t_k, t_k + dt).
        last = n_steps - 1 - np.argmax(crossed[:, ::-1], axis=1)
        rows = np.arange(m)
        a = left[rows, last]
        b = path[rows, last]
        frac = np.where(
            sign_change[rows, last],
            np.abs(a) / np.maximum(np.abs(a) + np.abs(b), 1e-300),
            u_place[rows, last],
        )
        g = np.where(any_cross, (last + frac) * dt, 0.0)
        g_sum += g.sum()
        g_sq += (g * g).sum()
        below += int(np.count_nonzero(g <= t_query))
        done += m
    p = below / n_paths
    p_se = np.sqrt(p * (1.0 - p) / n_paths)
    mean = g_sum / n_paths
    var = g_sq / n_paths - mean * mean
    mean_se = np.sqrt(var / n_paths)
    return (p, p_se), (mean, mean_se)


def last_zeros_interval_scan(times, w, u_bridge, u_place, bridge_on=True):
    """Last zeros of paths w on a uniform grid by one Bernoulli per interval.

    A sign change or a landing on 0 is a sure zero; two same-sign ends hide
    one with the bridge probability exp(-2 a b / dt), decided by
    ``u_bridge[:, k] < p``.  The last interval with a zero holds g, placed
    by linear interpolation across a sign change, at its right end on a
    landing, else at ``t_k + dt * u_place``; no zero gives g = 0.  This is
    the package's former sampler (2n + 1 uniforms per path), kept as the
    reference for the law of its one-uniform interval pick.
    """
    dt = times[1] - times[0]
    a = w[:, :-1]
    b = w[:, 1:]
    prod = a * b
    crossing = (prod < 0.0) | (b == 0.0)
    if bridge_on:
        p = np.exp(-2.0 * np.clip(prod, 0.0, None) / dt)
        crossing |= (prod > 0.0) & (u_bridge < p)
    has = crossing.any(axis=1)
    last = crossing.shape[1] - 1 - np.argmax(crossing[:, ::-1], axis=1)
    rows = np.arange(w.shape[0])
    a_k = a[rows, last]
    b_k = b[rows, last]
    t_k = times[last]
    sign_change = a_k * b_k < 0.0
    denom = np.where(sign_change, a_k - b_k, 1.0)
    g = np.where(sign_change, t_k + dt * a_k / denom,
                 np.where(b_k == 0.0, t_k + dt, t_k + dt * u_place))
    return np.where(has, g, 0.0)


def last_zeros_dense_pick(times, w, u, bridge_on=True):
    """Last zeros of paths w by the package's one-uniform interval pick,
    computed densely: every interval's chance q_k of holding no zero, the
    reversed running product S_k = prod_{j >= k} q_j over the whole row,
    and the last k with S_k <= ``u[:, 0]``; g placed as in
    ``last_zeros_interval_scan`` with ``u[:, 1]``.  This is the package's
    former pick, kept as the bit-for-bit reference for the sparse one.
    """
    dt = times[1] - times[0]
    a = w[:, :-1]
    b = w[:, 1:]
    q = np.multiply(a, b)
    sure = q < 0.0
    sure |= b == 0.0
    with np.errstate(over="ignore", under="ignore"):
        if bridge_on:               # 1 - exp(-2ab/dt); a = 0 gives 1 via inf
            q[q <= 0.0] = np.inf
            np.negative(np.expm1(np.multiply(q, -2 / dt, out=q), out=q), out=q)
        else:
            q.fill(1.0)
        q[sure] = 0.0
        np.cumprod(q[:, ::-1], axis=1, out=q[:, ::-1])
    last = np.count_nonzero(q <= u[:, :1], axis=1) - 1
    has = last >= 0
    rows = np.arange(w.shape[0])
    a_k = a[rows, last]
    b_k = b[rows, last]
    t_k = times[last]
    sign_change = a_k * b_k < 0.0
    denom = np.where(sign_change, a_k - b_k, 1.0)  # avoid 0/0 off-branch
    g = np.where(sign_change, t_k + dt * a_k / denom,
                 np.where(b_k == 0.0, t_k + dt, t_k + dt * u[:, 1]))
    return np.where(has, g, 0.0)


# ---------------------------------------------------------------------------
# Finite-difference derivative oracle
# ---------------------------------------------------------------------------

def central_difference(f, x, h=1e-6):
    """Central finite difference (f(x+h) - f(x-h)) / (2h)."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# References for the zero curves of H, the kernel, its lag integral and g
# ---------------------------------------------------------------------------

def gain_H_reference(mu, s, x):
    """H with s = T - t > 0, as plain numpy expressions on fresh arrays.

    A frozen copy of the package's gain function from before it wrote into
    work arrays; the package's H must equal it bit for bit.
    """
    s = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    nu = -mu * np.sign(x)
    rs = np.sqrt(s)
    first = ndtr((a - nu * s) / rs)
    second = np.exp(2.0 * nu * a + log_ndtr((-a - nu * s) / rs))
    return 2.0 * np.clip(first - second, 0.0, 1.0) - 1.0


def h_root(spec: ProblemSpec, t: float, side: int) -> float:
    """Root of H(t, .) on the given side of 0 (side = +1 or -1), by Brent."""
    s = spec.T - t
    lo = 1e-12 * np.sqrt(spec.T)
    hi = np.sqrt(s)

    def f(a):
        return gain_H_reference(spec.mu, s, side * a)

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


@dataclass(frozen=True)
class KernelQuery:
    """Arguments of one kernel evaluation: K(t, x, s, z_minus, z_plus)."""

    t: float
    x: float
    s: float
    z_minus: float
    z_plus: float

    def __post_init__(self):
        if self.z_minus > self.z_plus:
            raise ValueError("window requires z_minus <= z_plus")


def _inner_kernel_panels(spec: ProblemSpec, t_plus_s: float, x: float, s: float,
                         z_minus: float, z_plus: float, n_gl: int,
                         extra_breaks=()) -> float:
    """One inner integral in xi-space with panels split at breakpoints."""
    sq = np.sqrt(s)
    center = x + spec.mu * s
    a = max((z_minus - center) / sq, -_CLIP)
    c = min((z_plus - center) / sq, _CLIP)
    if c <= a:
        return 0.0
    breaks = [a, c]
    for y_brk in (0.0, *extra_breaks):
        xi = (y_brk - center) / sq
        if a < xi < c:
            breaks.append(xi)
    breaks = np.sort(np.array(breaks))
    r, w = _gauss_unit(n_gl)
    total = 0.0
    s_rem = spec.T - t_plus_s
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        xi = lo + (hi - lo) * r
        y = center + sq * xi
        h = gain_H_reference(spec.mu, s_rem, y)
        phi = np.exp(-0.5 * xi * xi) / np.sqrt(2.0 * np.pi)
        total += (hi - lo) * np.dot(w, h * phi)
    return float(total)


def kernel_K(spec: ProblemSpec, q: KernelQuery, eps_k: float = 1e-9) -> float:
    """Evaluate the kernel to absolute accuracy eps_k (default 1e-9).

    Accepts s = T - t, where H degenerates to its terminal limit 1 away
    from zero and the kernel reduces to the window probability.
    """
    if q.s <= 0.0:
        raise ValueError("kernel_K requires s > 0")
    if q.t + q.s > spec.T * (1.0 + 1e-12):
        raise ValueError("kernel_K requires t + s <= T")
    if q.z_minus == q.z_plus:
        return 0.0
    sq = np.sqrt(q.s)
    center = q.x + spec.mu * q.s
    if spec.T - (q.t + q.s) <= 1e-14 * spec.T:
        # terminal limit: H(T, y) = 1 a.e.
        return float(ndtr((q.z_plus - center) / sq)
                     - ndtr((q.z_minus - center) / sq))
    t_plus_s = q.t + q.s
    extra = (h_root(spec, t_plus_s, -1), h_root(spec, t_plus_s, +1))
    n = 32
    prev = _inner_kernel_panels(spec, t_plus_s, q.x, q.s,
                                q.z_minus, q.z_plus, n, extra)
    while n <= 1024:
        n *= 2
        cur = _inner_kernel_panels(spec, t_plus_s, q.x, q.s,
                                   q.z_minus, q.z_plus, n, extra)
        if abs(cur - prev) <= eps_k:
            return cur
        prev = cur
    raise RuntimeError(f"kernel quadrature did not reach eps_k={eps_k}")


def _four_panels(lo, hi, mid, dip):
    """The kernel's four panels, lo <= cut- <= mid <= cut+ <= hi, as
    (start, width) with the panel on a new last axis."""
    edges = np.stack([lo, np.maximum(mid - dip, 0.5 * (lo + mid)), mid,
                      np.minimum(mid + dip, 0.5 * (mid + hi)), hi], axis=-1)
    return edges[..., :-1], np.diff(edges)


def _as_rows(z, n_s):
    """A window edge, scalar or (n_s,), as a (1, n_s) array."""
    return np.broadcast_to(np.asarray(z, dtype=float), (1, n_s))


def _standardized_entries(spec: ProblemSpec, t: float, xs, zm, zp,
                          nodes, n_gl: int):
    """Each (point, lag) entry's inner integral and its moment
    int H xi phi dxi, both (B, n_s), with its panels in the standardized
    variable xi = (y - x - mu s)/sqrt(s) and its window clipped to
    ``_CLIP`` standard deviations; also the clipped window (a, c)."""
    s = nodes[np.newaxis, :]                           # (1, n_s)
    sq = np.sqrt(s)
    center = xs[:, np.newaxis] + spec.mu * s           # (B, n_s)
    a = np.maximum((zm - center) / sq, -_CLIP)
    c = np.minimum((zp - center) / sq, _CLIP)
    c = np.maximum(c, a)
    mid = np.clip(-center / sq, a, c)
    s_rem = spec.T - t - s                             # (1, n_s), > 0 by rule
    lo, width = _four_panels(a, c, mid, _CLIP * np.sqrt(s_rem / s))
    r, w = _gauss_unit(n_gl // 2)
    xi = lo[..., np.newaxis] + width[..., np.newaxis] * r
    y = center[..., np.newaxis, np.newaxis] + sq[..., np.newaxis,
                                                 np.newaxis] * xi
    h = gain_H_reference(spec.mu, s_rem[..., np.newaxis, np.newaxis], y)
    h_phi = h * (np.exp(-0.5 * xi * xi) * (1.0 / np.sqrt(2.0 * np.pi)))
    inner = width * np.einsum("bspg,g->bsp", h_phi, w)
    # the direct sum: lo mass + width sum(H phi w r) cancels when lo ~ -10
    # and width ~ 20
    mom = width * np.einsum("bspg,g->bsp", h_phi * xi, w)
    return ((inner[..., 0] + inner[..., 1]) + (inner[..., 2] + inner[..., 3]),
            (mom[..., 0] + mom[..., 1]) + (mom[..., 2] + mom[..., 3]), a, c)


def lag_integral_batch_standardized(spec: ProblemSpec, t: float, xs,
                                    z_minus, z_plus, rule: LagRule,
                                    n_gl: int = _KERNEL_N_GL,
                                    knot_weights=None):
    """The lag integral with every entry standardized
    (``_standardized_entries``), untiled: each entry on its own panels in
    xi and H at y = center + sqrt(s) xi, with the Jacobian
    (``knot_weights``), ``d_beta`` a matrix product.

    The package integrates every entry on panels in y instead; the two
    are the same rule and differ by rounding.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    zm, zp = _as_rows(z_minus, rule.n), _as_rows(z_plus, rule.n)
    inner, mom, a, c = _standardized_entries(spec, t, xs, zm, zp,
                                             rule.nodes, n_gl)
    values = (inner * rule.weights).sum(axis=1)
    if knot_weights is None:
        return values
    sq = np.sqrt(rule.nodes)
    d_x = (mom * (rule.weights / sq)).sum(axis=1)
    # edge terms: the density at each unclipped edge of a non-empty window,
    # on the lag nodes that see the knots
    at = np.flatnonzero(knot_weights)
    a, c = a[:, at], c[:, at]
    free = np.stack([a > -_CLIP, c < _CLIP]) & (c > a)  # (2, B, n_at)
    z_edge = np.stack([np.broadcast_to(z, (xs.size, rule.n))[:, at]
                       for z in (zm, zp)])
    xi_edge = np.stack([a, c])
    dens = gain_H_reference(spec.mu, spec.T - t - rule.nodes[at], z_edge) \
        * np.exp(-0.5 * xi_edge * xi_edge) * (1.0 / np.sqrt(2.0 * np.pi))
    lag_w = rule.weights[at] * np.asarray(knot_weights)[at] / sq[at]
    d_beta = np.where(free, dens, 0.0) @ lag_w
    return values, d_x, np.column_stack([-d_beta[0], d_beta[1]])


def lag_integral_batch_untiled(spec: ProblemSpec, t: float, xs, z_minus,
                               z_plus, rule: LagRule,
                               n_gl: int = _KERNEL_N_GL) -> np.ndarray:
    """``lastzero.lag_integral_batch`` as one untiled pass over all lags.

    Each (point, lag) entry's window is cut to ``_CLIP`` standard
    deviations of its center and integrated on four panels in y, laid out
    as offsets d from an origin: the center for a cut entry, y = 0 for an
    uncut one, whose edges stay exactly z- and z+.  H is taken at
    y = origin + d, phi at xi = (d - (center - origin))/sqrt(s).  The
    package evaluates the same arithmetic in tiles of lag nodes, sharing
    the nodes and H values of lags with no cut entry; tests require the
    two to agree bit for bit.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if rule.n == 0:
        return np.zeros(xs.shape)
    s = rule.nodes[np.newaxis, :]                      # (1, n_s)
    sq = np.sqrt(s)
    zm, zp = _as_rows(z_minus, rule.n), _as_rows(z_plus, rule.n)
    center = xs[:, np.newaxis] + spec.mu * s           # (B, n_s)
    a = np.maximum((zm - center) / sq, -_CLIP)
    c = np.maximum(np.minimum((zp - center) / sq, _CLIP), a)
    origin = np.where((a > -_CLIP) & (c < _CLIP), 0.0, center)
    lo = np.where(a > -_CLIP, zm - origin, -_CLIP * sq)
    hi = np.maximum(np.where(c < _CLIP, zp - origin, _CLIP * sq), lo)
    s_rem = spec.T - t - s
    lo_d, width_d = _four_panels(lo, hi, np.clip(0.0 - origin, lo, hi),
                                 _CLIP * np.sqrt(s_rem))   # (B, n_s, 4)
    r, w = _gauss_unit(n_gl // 2)
    d = lo_d[..., np.newaxis] + width_d[..., np.newaxis] * r
    h = gain_H_reference(spec.mu, s_rem[..., np.newaxis, np.newaxis],
                         origin[..., np.newaxis, np.newaxis] + d)
    xi = ((d - (center - origin)[..., np.newaxis, np.newaxis])
          / sq[..., np.newaxis, np.newaxis])
    phi = np.exp(-0.5 * (xi * xi)) * (1.0 / np.sqrt(2.0 * np.pi))
    out = (width_d / sq[..., np.newaxis]) * np.einsum("bspg,g->bsp", phi * h,
                                                      w)
    inner = (out[..., 0] + out[..., 1]) + (out[..., 2] + out[..., 3])
    return (inner * rule.weights).sum(axis=1)


def lag_integral_exact(spec: ProblemSpec, t: float, x: float, z_minus,
                       z_plus, rule: LagRule, n_gl: int = _KERNEL_N_GL,
                       dps: int = 30) -> tuple[float, float]:
    """The package's lag rule for one point evaluated in mpmath at ``dps``
    digits: ``(value, d_x)``, each rounded once to a float.

    Every step of the rule is exact up to ``dps`` digits: the window cut
    to ``_CLIP`` standard deviations in xi, its four panels (kink image
    -center/sqrt(s), cuts ``_CLIP`` sqrt((T - t - s)/s) from it or halfway
    to the edge), the Gauss-Legendre nodes and weights and the lag nodes
    and weights taken as the floats the package uses, and H and phi at
    each node.  It measures how far a float arithmetic of the same rule
    rounds, not the rule's own error.
    """
    from mpmath import mp, mpf, ncdf, npdf, sqrt as mp_sqrt

    mp.dps = dps
    zm, zp = np.broadcast_to(z_minus, rule.n), np.broadcast_to(z_plus, rule.n)
    r, w = (list(map(mpf, v.tolist())) for v in _gauss_unit(n_gl // 2))
    mu, clip = mpf(spec.mu), mpf(_CLIP)

    def gain_H(s_rem, y):
        a, nu = abs(y), -mu * (1 if y > 0 else -1 if y < 0 else 0)
        f = (ncdf((a - nu * s_rem) / mp_sqrt(s_rem))
             - mp.exp(2 * nu * a) * ncdf((-a - nu * s_rem) / mp_sqrt(s_rem)))
        return 2 * min(max(f, 0), 1) - 1

    value = d_x = mpf(0)
    for s, ws, lo_z, hi_z in zip(rule.nodes.tolist(),
                                 rule.weights.tolist(), zm, zp):
        s, ws = mpf(s), mpf(ws)
        sq, s_rem = mp_sqrt(s), mpf(spec.T) - mpf(t) - s
        center = mpf(x) + mu * s
        a = max((mpf(lo_z) - center) / sq, -clip)
        c = max(min((mpf(hi_z) - center) / sq, clip), a)
        mid = min(max(-center / sq, a), c)
        dip = clip * mp_sqrt(s_rem / s)
        edges = [a, max(mid - dip, (a + mid) / 2), mid,
                 min(mid + dip, (mid + c) / 2), c]
        for lo, hi in zip(edges, edges[1:]):
            for rg, wg in zip(r, w):
                xi = lo + (hi - lo) * rg
                term = ws * (hi - lo) * wg * npdf(xi) * gain_H(
                    s_rem, center + sq * xi)
                value += term
                d_x += term * xi / sq
    return float(value), float(d_x)


def integrate_K_over_lag(spec: ProblemSpec, t: float, x: float, window,
                         rule: LagRule | None = None, n_nodes: int = 128,
                         n_gl: int = _KERNEL_N_GL) -> float:
    """int_0^{T-t} K(t, x, s, z-(s), z+(s)) ds for a lag-dependent window.

    ``window`` maps an array of lags s to a pair of arrays (z-(s), z+(s)).
    Deterministic for fixed inputs; the rule defaults to
    ``lag_rule(T - t, n_nodes)``.
    """
    if not 0.0 <= t <= spec.T:
        raise ValueError("integrate_K_over_lag requires t in [0, T]")
    if rule is None:
        rule = lag_rule(spec.T - t, n_nodes)
    if rule.n == 0:
        return 0.0
    zm, zp = window(rule.nodes)
    zm = np.asarray(zm, dtype=float)
    zp = np.asarray(zp, dtype=float)
    if np.any(zm > zp):
        raise ValueError("window must satisfy z_minus <= z_plus at every node")
    return float(lag_integral_batch(spec, t, np.array([x]), zm, zp, rule,
                                    n_gl=n_gl)[0])


def g_cdf_quad(spec: ProblemSpec, t: float) -> float:
    """P(last zero <= t), 0 < t < T, by adaptive quadrature.

    The conditional probability of no further zero given the state x at
    time t equals (H(t, x) + 1)/2; integrating it against the marginal
    density of the state gives the unconditional law.  The x-integral runs
    over [mu t - 12 sqrt(t), mu t + 12 sqrt(t)], split at 0, with adaptive
    Gauss-Kronrod refinement.
    """
    from scipy.integrate import quad

    t = float(t)
    if not 0.0 < t < spec.T:
        raise ValueError("g_cdf_quad requires 0 < t < T")
    s = spec.T - t

    def integrand(x):
        return 0.5 * (gain_H_reference(spec.mu, s, x) + 1.0) \
            * np.exp(-0.5 * (x - spec.mu * t) ** 2 / t) / np.sqrt(2.0 * np.pi * t)

    lo = spec.mu * t - 12.0 * np.sqrt(t)
    hi = spec.mu * t + 12.0 * np.sqrt(t)
    total = 0.0
    for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if b > a:
            val, _ = quad(integrand, a, b, epsabs=1e-11, epsrel=1e-11, limit=200)
            total += val
    return float(min(max(total, 0.0), 1.0))


def bvn_cdf(h, k, rho):
    """Phi2(h, k; rho) = P(X <= h, Y <= k), corr(X, Y) = rho, via Owen's T.

    Phi2 = (Phi(h) + Phi(k))/2 - T(h, a_h) - T(k, a_k) - beta with
    a_h = (k - rho h)/(h sqrt(1 - rho^2)), a_k likewise, and beta = 1/2
    when h k < 0, else 0; h and k must be nonzero and |rho| < 1.
    """
    h, k = float(h), float(k)
    if h == 0.0 or k == 0.0 or not abs(rho) < 1.0:
        raise ValueError("bvn_cdf needs nonzero h, k and |rho| < 1")
    r = np.sqrt(1.0 - rho * rho)
    beta = 0.5 if h * k < 0.0 else 0.0
    return float(0.5 * (ndtr(h) + ndtr(k))
                 - owens_t(h, (k - rho * h) / (h * r))
                 - owens_t(k, (h - rho * k) / (k * r)) - beta)


def g_cdf_bvn(spec: ProblemSpec, t: float) -> float:
    """P(last zero <= t) as the four-term bivariate-normal formula.

    Phi2(a, b; rho) - Phi2(-a, b; -rho) + Phi2(-a, -b; rho) - Phi2(a, -b; -rho)
    with a = mu sqrt(t), b = mu sqrt(T), rho = sqrt(t/T); mu must be nonzero.
    """
    a, b = spec.mu * np.sqrt(t), spec.mu * np.sqrt(spec.T)
    rho = np.sqrt(t / spec.T)
    return (bvn_cdf(a, b, rho) - bvn_cdf(-a, b, -rho)
            + bvn_cdf(-a, -b, rho) - bvn_cdf(a, -b, -rho))


def mean_g_quad(spec: ProblemSpec) -> float:
    """E g = integral of P(g > t) over [0, T] by adaptive quadrature of the
    closed-form law ``g_cdf``: a check independent of the closed-form mean."""
    from scipy.integrate import quad

    val, _ = quad(lambda t: 1.0 - g_cdf(spec, t), 0.0, spec.T,
                  epsabs=1e-9, epsrel=1e-9, limit=200)
    return float(val)


# ---------------------------------------------------------------------------
# Smooth fit: V_x continuous across the solved boundaries
# ---------------------------------------------------------------------------

def raw_value_row(bp, t: float, xs, n_lag: int = 128,
                  n_gl: int = _KERNEL_N_GL) -> np.ndarray:
    """The lag integral of V(t, x) for ``bp``'s problem, evaluated verbatim
    at every x: no exact 0 on the stopping set, so the formula's residual
    there shows.  One kernel call on ``lag_rule(T - t, n_lag)`` with
    ``n_gl`` Gauss-Legendre nodes on each side of the kink."""
    rule = lag_rule(bp.spec.T - t, n_lag)
    zm, zp = bp.interpolate(t + rule.nodes)
    return lag_integral_batch(bp.spec, t, np.asarray(xs, dtype=float), zm,
                              zp, rule, n_gl=n_gl)


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


def smooth_fit_diagnostic(bp, t_samples,
                          eps_factors=(1e-2, 1e-3, 1e-4)) -> SmoothFitReport:
    """Estimate V_x just inside b±(t) at shrinking offsets eps*sqrt(T).

    The outer one-sided derivative is exactly 0 (V vanishes on the stopping
    set), so the gap at step eps is the inner central-difference slope
    |V(t, b±) - V(t, b± ∓ 2 eps)| / (2 eps), centered one step inside.  Both
    samples come from ``raw_value_row``: the formula's small residual at the
    discrete boundary is common to both and cancels, instead of being
    amplified by 1/eps.  Smooth fit sends the sequence to 0 as eps shrinks.
    The lag rule has 192 nodes, finer than the value surface's 128.
    """
    T = bp.spec.T
    t_samples = np.atleast_1d(np.asarray(t_samples, dtype=float))
    if np.any(t_samples <= 0.0) or np.any(t_samples >= T):
        raise ValueError("t_samples must be interior to (0, T)")
    eps = np.asarray(eps_factors, dtype=float) * np.sqrt(T)
    gm = np.empty((t_samples.size, eps.size))
    gp = np.empty((t_samples.size, eps.size))
    ne = eps.size
    for i, t in enumerate(t_samples):
        zm, zp = bp.interpolate(t)
        xs = np.concatenate([[zm, zp], zm + 2.0 * eps, zp - 2.0 * eps])
        v = raw_value_row(bp, t, xs, n_lag=192)
        gm[i] = np.abs(v[2:2 + ne] - v[0]) / (2.0 * eps)
        gp[i] = np.abs(v[1] - v[2 + ne:]) / (2.0 * eps)
    return SmoothFitReport(t_samples=t_samples, eps=eps, gaps_minus=gm,
                           gaps_plus=gp)



# ---------------------------------------------------------------------------
# Zero drift: the exact boundaries are ±z* sqrt(T - t)
# ---------------------------------------------------------------------------

def zero_drift_lag_integral(z: float, x: float, n_lag: int = 128) -> float:
    """int_0^1 K(0, x, s, -z sqrt(1 - s), z sqrt(1 - s)) ds at mu = 0, T = 1:
    the value formula at (0, x) for the boundaries b± = ±z sqrt(T - t).

    The window edges are linear in v = sqrt(1 - s), the variable of
    ``lag_rule``'s upper half, so the kernel, with a fixed 128 inner nodes
    per side of the kink rather than the package's default, resolves this
    integral to round-off.
    """
    rule = lag_rule(1.0, n_lag)
    edge = z * np.sqrt(1.0 - rule.nodes)
    return float(lag_integral_batch(ProblemSpec(0.0, 1.0), 0.0, [x], -edge,
                                    edge, rule, n_gl=128)[0])


def zero_drift_anchor(n_lag: int = 128) -> tuple[float, float]:
    """(z*, V*(0)) of the driftless problem at T = 1.

    With mu = 0 the problem is scale-invariant, so b± = ±z* sqrt(T - t),
    and the + boundary equation at t = 0 is the scalar equation
    F(z) = zero_drift_lag_integral(z, z) = 0, solved by Brent on
    (h+(0), 3].  V*(0) = V(0, 0) + E g, with E g = 1/2.
    """
    lo = h_root(ProblemSpec(0.0, 1.0), 0.0, +1)
    z_star = brentq(lambda z: zero_drift_lag_integral(z, z, n_lag), lo, 3.0,
                    xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return z_star, zero_drift_lag_integral(z_star, 0.0, n_lag) + 0.5


def zero_drift_closed_form(T: float = 1.0) -> tuple[float, float]:
    """(z*, V*) of the driftless problem on [0, T], from no code in ``src/``.

    At mu = 0 the last zero of B maps (Levy) to the time of its maximum,
    and Graversen, Peskir & Shiryaev (2001) stop B as close as possible to
    its maximum at S - B >= z* sqrt(T - t), where z* is the root of
    4 Phi(z) - 2 z phi(z) - 3 = 0.  With Urusov (2005),
    V* = E|theta - tau*| = T (2 Phi(z*) - 3/2).
    """
    z_star = brentq(lambda z: 4.0 * ndtr(z) - 2.0 * z * np.exp(-0.5 * z * z)
                    / np.sqrt(2.0 * np.pi) - 3.0, 0.5, 3.0,
                    xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return z_star, T * (2.0 * float(ndtr(z_star)) - 1.5)


def zero_drift_value(t, x, T: float = 1.0):
    """V(t, x) of the driftless problem on [0, T], from no code in ``src/``.

    Brownian scaling (Graversen, Peskir & Shiryaev 2001) gives
    V = (T - t) f(a) with a = |x| / sqrt(T - t), and
    f(a) = 4 Phi(a) - 3 - 2 a phi(a) + (1 + a^2)(2 Phi(z*) - 2 Phi(a))
    inside (a < z*), 0 on the stopping set.  f(z*) = 0 is z*'s own
    equation, and f(0) = 2 Phi(z*) - 2 = V*/T - 1/2 = V(0, 0)/T.
    """
    z_star, _ = zero_drift_closed_form()
    tau = T - np.asarray(t, dtype=float)
    a = np.abs(np.asarray(x, dtype=float)) / np.sqrt(tau)
    f = (4.0 * ndtr(a) - 3.0 - 2.0 * a * np.exp(-0.5 * a * a)
         / np.sqrt(2.0 * np.pi)
         + (1.0 + a * a) * (2.0 * ndtr(z_star) - 2.0 * ndtr(a)))
    return tau * np.where(a < z_star, f, 0.0)


def large_drift_limit() -> tuple[float, float, float]:
    """(c, lim nu^2 V*, kappa) of the problem at T = 1 as |nu| -> infinity,
    from no code in ``src/``.

    On the drift's time scale 1/nu^2 the horizon recedes to infinity, and
    the thin boundary at t = 0 tends to c / |nu|, where c is the positive
    root of e^{2c} = 2 + 4c; nu^2 V* tends to c + (c + 1)/(1 + 2c) - 1.
    In z = x + nu (T - t) the thick side is driftless, and its boundary at
    t = 0 tends to -|nu| - kappa, where kappa is the root of
    (2 Phi(k) - 1)(k Phi(k) + phi(k)) = phi(k)((1 + k^2) Phi(k) + k phi(k)).
    """
    eps = 4 * np.finfo(float).eps
    c = brentq(lambda c: np.exp(2.0 * c) - 2.0 - 4.0 * c, 0.1, 2.0,
               xtol=1e-16, rtol=eps)

    def thick(k):
        cdf, pdf = ndtr(k), np.exp(-0.5 * k * k) / np.sqrt(2.0 * np.pi)
        return ((2.0 * cdf - 1.0) * (k * cdf + pdf)
                - pdf * ((1.0 + k * k) * cdf + k * pdf))

    kappa = brentq(thick, 0.1, 2.0, xtol=1e-16, rtol=eps)
    return c, c + (c + 1.0) / (1.0 + 2.0 * c) - 1.0, kappa


if __name__ == "__main__":
    import time

    t0 = time.time()
    print("Phi(1)        =", mp_normal_cdf(1))
    print("Phi^-1(0.75)  =", mp_normal_quantile(0.75))

    est, se = mc_running_max_cdf(1.0, 1.0, 1.0)
    print(f"running max F(1)(1,1): {est:.6f} +- {se:.2e}  "
          f"(n=1e6, steps=1000, seed=20240817)  [{time.time()-t0:.0f}s]")

    (p, p_se), (mg, mg_se) = mc_last_zero_law(1.0, 1.0, 0.5)
    print(f"P(g<=0.5 | mu=1, T=1): {p:.6f} +- {p_se:.2e}  "
          f"(n=1e6, steps=4000, seed=20240818)")
    print(f"E g (mu=1, T=1):       {mg:.6f} +- {mg_se:.2e}")
    print(f"total {time.time()-t0:.0f}s")
