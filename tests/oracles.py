"""Independent numerical oracles used to freeze expected test values.

Everything here is deliberately implemented from first principles, without
importing the package under test (except where a test explicitly checks a
quadrature against Monte Carlo of the *same* integrand).  Heavy Monte Carlo
oracles are run once via ``PYTHONPATH=src python3 tests/oracles.py`` and
their (estimate, standard error) pairs are frozen into the test modules
together with the generating seed and sample size.

The references at the end (scalar Brent root of H, adaptive scalar kernel,
untiled lag integral, quadrature law of g and nested-quad E g) use a frozen
copy of the package's gain function H, written as plain expressions, and
the package's lag rule: they check how the package solves and integrates,
not what it integrates.  The four-term bivariate-normal law
of g checks the algebra that collapses it to one Owen's T value.  The
smooth-fit diagnostic, last, differences the package's own raw lag integral
across the solved boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, owens_t

from lastzero.closed_forms import ProblemSpec, g_cdf
from lastzero.kernel import (_CLIP, LagRule, _gauss_unit, lag_integral_batch,
                             lag_rule)


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


def lag_integral_batch_untiled(spec: ProblemSpec, t: float, xs, z_minus,
                               z_plus, rule: LagRule,
                               n_gl: int = 64) -> np.ndarray:
    """``lastzero.lag_integral_batch`` as one untiled pass over all lags.

    The package evaluates the same arithmetic in tiles of lag nodes; tests
    require the two to agree bit for bit.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if rule.n == 0:
        return np.zeros(xs.shape)
    s = rule.nodes[np.newaxis, :]                      # (1, n_s)
    sq = np.sqrt(s)
    zm = np.asarray(z_minus, dtype=float)
    zp = np.asarray(z_plus, dtype=float)
    if zm.ndim == 1:
        zm = zm[np.newaxis, :]
    if zp.ndim == 1:
        zp = zp[np.newaxis, :]
    center = xs[:, np.newaxis] + spec.mu * s           # (B, n_s)
    a = np.maximum((zm - center) / sq, -_CLIP)
    c = np.minimum((zp - center) / sq, _CLIP)
    c = np.maximum(c, a)
    mid = np.clip(-center / sq, a, c)
    s_rem = spec.T - t - s                             # (1, n_s), > 0 by rule
    r, w = _gauss_unit(n_gl)
    out = np.zeros((xs.size, rule.n))
    for lo, hi in ((a, mid), (mid, c)):
        width = hi - lo                                # (B, n_s)
        xi = lo[..., np.newaxis] + width[..., np.newaxis] * r   # (B, n_s, n_gl)
        y = center[..., np.newaxis] + sq[..., np.newaxis] * xi
        h = gain_H_reference(spec.mu, s_rem[..., np.newaxis], y)
        phi = np.exp(-0.5 * xi * xi) * (1.0 / np.sqrt(2.0 * np.pi))
        out += width * np.einsum("bsg,g->bs", h * phi, w)
    return out @ rule.weights


def integrate_K_over_lag(spec: ProblemSpec, t: float, x: float, window,
                         rule: LagRule | None = None, n_nodes: int = 128,
                         n_gl: int = 64) -> float:
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

def raw_value_row(bp, t: float, xs, n_lag: int = 128) -> np.ndarray:
    """The lag integral of V(t, x) for ``bp``'s problem, evaluated verbatim
    at every x: no exact 0 on the stopping set, so the formula's residual
    there shows.  One kernel call on ``lag_rule(T - t, n_lag)``."""
    rule = lag_rule(bp.spec.T - t, n_lag)
    zm, zp = bp.interpolate(t + rule.nodes)
    return lag_integral_batch(bp.spec, t, np.asarray(xs, dtype=float), zm,
                              zp, rule)


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
