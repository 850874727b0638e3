"""Seeded Monte Carlo for E|g - tau| under grid stopping policies.

Paths of B^mu on a uniform grid come from exact Gaussian increments (the
process is Gaussian; there is no Euler error).  The last zero g of each
path is detected per grid interval: a sign change is a sure crossing placed
by linear interpolation; two same-sign endpoints hide a crossing with the
Brownian-bridge probability exp(-2 x_k x_{k+1} / dt), resolved by a
Bernoulli draw and placed uniformly.  Policies stop at the first grid time
in their stopping set; estimates across policies share paths (common
random numbers).

Randomness is counter-based and splittable: path i of a run seeded s draws
from Philox keyed (s, i).  Blocks of paths are drawn, scanned and stopped on
the process's one thread pool (``_shared.map_in_order``), and reduced in
whole chunks in path order, so results are independent of chunking and of
the number of workers, and bit-reproducible on one platform.  Each stream
owns a ``_shared.Scratch``: a thread draws and scans every block it runs
in the same block-sized arrays (path, bridge uniforms, interval products),
which the stream frees when it ends; only ``simulate_paths`` hands its
arrays to the caller.  A block holds about 4e6 / workers path values, so
each array is at most about 32 MB / workers (8 MB at 4000 steps on two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import ProblemSpec
from .boundaries import BoundaryPair
from . import _shared
from ._shared import write_csv

MAX_STORED_PATHS = 10_000

# Paths per reduction chunk (at most 8e6 path values, see ``_stream``).
_CHUNK = 1000


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    seed: int
    bridge_correction: bool = True

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class PathEnsemble:
    spec: ProblemSpec
    cfg: SimConfig
    times: np.ndarray              # (n_steps + 1,)
    paths: np.ndarray              # (n_paths, n_steps + 1)


@dataclass(frozen=True)
class PolicyReport:
    policy_name: str
    estimate: float
    std_error: float
    n_paths: int
    seed: int
    spec: ProblemSpec

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("standard error must be >= 0")
        if not -1e-12 <= self.estimate <= self.spec.T * (1 + 1e-12):
            raise ValueError("estimate of E|g - tau| must lie in [0, T]")

    def to_json_dict(self) -> dict:
        return {"policy": self.policy_name, "estimate": self.estimate,
                "std_error": self.std_error, "n_paths": self.n_paths,
                "seed": self.seed,
                "spec": {"mu": self.spec.mu, "T": self.spec.T}}


def _draw_chunk(spec: ProblemSpec, cfg: SimConfig, start: int, n: int,
                scratch: _shared.Scratch | None = None):
    """Paths, bridge uniforms, and placement uniforms for paths [start, start+n).

    Every path consumes a fixed number of draws from its own substream, so
    ensembles are identical however the work is chunked.  The arrays are
    drawn into ``scratch``; without one they are new and the caller's.
    """
    scratch = scratch or _shared.Scratch()
    dt = spec.T / cfg.n_steps
    scale, drift = np.sqrt(dt), spec.mu * dt
    w = scratch.array("w", (n, cfg.n_steps + 1))
    w[:, 0] = 0.0
    u_bridge = scratch.array("u_bridge", (n, cfg.n_steps))
    u_place = scratch.array("u_place", (n,))
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([cfg.seed, start + i], dtype=np.uint64)))
        np.cumsum(drift + scale * rng.standard_normal(cfg.n_steps),
                  out=w[i, 1:])
        u_bridge[i] = rng.random(cfg.n_steps)
        u_place[i] = rng.random()
    return w, u_bridge, u_place


def simulate_paths(spec: ProblemSpec, cfg: SimConfig) -> PathEnsemble:
    """Materialize an ensemble (small runs only; see MAX_STORED_PATHS)."""
    if cfg.n_paths > MAX_STORED_PATHS:
        raise ValueError(
            f"n_paths={cfg.n_paths} exceeds the {MAX_STORED_PATHS}-path "
            "storage guard; use evaluate_policy / evaluate_policies, "
            "which stream")
    times = np.linspace(0.0, spec.T, cfg.n_steps + 1)
    w, _, _ = _draw_chunk(spec, cfg, 0, cfg.n_paths)
    return PathEnsemble(spec=spec, cfg=cfg, times=times, paths=w)


def _last_zeros(times, w, u_bridge, u_place, bridge_on: bool,
                scratch: _shared.Scratch | None = None) -> np.ndarray:
    """Vectorized last-zero detection for a chunk of paths; the products,
    then the bridge probabilities, go to ``scratch`` (a new array without
    one)."""
    scratch = scratch or _shared.Scratch()
    dt = times[1] - times[0]
    a = w[:, :-1]
    b = w[:, 1:]
    prod = np.multiply(a, b, out=scratch.array("prod", a.shape))
    crossing = prod < 0.0
    crossing |= b == 0.0
    if bridge_on:
        same = prod > 0.0
        p = np.clip(prod, 0.0, None, out=prod)          # prod is spent
        with np.errstate(over="ignore", under="ignore"):
            np.exp(np.divide(np.multiply(-2.0, p, out=p), dt, out=p), out=p)
        crossing |= same & (u_bridge < p)
    has = crossing.any(axis=1)
    n_int = crossing.shape[1]
    last = n_int - 1 - np.argmax(crossing[:, ::-1], axis=1)
    rows = np.arange(w.shape[0])
    a_k = a[rows, last]
    b_k = b[rows, last]
    t_k = times[last]
    sign_change = a_k * b_k < 0.0
    denom = np.where(sign_change, a_k - b_k, 1.0)  # avoid 0/0 off-branch
    g = np.where(sign_change, t_k + dt * a_k / denom,
                 np.where(b_k == 0.0, t_k + dt, t_k + dt * u_place))
    return np.where(has, g, 0.0)


def _stream(spec: ProblemSpec, cfg: SimConfig, rules):
    """Yield (start, g, [tau per rule]) for each chunk of paths, in order.

    Chunks hold at most 8e6 path values.  Blocks of chunk / (2 * workers)
    paths keep the workers within half a chunk; numpy's draws and array
    arithmetic release the interpreter lock, so the blocks run in parallel.
    Each thread draws and scans its blocks in the same block-sized arrays
    of the stream's own ``Scratch``, freed when the stream ends.
    """
    chunk = max(1, min(_CHUNK, int(8_000_000 // (cfg.n_steps + 1))))
    block = -(-chunk // (2 * _shared.workers()))
    times = np.linspace(0.0, spec.T, cfg.n_steps + 1)
    scratch = _shared.Scratch()

    def run(bounds):
        start, stop = bounds
        w, u_bridge, u_place = _draw_chunk(spec, cfg, start, stop - start,
                                           scratch)
        g = _last_zeros(times, w, u_bridge, u_place, cfg.bridge_correction,
                        scratch)
        return g, [rule.taus(times, w) for rule in rules]

    for start in range(0, cfg.n_paths, chunk):
        stop = min(start + chunk, cfg.n_paths)
        edges = [*range(start, stop, block), stop]
        parts = _shared.map_in_order(run, zip(edges[:-1], edges[1:]))
        yield (start, np.concatenate([g for g, _ in parts]),
               [np.concatenate(t) for t in zip(*(ts for _, ts in parts))])


def collect_last_zeros(spec: ProblemSpec, cfg: SimConfig) -> np.ndarray:
    """Stream the ensemble and return the n_paths last-zero times."""
    return np.concatenate([g for _, g, _ in _stream(spec, cfg, [])])


# -- stopping rules -------------------------------------------------------


class StoppingRule:
    """Grid policy: stop at the first time the path enters the rule's set;
    ``taus`` runs on worker threads, so it must not mutate the rule."""

    name = "abstract"

    def stop_mask(self, times: np.ndarray, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def taus(self, times: np.ndarray, w: np.ndarray) -> np.ndarray:
        mask = self.stop_mask(times, w)
        # the terminal column is all-True for every rule below, so argmax
        # always lands on a genuine stopping index
        return times[np.argmax(mask, axis=1)]


class OptimalRule(StoppingRule):
    def __init__(self, bp: BoundaryPair, factor: float = 1.0):
        self.bp = bp
        self.factor = factor
        self.name = ("optimal" if factor == 1.0
                     else f"scaled_optimal:{factor:g}")

    def stop_mask(self, times, w):
        zm, zp = self.bp.interpolate(times)
        return (w <= self.factor * zm) | (w >= self.factor * zp)


class SqrtRule(StoppingRule):
    """Stop when |B_t| >= z sqrt(T - t)."""

    def __init__(self, z: float, T: float):
        self.z = z
        self.T = T
        self.name = f"sqrt_rule:{z:g}"

    def stop_mask(self, times, w):
        thr = self.z * np.sqrt(np.maximum(self.T - times, 0.0))
        return (w <= -thr) | (w >= thr)


class FixedTimeRule(StoppingRule):
    """tau identically equal to a constant time (clipped to [0, T])."""

    def __init__(self, c: float, T: float):
        self.c = float(np.clip(c, 0.0, T))
        self.name = f"fixed_time:{c:g}"

    def taus(self, times, w):
        return np.full(w.shape[0], self.c)


def parse_policy(text: str, spec: ProblemSpec,
                 bp: BoundaryPair | None = None) -> StoppingRule:
    """Parse CLI policy strings: optimal | fixed_time:C | sqrt_rule:Z |
    scaled_optimal:F.  Parameters must be finite: with inf or NaN a rule's
    terminal column need not stop, and ``taus`` would then read t = 0."""
    kind, _, arg = text.partition(":")
    if kind not in ("optimal", "scaled_optimal", "sqrt_rule", "fixed_time"):
        raise ValueError(f"unknown policy name {text!r}")
    if kind == "optimal" and arg:
        raise ValueError(f"policy 'optimal' takes no parameter, got {text!r}")
    value = 1.0 if kind == "optimal" else float(arg)
    if not np.isfinite(value):
        raise ValueError(f"policy parameter must be finite, got {text!r}")
    if kind == "sqrt_rule":
        return SqrtRule(value, spec.T)
    if kind == "fixed_time":
        return FixedTimeRule(value, spec.T)
    if bp is None:
        raise ValueError(f"policy {kind!r} needs boundaries")
    return OptimalRule(bp, factor=value)


def evaluate_policies(spec: ProblemSpec, rules, cfg: SimConfig,
                      records: np.ndarray | None = None) -> list[PolicyReport]:
    """One streamed ensemble pass scoring every rule on the same paths.

    ``records`` (n_paths rows of PER_PATH_DTYPE) gets the first rule's rows.
    """
    rules = list(rules)
    if records is not None and (not rules or records.shape != (cfg.n_paths,)):
        raise ValueError("records need a rule and one row per path")
    sums = np.zeros(len(rules))
    sq = np.zeros(len(rules))
    for start, g, taus in _stream(spec, cfg, rules):
        for j, tau in enumerate(taus):
            err = np.abs(g - tau)
            sums[j] += err.sum()
            sq[j] += (err * err).sum()
            if j == 0 and records is not None:
                rows = records[start:start + g.size]
                rows["path_id"] = np.arange(start, start + g.size)
                rows["g"], rows["tau"], rows["abs_error"] = g, tau, err
    n = cfg.n_paths
    out = []
    for j, rule in enumerate(rules):
        mean = sums[j] / n
        var = max(sq[j] / n - mean * mean, 0.0) * (n / max(n - 1, 1))
        out.append(PolicyReport(policy_name=rule.name, estimate=float(mean),
                                std_error=float(np.sqrt(var / n)),
                                n_paths=n, seed=cfg.seed, spec=spec))
    return out


def evaluate_policy(spec: ProblemSpec, rule: StoppingRule,
                    cfg: SimConfig,
                    records: np.ndarray | None = None) -> PolicyReport:
    return evaluate_policies(spec, [rule], cfg, records)[0]


PER_PATH_DTYPE = np.dtype([("path_id", np.int64), ("g", float),
                           ("tau", float), ("abs_error", float)])


def save_per_path_csv(path, records: np.ndarray,
                      manifest_hash: str | None = None) -> None:
    """Write per-path rows (PER_PATH_DTYPE, as ``evaluate_policies`` fills
    them) as CSV: path_id, g, tau, abs_error."""
    write_csv(path, PER_PATH_DTYPE.names,
              ((i, f"{g:.17g}", f"{tau:.17g}", f"{err:.17g}")
               for i, g, tau, err in records.tolist()),
              {"manifest_hash": manifest_hash})
