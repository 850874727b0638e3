"""Seeded Monte Carlo for E|g - tau| under grid stopping policies.

Paths of B^mu on a uniform grid come from exact Gaussian increments (the
process is Gaussian; there is no Euler error).  The last zero g of a path
lies in the last grid interval holding a zero: a sign change or a landing
on 0 holds one surely, two same-sign endpoints one with the Brownian-bridge
probability exp(-2 x_k x_{k+1} / dt), independently across intervals.  One
uniform per path picks that interval by inverse CDF; g is placed by linear
interpolation across a sign change and uniformly in a bridge interval.
Policies stop at the first grid time in their stopping set; estimates
across policies share paths (common random numbers).

Randomness is counter-based and splittable: path i of a run seeded s draws
from Philox keyed (s, i).  A run is one fan-out over blocks of paths on the
process's one thread pool (``_shared.map_in_order``): each block is drawn,
scanned and stopped, and writes its paths' g and tau into whole-run arrays,
which are reduced once, so results are independent of the block size and
of the number of workers, and bit-reproducible on one platform.  Each run
owns a ``_shared.Scratch``: a thread draws and scans every block it runs
in the same two block-sized arrays (path, interval products), which the
run frees when it ends; only ``simulate_paths`` hands its arrays to the
caller.  A block holds at most 2e6 / workers path values, so each array is
at most about 16 MB / workers (8 MB at 4000 steps on two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import ProblemSpec
from .boundaries import BoundaryPair
from . import _shared
from ._shared import write_csv

MAX_STORED_PATHS = 10_000

# Path values in flight across all workers (see ``_scan``).
_BLOCK_VALUES = 2_000_000


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
                scratch: _shared.Scratch):
    """Paths [start, start+n) and two uniforms per path (``u[:, 0]`` picks
    the last zero's interval, ``u[:, 1]`` places it), drawn into ``scratch``
    from each path's own substream: n_steps normals, then the uniforms."""
    dt = spec.T / cfg.n_steps
    scale, drift = np.sqrt(dt), spec.mu * dt
    w = scratch.array("w", (n, cfg.n_steps + 1))
    w[:, 0] = 0.0
    u = scratch.array("u", (n, 2))
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([cfg.seed, start + i], dtype=np.uint64)))
        np.cumsum(drift + scale * rng.standard_normal(cfg.n_steps),
                  out=w[i, 1:])
        rng.random(out=u[i])
    return w, u


def simulate_paths(spec: ProblemSpec, cfg: SimConfig) -> PathEnsemble:
    """Materialize an ensemble (small runs only; see MAX_STORED_PATHS)."""
    if cfg.n_paths > MAX_STORED_PATHS:
        raise ValueError(
            f"n_paths={cfg.n_paths} exceeds the {MAX_STORED_PATHS}-path "
            "storage guard; use evaluate_policy / evaluate_policies, "
            "which keep one block of paths per thread")
    times = np.linspace(0.0, spec.T, cfg.n_steps + 1)
    w, _ = _draw_chunk(spec, cfg, 0, cfg.n_paths, _shared.Scratch())
    return PathEnsemble(spec=spec, cfg=cfg, times=times, paths=w)


def _last_zeros(times, w, u, bridge_on: bool,
                scratch: _shared.Scratch) -> np.ndarray:
    """Last zeros of a block of paths.  ``q[:, k]``, the chance that
    interval k holds no zero, is written into ``scratch`` and turned by a
    reversed running product into P(no zero after t_k), from which
    ``u[:, 0]`` picks the last interval with a zero by inverse CDF."""
    dt = times[1] - times[0]
    a = w[:, :-1]
    b = w[:, 1:]
    q = np.multiply(a, b, out=scratch.array("q", a.shape))
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


def _scan(spec: ProblemSpec, cfg: SimConfig, rules):
    """Every path's last zero g (n_paths,) and every rule's tau
    (len(rules), n_paths), in one fan-out over blocks of paths.

    There are as many blocks as workers or more (unless there are fewer
    paths), and a block holds at most ``_BLOCK_VALUES / workers`` path
    values (but at least one path); numpy's draws and array
    arithmetic release the interpreter lock, so the blocks run in parallel.
    Each block writes its own slice of the outputs.  Each thread draws and
    scans its blocks in the same block-sized arrays of the run's own
    ``Scratch``, freed when the run ends.
    """
    n_workers = _shared.workers()
    block = max(1, min(-(-cfg.n_paths // n_workers),
                       _BLOCK_VALUES // (n_workers * (cfg.n_steps + 1))))
    times = np.linspace(0.0, spec.T, cfg.n_steps + 1)
    scratch = _shared.Scratch()
    g = np.empty(cfg.n_paths)
    taus = np.empty((len(rules), cfg.n_paths))

    def run(start):
        stop = min(start + block, cfg.n_paths)
        w, u = _draw_chunk(spec, cfg, start, stop - start, scratch)
        g[start:stop] = _last_zeros(times, w, u, cfg.bridge_correction, scratch)
        for tau, rule in zip(taus, rules):
            tau[start:stop] = rule.taus(times, w)

    _shared.map_in_order(run, range(0, cfg.n_paths, block))
    return g, taus


def collect_last_zeros(spec: ProblemSpec, cfg: SimConfig) -> np.ndarray:
    """The n_paths last-zero times of the ensemble, in path order."""
    return _scan(spec, cfg, [])[0]


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
    """One pass over the ensemble scoring every rule on the same paths.

    ``records`` (n_paths rows of PER_PATH_DTYPE) gets the first rule's rows.
    Raises ``ValueError`` for an ``OptimalRule`` solved for another spec.
    """
    rules = list(rules)
    for bp in (rule.bp for rule in rules if isinstance(rule, OptimalRule)):
        if bp.spec != spec:
            raise ValueError(f"{spec} does not match the boundaries' {bp.spec}")
    if records is not None and (not rules or records.shape != (cfg.n_paths,)):
        raise ValueError("records need a rule and one row per path")
    g, taus = _scan(spec, cfg, rules)
    err = np.abs(g - taus)
    n = cfg.n_paths
    if records is not None:
        records["path_id"] = np.arange(n)
        records["g"], records["tau"], records["abs_error"] = g, taus[0], err[0]
    out = []
    for rule, e in zip(rules, err):
        mean = e.sum() / n
        var = max((e * e).sum() / n - mean * mean, 0.0) * (n / max(n - 1, 1))
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
