"""Seeded Monte Carlo for E|g - tau| under grid stopping policies.

Paths of B^mu on a uniform grid come from exact Gaussian increments (the
process is Gaussian; there is no Euler error).  The last zero g of a path
lies in the last grid interval holding a zero: a sign change or a landing
on 0 holds one surely, two same-sign endpoints one with the Brownian-bridge
probability exp(-2 x_k x_{k+1} / dt), independently across intervals.  One
uniform per path picks that interval by inverse CDF, which only the near
intervals after the last sure zero decide (``_last_zeros``); g is placed by
linear interpolation across a sign change and uniformly in a bridge
interval.  Policies stop at the first grid time in their stopping set;
estimates across policies share paths (common random numbers).

Randomness is counter-based and splittable: path i of a run seeded s draws
from Philox keyed (s, i); one generator, re-keyed for each path, draws a
block's paths.  A run is one fan-out over blocks of paths on the process's
one thread pool (``_shared.map_in_order``): each block is drawn, scanned
and stopped, and writes its paths' g and tau into whole-run arrays, which
are reduced once, so results are independent of the block size and of the
number of workers, and bit-reproducible on one platform.  Each run owns a
``_shared.Scratch``: a thread draws and scans every block it runs in the
same two block-sized arrays (path, interval products), which the run frees
when it ends; only ``simulate_paths`` hands its arrays to the caller.  A
block holds at most ``_BLOCK_INTERVALS`` / workers intervals, so each array
is at most about 4 MB / workers (2 MB at 4000 steps on two).  The pick
takes a whole block at once, with a one-byte mask per interval and index
lists of about 32 bytes per near interval; at 16 steps half the intervals
are near.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass

import numpy as np

from .closed_forms import ProblemSpec
from .boundaries import BoundaryPair
from . import _shared
from ._shared import write_csv

MAX_STORED_PATHS = 10_000

# Intervals in flight across all workers (see ``_scan``): the pick's index
# lists hold about 32 bytes per near interval, and at 16 steps half the
# intervals are near.  On two CPUs 2^20 ran 1e4 x 4000 about 4% faster but
# peaked at 29 MB at 1e5 x 16, twice as high, and 2^18 was about 7% slower
# at 1e4 x 4000 (BENCH_mc_one_bound.json).
_BLOCK_INTERVALS = 2 ** 19

# Blocks of shorter paths take turns to draw (see ``_scan``).  On two CPUs
# free draws lost every run up to 320 steps and won 24 of 36 at 384 and 19
# of 20 at 448 (BENCH_cli_one_producer.json); turns at 4000 steps made
# ``simulate`` 38% slower (BENCH_mc_rekey_pick.json, BENCH_mc_one_bound.json).
_SHORT_PATH = 448

# 1 - exp(-2ab/dt) rounds to exactly 1.0 once ab >= _NEAR dt: exp(-40) is
# below 2^-54, half the spacing of doubles under 1.  This follows from
# float64; it is not a setting.
_NEAR = 20.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    n_steps: int
    seed: int

    def __post_init__(self):
        _shared.integer_fields(self, n_paths=1, n_steps=2, seed=0)
        if self.seed >= 2 ** 64:
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
    from each path's own substream: n_steps normals, then the uniforms.

    One Philox serves the block.  Re-keyed to (seed, path) with its counter
    at 0 and its buffer empty, it is in the state ``Philox(key=...)`` builds
    (0.5 us a path, against 12 us to build one).  Each path's normals go
    straight into its row; scale, drift and the running sum then run once
    over the block, with the per-element arithmetic of
    ``cumsum(drift + scale * z)`` per path.
    """
    dt = spec.T / cfg.n_steps
    scale, drift = np.sqrt(dt), spec.mu * dt
    w = scratch.array("w", (n, cfg.n_steps + 1))
    w[:, 0] = 0.0
    u = scratch.array("u", (n, 2))
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    key = [cfg.seed, start]         # the state Philox(key=key) starts in:
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    normals, uniforms = rng.standard_normal, rng.random
    for i, row, pair in zip(range(start, start + n), w[:, 1:], u):
        key[1] = i
        bitgen.state = fresh
        normals(out=row)
        uniforms(out=pair)
    steps = w[:, 1:]
    np.multiply(steps, scale, out=steps)
    np.add(steps, drift, out=steps)
    np.cumsum(steps, axis=1, out=steps)
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


def _last_zeros(times, w, u, scratch: _shared.Scratch) -> np.ndarray:
    """Last zeros of a block of paths: each row's interval picked by
    ``_pick`` with ``u[:, 0]``, then g placed in it with ``u[:, 1]``."""
    dt = times[1] - times[0]
    n, m = w.shape[0], w.shape[1] - 1
    last = _pick(w, u[:, 0], scratch.array("q", (n, m)), dt)
    rows = np.arange(n)
    a_k = w[rows, last]
    b_k = w[rows, last + 1]
    t_k = times[last]
    sign_change = a_k * b_k < 0.0
    denom = np.where(sign_change, a_k - b_k, 1.0)  # avoid 0/0 off-branch
    g = np.where(sign_change, t_k + dt * a_k / denom,
                 np.where(b_k == 0.0, t_k + dt, t_k + dt * u[:, 1]))
    return np.where(last >= 0, g, 0.0)


def _pick(w, u0, q, dt) -> np.ndarray:
    """Each row's last interval with a zero (-1 if none), using ``q``, of
    the shape of the intervals, as work space.

    Interval k holds no zero with chance q_k: 0 across a sure zero (a sign
    change, or a landing b == 0), 1 - exp(-2ab/dt) between same-sign ends
    (1 with a = 0).  ``u0`` picks the last interval with a zero by inverse
    CDF: the largest k with S_k = prod_{j >= k} q_j <= u0.  S_k is 0 up to
    the last sure zero k_s (so u0 = 0 picks k_s, unless a later product
    underflows to 0), and q_k is exactly 1.0 once ab >= _NEAR dt, so only
    the near intervals after k_s, those with ab < _NEAR dt (about 24 a path
    at 4000 steps), decide.  Their factors are multiplied right to left, as
    the products over whole rows would be, so each deciding S_k is the same
    double.
    """
    n, m = q.shape
    start = np.arange(0, n * m, m)      # each row's first flat index
    np.multiply(w[:, :-1], w[:, 1:], out=q)
    # sure zeros (ab < 0, or b == 0) are among the intervals with ab <= 0
    sure = np.flatnonzero(q <= 0.0)
    sure = sure[(q.ravel()[sure] < 0.0)
                | (w.ravel()[sure + sure // m + 1] == 0.0)]
    # each row's last sure zero k_s as a flat index, unless it is an
    # earlier row's (then the row has none)
    k_s = np.append(-1, sure)[np.searchsorted(sure, start + m)]
    last = np.maximum(k_s - start, -1)
    # the products up to k_s are spent: as inf they are not near
    np.copyto(q, np.inf, where=np.arange(m) <= last[:, None])
    near = np.flatnonzero(q < _NEAR * dt)
    first = np.searchsorted(near, start)
    size = np.diff(first, append=near.size)
    width = size.max(initial=0)
    factor = q.ravel()[near]
    with np.errstate(over="ignore", under="ignore"):
        factor[factor <= 0.0] = np.inf      # a = 0: 1 - exp(-inf) = 1
        np.negative(np.expm1(np.multiply(factor, -2 / dt, out=factor),
                             out=factor), out=factor)
        # each row's factors, then 1.0s, in ``q``, which is spent
        tail = q.ravel()[:n * width].reshape(n, width)
        tail.fill(1.0)
        at = np.repeat(np.arange(n) * width - first, size)
        at += np.arange(near.size)
        tail.ravel()[at] = factor
        del at, factor
        np.cumprod(tail[:, ::-1], axis=1, out=tail[:, ::-1])
    # S_k <= u0 holds for the first ``picked`` near intervals (u0 < 1)
    picked = np.count_nonzero(tail <= u0[:, None], axis=1)
    if near.size:                   # the index is -1 at worst, then unused
        last = np.where(picked > 0, near[first + picked - 1] - start, last)
    return last


def _scan(spec: ProblemSpec, cfg: SimConfig, rules):
    """Every path's last zero g (n_paths,) and every rule's tau
    (len(rules), n_paths), in one fan-out over blocks of paths.

    There are as many blocks as workers or more (unless there are fewer
    paths), and a block holds at most ``_BLOCK_INTERVALS / workers``
    intervals (but at least one path); numpy's draws and array
    arithmetic release the interpreter lock, so the blocks run in parallel.
    Paths shorter than ``_SHORT_PATH`` steps are the exception: their draw
    is mostly interpreter work (re-keying and two calls per path), threads
    that contend for the interpreter lock on every path run slower than
    one, so the blocks take turns to draw and only their scans overlap.
    Each block writes its own slice of the outputs.  Each thread draws and
    scans its blocks in the same block-sized arrays of the run's own
    ``Scratch``, freed when the run ends.
    """
    n_workers = _shared.workers()
    block = max(1, min(-(-cfg.n_paths // n_workers),
                       _BLOCK_INTERVALS // (n_workers * cfg.n_steps)))
    times = np.linspace(0.0, spec.T, cfg.n_steps + 1)
    scratch = _shared.Scratch()
    turns = (threading.Lock() if cfg.n_steps < _SHORT_PATH
             else contextlib.nullcontext())
    g = np.empty(cfg.n_paths)
    taus = np.empty((len(rules), cfg.n_paths))

    def run(start):
        stop = min(start + block, cfg.n_paths)
        with turns:
            w, u = _draw_chunk(spec, cfg, start, stop - start, scratch)
        g[start:stop] = _last_zeros(times, w, u, scratch)
        for tau, rule in zip(taus, rules):
            tau[start:stop] = rule.taus(times, w)

    _shared.map_in_order(run, range(0, cfg.n_paths, block))
    return g, taus


def collect_last_zeros(spec: ProblemSpec, cfg: SimConfig) -> np.ndarray:
    """The n_paths last-zero times of the ensemble, in path order."""
    return _scan(spec, cfg, [])[0]


# -- stopping rules -------------------------------------------------------


def _finite(kind: str, value: float) -> float:
    """A rule's parameter, which must be finite: with inf or NaN its
    terminal column need not stop, and ``taus`` would then read t = 0."""
    if not np.isfinite(value):
        raise ValueError(f"policy parameter must be finite, got "
                         f"'{kind}:{value:g}'")
    return value


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
        self.factor = _finite("scaled_optimal", factor)
        self.name = ("optimal" if factor == 1.0
                     else f"scaled_optimal:{float(factor)!r}")

    def stop_mask(self, times, w):
        zm, zp = self.bp.interpolate(times)
        return (w <= self.factor * zm) | (w >= self.factor * zp)


class SqrtRule(StoppingRule):
    """Stop when |B_t| >= z sqrt(T - t)."""

    def __init__(self, z: float, T: float):
        self.z = _finite("sqrt_rule", z)
        self.T = T
        self.name = f"sqrt_rule:{float(z)!r}"

    def stop_mask(self, times, w):
        thr = self.z * np.sqrt(np.maximum(self.T - times, 0.0))
        return (w <= -thr) | (w >= thr)


class FixedTimeRule(StoppingRule):
    """tau identically equal to a constant time (clipped to [0, T])."""

    def __init__(self, c: float, T: float):
        self.c = float(np.clip(_finite("fixed_time", c), 0.0, T))
        self.name = f"fixed_time:{float(c)!r}"

    def taus(self, times, w):
        return np.full(w.shape[0], self.c)


def parse_policy(text: str, spec: ProblemSpec,
                 bp: BoundaryPair | None = None) -> StoppingRule:
    """Parse CLI policy strings: optimal | fixed_time:C | sqrt_rule:Z |
    scaled_optimal:F."""
    kind, colon, arg = text.partition(":")
    if kind not in ("optimal", "scaled_optimal", "sqrt_rule", "fixed_time"):
        raise ValueError(f"unknown policy name {text!r}")
    if kind == "optimal" and colon:
        raise ValueError(f"policy 'optimal' takes no parameter, got {text!r}")
    if kind != "optimal" and not arg:
        raise ValueError(f"policy {kind!r} needs a parameter, got {text!r}")
    value = 1.0 if kind == "optimal" else float(arg)
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
              ((str(i), f"{g:.17g}", f"{tau:.17g}", f"{err:.17g}")
               for i, g, tau, err in records.tolist()),
              {"manifest_hash": manifest_hash})
