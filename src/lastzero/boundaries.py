"""Backward solve of the coupled Volterra system for the stopping boundaries.

The optimal boundaries (b-, b+) are the unique pair, within the class
b- <= h- and b+ >= h+, solving

    int_0^{T-t} K(t, b±(t), s, b-(t+s), b+(t+s)) ds = 0,   b±(T) = 0,

where K is the stopping kernel (see :mod:`~lastzero.kernel`).  The sweep
runs backward from T on a grid uniform in v = sqrt(T - t), which matches the
square-root shape of the boundaries near the horizon.  Its one state is
the pair's own knot arrays: node k's iterate is knot k, and its windows read
the pair's interpolant.  Each node runs one Newton loop from a warm start
extrapolated in v, with the exact Jacobian of the discrete equations from
the residual's kernel pass and every step cut back to a fixed maximum
length.  It stops only once a taken step is within ``tol_b`` and the
residuals within ``tol_res``: smooth fit makes the residual nearly flat in
x, so a small residual alone leaves the answer far from the discrete one.

By Brownian scaling the problem has one parameter, nu = mu sqrt(T):

    b±(t; mu, T) = sqrt(T) b±(t/T; nu, 1),

and the residuals scale with T.  The sweep therefore solves only the
normalized problem (nu, 1) and maps its grid, boundaries and residuals back
in one place, so every step size and tolerance is relative to the problem's
own scale (``tol_b`` to sqrt(T), ``tol_res`` to T), and whether a solve
succeeds depends on nu and ``n_steps`` alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import ProblemSpec, h_curves
from .kernel import lag_rule, lag_integral_batch
from ._shared import integer_fields, map_in_order, write_csv, write_json

JSON_SCHEMA = "lastzero.boundaries.v1"

# Newton step limit, in the units of the normalized problem (nu, 1), where
# the boundaries are O(1).
_STEP_LIMIT = 0.25

# Iterations of one step's Newton solve.
MAX_ITER = 200

# An iterate further than this many standard deviations sqrt(T - t) of its
# node's longest lag beyond the next knot has left the window's reach: it
# runs off towards the equations' trivial root at |x| -> infinity.  Every
# solve that certifies stays within 2.1 (measured over nu in [-50, 50] and
# n_steps from 2 to 400; 1.3 at n_steps = 400 and |nu| <= 10).
_RUNAWAY = 4.0


class NonConvergenceError(RuntimeError):
    """Raised when a per-step solve ends without converging.

    ``cause`` says why: the iteration budget ran out, or the residual or
    its Jacobian was non-finite, or the Jacobian singular.  ``t`` and
    ``residual`` are those of the normalized problem: t/T and residual/T.
    """

    def __init__(self, step: int, t: float, residual: float, nu: float,
                 n_steps: int, cause: str = "iteration budget exhausted"):
        self.step = step
        self.t = t
        self.residual = residual
        self.cause = cause
        super().__init__(
            f"boundary solve stalled at step {step} (t/T={t:.6g}): {cause}, "
            f"residual/T {residual:.3e}, for nu = mu*sqrt(T) = {nu:.6g} "
            f"with n_steps = {n_steps}")


class InvariantViolationError(RuntimeError):
    """Raised when enforcing a structural invariant needs a large clamp."""


@dataclass(frozen=True)
class SolverConfig:
    n_steps: int = 400
    tol_res: float = 1e-6

    def __post_init__(self):
        integer_fields(self, n_steps=1)
        # NaN fails too; inf would switch off the residual stop test
        if not 0.0 < self.tol_res < np.inf:
            raise ValueError(
                f"tol_res must be positive and finite, got {self.tol_res}")

    @property
    def tol_b(self) -> float:
        """Step tolerance, relative to sqrt(T), derived from ``tol_res``."""
        return min(1e-7, self.tol_res / 10.0)


@dataclass(frozen=True)
class BoundaryPair:
    """Solved stopping boundaries on an ascending time grid 0 = t0 < ... = T.

    ``residuals`` holds the achieved equation residual per grid point, one
    column per boundary (NaN where no equation was solved, e.g. lattice
    extractions and the terminal point).
    """

    spec: ProblemSpec
    grid: np.ndarray
    b_minus: np.ndarray
    b_plus: np.ndarray
    residuals: np.ndarray = field(default=None)  # (n+1, 2): [res-, res+]

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        bm = np.asarray(self.b_minus, dtype=float)
        bp = np.asarray(self.b_plus, dtype=float)
        res = self.residuals
        if res is None:
            res = np.full((grid.size, 2), np.nan)
        res = np.asarray(res, dtype=float)
        if not (grid.shape == bm.shape == bp.shape) or grid.ndim != 1:
            raise ValueError("grid and boundary arrays must share one shape")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(bm))
                and np.all(np.isfinite(bp))):
            raise ValueError("grid and boundary values must be finite")
        if res.shape != (grid.size, 2):
            raise ValueError("residuals must have shape (len(grid), 2)")
        if grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be ascending with >= 2 points")
        # tolerances scale with the problem: times with T, b± with sqrt(T)
        T = self.spec.T
        if abs(grid[0]) > 1e-12 * T or abs(grid[-1] - T) > 1e-12 * T:
            raise ValueError("grid must span [0, T]")
        if bm[-1] != 0.0 or bp[-1] != 0.0:
            raise ValueError("terminal condition b±(T) = 0 violated")
        tol_b = 1e-12 * np.sqrt(T)
        if np.any(np.diff(bm) < -tol_b) or np.any(np.diff(bp) > tol_b):
            raise ValueError("monotonicity of b± violated")
        if np.any(bm > 0.0) or np.any(bp < 0.0):
            raise ValueError("sign pattern b- <= 0 <= b+ violated")
        for name, arr in (("grid", grid), ("b_minus", bm), ("b_plus", bp),
                          ("residuals", res)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    def interpolate(self, t):
        """Monotone piecewise-linear (b-(t), b+(t)); exact at grid nodes."""
        t, T = np.asarray(t, dtype=float), self.spec.T
        if not np.all((t >= -1e-12 * T) & (t <= T * (1 + 1e-12))):  # NaN fails
            raise ValueError("t outside [0, T]")
        tc = np.clip(t, 0.0, T)
        return (np.interp(tc, self.grid, self.b_minus),
                np.interp(tc, self.grid, self.b_plus))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self, config: SolverConfig | None = None) -> dict:
        out = {
            "schema": JSON_SCHEMA,
            "spec": {"mu": self.spec.mu, "T": self.spec.T},
            "grid": self.grid.tolist(),
            "b_minus": self.b_minus.tolist(),
            "b_plus": self.b_plus.tolist(),
            "residual_minus": self.residuals[:, 0].tolist(),
            "residual_plus": self.residuals[:, 1].tolist(),
        }
        if config is not None:
            out["config"] = {
                "n_steps": config.n_steps, "max_iter": MAX_ITER,
                "tol_b": config.tol_b, "tol_res": config.tol_res,
            }
        return out

    def save_json(self, path, config: SolverConfig | None = None,
                  manifest_hash: str | None = None) -> None:
        doc = self.to_json_dict(config)
        if manifest_hash is not None:
            doc["manifest_hash"] = manifest_hash
        write_json(path, doc)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BoundaryPair":
        if not isinstance(doc, dict):
            raise SchemaError("boundary JSON must be an object")
        if doc.get("schema") != JSON_SCHEMA:
            raise SchemaError(
                f"unknown boundary schema {doc.get('schema')!r}; "
                f"expected {JSON_SCHEMA!r}")
        try:
            spec = ProblemSpec(mu=float(doc["spec"]["mu"]),
                               T=float(doc["spec"]["T"]))
            res = np.column_stack([doc["residual_minus"],
                                   doc["residual_plus"]])
            return cls(spec=spec, grid=np.array(doc["grid"]),
                       b_minus=np.array(doc["b_minus"]),
                       b_plus=np.array(doc["b_plus"]), residuals=res)
        except KeyError as exc:
            raise SchemaError(f"boundary file lacks key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"malformed boundary file: {exc}") from exc

    @classmethod
    def load_json(cls, path):
        """Read a boundary file: ``(pair, source)``, where ``source`` is
        what a consumer's manifest records of the file from the same read:
        its name, its sha256 and the ``manifest_hash`` it carries (None if
        none).  Malformed content raises :class:`SchemaError` naming
        ``path``."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            doc = json.loads(data.decode("utf-8"))
            pair = cls.from_json_dict(doc)
        except ValueError as exc:   # also undecodable bytes and bad JSON
            raise SchemaError(f"{path}: {exc}") from exc
        return pair, {"name": os.path.basename(path),
                      "sha256": hashlib.sha256(data).hexdigest(),
                      "manifest_hash": doc.get("manifest_hash")}

    def save_csv(self, path, manifest_hash: str | None = None) -> None:
        hc = h_curves(self.spec, self.grid)
        cols = (self.grid, self.b_minus, self.b_plus, hc.h_minus, hc.h_plus,
                self.residuals[:, 0], self.residuals[:, 1])
        write_csv(path,
                  ["t", "b_minus", "b_plus", "h_minus", "h_plus",
                   "residual_minus", "residual_plus"],
                  ([f"{v:.17g}" for v in row] for row in zip(*cols)),
                  {"manifest_hash": manifest_hash})


class SchemaError(ValueError):
    """Unrecognized or malformed serialized artifact."""


def sqrt_time_grid(T: float, n_steps: int) -> np.ndarray:
    """Grid uniform in v = sqrt(T - t): t_k = T(1 - ((n-k)/n)^2)."""
    k = np.arange(n_steps + 1)
    return T * (1.0 - ((n_steps - k) / n_steps) ** 2)


def _newton_step(r, jac):
    """``(step, None)`` with the Newton step -jac^-1 r, or ``(None, cause)``
    naming why the iterate admits none."""
    if not np.all(np.isfinite(r)):
        return None, "non-finite residual"
    if not np.all(np.isfinite(jac)):
        return None, "non-finite Jacobian"
    try:
        step = np.linalg.solve(jac, -r)
    except np.linalg.LinAlgError:
        return None, "singular Jacobian"
    if not np.all(np.isfinite(step)):
        return None, "singular Jacobian"
    return step, None


def solve_boundaries(spec: ProblemSpec,
                     cfg: SolverConfig = SolverConfig()) -> BoundaryPair:
    """Sweep k = n-1 .. 0 solving the two coupled equations at each node.

    The sweep solves the normalized problem (nu, 1), nu = mu sqrt(T), and
    returns its solution rescaled to ``spec``: grid times T, boundaries
    times sqrt(T), residuals times T.  Node k's iterate is the knot
    (b-[k], b+[k]) of the arrays being filled, so its windows read the
    interpolant ``BoundaryPair.interpolate`` later gives.  It starts
    extrapolated linearly in v = sqrt(T - t) from knots k+1, k+2 and
    clipped into the h±-class; then one loop evaluates the kernel (the
    residual and its exact Jacobian), stops once the last taken step moved
    each boundary by at most ``tol_b`` and both residuals are within
    ``tol_res`` (normalized), and else takes the Newton step scaled back to
    the step limit in its longest component (Dennis & Schnabel 1996,
    ch. 5-6) and clipped into the h±-class.
    Raises :class:`NonConvergenceError` on iteration exhaustion, a
    non-finite residual or Jacobian, or a singular Jacobian, and
    :class:`InvariantViolationError` if the h± curves cannot be bracketed
    or the final monotonicity clamp moves any value by more than 10*tol_b.
    """
    n = cfg.n_steps
    root_T = np.sqrt(spec.T)
    unit = ProblemSpec(mu=spec.mu * root_T, T=1.0)
    grid = sqrt_time_grid(1.0, n)
    # H overflows harmlessly far out, and a non-finite residual or
    # Jacobian ends the node with a NonConvergenceError naming it, so
    # numpy's floating-point warnings are off for the sweep
    with np.errstate(all="ignore"):
        try:
            hc = h_curves(unit, grid)
        except RuntimeError as exc:
            raise InvariantViolationError(
                f"the zero curves h± of H cannot be bracketed for nu = "
                f"mu*sqrt(T) = {unit.mu:.6g} with n_steps = {n}") from exc
        bm, bp, res = np.zeros(n + 1), np.zeros(n + 1), np.zeros((n + 1, 2))

        for k in range(n - 1, -1, -1):
            t_k = grid[k]
            rule = lag_rule(1.0 - t_k)
            u = t_k + rule.nodes
            # weight of the iterate's knot in the window edges per lag node
            knot_weights = np.interp(u, grid[k:k + 2], [1.0, 0.0])
            # uniform in v: extrapolate 2b1 - b2; node n-1 starts at b(T) = 0
            bm[k] = min(2.0 * bm[k + 1] - bm[min(k + 2, n)], hc.h_minus[k])
            bp[k] = max(2.0 * bp[k + 1] - bp[min(k + 2, n)], hc.h_plus[k])
            taken = np.inf
            for i in range(MAX_ITER + 1):
                x = np.array([bm[k], bp[k]])
                r, d_x, d_beta = lag_integral_batch(
                    unit, t_k, x, np.interp(u, grid, bm),
                    np.interp(u, grid, bp), rule, knot_weights=knot_weights)
                if taken <= cfg.tol_b and np.max(np.abs(r)) <= cfg.tol_res:
                    break
                if i == MAX_ITER:
                    cause = "iteration budget exhausted"
                else:
                    step, cause = _newton_step(r, d_beta + np.diag(d_x))
                if cause is not None:
                    raise NonConvergenceError(
                        k, t_k, float(np.max(np.abs(r))), unit.mu, n, cause)
                longest = np.max(np.abs(step))
                if longest > _STEP_LIMIT:
                    step *= _STEP_LIMIT / longest
                bm[k] = min(x[0] + step[0], hc.h_minus[k])
                bp[k] = max(x[1] + step[1], hc.h_plus[k])
                taken = max(abs(bm[k] - x[0]), abs(bp[k] - x[1]))
                off = max(bm[k + 1] - bm[k], bp[k] - bp[k + 1]) \
                    / np.sqrt(1.0 - t_k)
                if off > _RUNAWAY:
                    raise NonConvergenceError(
                        k, t_k, float(np.max(np.abs(r))), unit.mu, n,
                        f"iterate ran off {off:.3g} sd beyond the next knot, "
                        f"towards the trivial root")
            res[k] = r

    # enforce monotonicity exactly; large clamps signal a grid problem
    bm_c = np.minimum.accumulate(bm[::-1])[::-1]
    bp_c = np.maximum.accumulate(bp[::-1])[::-1]
    clamp = max(np.max(bm - bm_c), np.max(bp_c - bp))
    bm, bp = bm_c, bp_c
    if clamp > 10.0 * cfg.tol_b:
        raise InvariantViolationError(
            f"monotonicity clamp of {clamp:.3e} (relative to sqrt(T)) "
            f"exceeds 10*tol_b={10 * cfg.tol_b:.3e} for nu = mu*sqrt(T) = "
            f"{unit.mu:.6g} with n_steps = {n}; refine the time grid")
    return BoundaryPair(spec=spec, grid=grid * spec.T, b_minus=bm * root_T,
                        b_plus=bp * root_T, residuals=res * spec.T)


def boundary_residuals(spec: ProblemSpec, bp: BoundaryPair,
                       times) -> np.ndarray:
    """Re-evaluate both Volterra equations at given times, shape (m, 2).

    Uses an independent quadrature (256 lag nodes, 128 Gauss-Legendre nodes
    on each side of H's kink) and the solved pair's own interpolant for the
    windows, so the result certifies the returned object rather than the
    solver's internals.  Its times are kernel calls fanned out over the
    thread pool.  Raises ``ValueError`` if ``spec`` is not ``bp.spec``.
    """
    if spec != bp.spec:
        raise ValueError(f"{spec} does not match the boundaries' {bp.spec}")

    def residual(t):
        if t >= spec.T:
            return np.zeros(2)
        rule = lag_rule(spec.T - t, 256)
        zm, zp = bp.interpolate(t + rule.nodes)
        return lag_integral_batch(spec, t, np.array(bp.interpolate(t)), zm,
                                  zp, rule, n_gl=128)

    times = np.atleast_1d(np.asarray(times, dtype=float))
    return np.array(map_in_order(residual, times)).reshape(times.size, 2)
