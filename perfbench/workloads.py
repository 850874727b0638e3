"""The benchmark's workloads: one per CLI command a user runs.

Each workload turns the run's seed into a sequence of ``lastzero`` command
lines (and, for ``value`` and ``simulate``, the boundary files they read),
prepares what those need in ``setup``, and checks each op's outputs against
references computed outside the timed interval.

Ops come in groups of four that share one vector of seeded uniforms ``u``:
ops ``4k`` and ``4k+1`` reflect (``u -> 1 - u``) only the odd or only the
even coordinates, op ``4k+2`` uses ``u`` and op ``4k+3`` uses ``1 - u``.
Each op's inputs keep their stated distribution, but a group covers all
four corners of (horizon, |drift|), and its first two ops already pair a
long, weakly drifted solve with a short, strongly drifted one.  So the
median and mean over the few ops of a run vary little from seed to seed,
although a solve's cost grows with both.  The loop issues ops in whole
pairs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

T_RANGE = (0.25, 4.0)       # horizons of value and simulate ops, log-uniform
# Solve ops draw (|mu|, T) from a grid whose every point the program solves
# to within the checks' bounds.  The solver's tolerances are absolute (it is
# not scale-covariant), and on a continuous range it fails at scattered
# points: some exit 3 with a monotonicity clamp (mu = 0.5, T = 0.5;
# mu = 0.4000374497889905, T = 2.2502260926324302; mu = 0,
# T = 2.8284271247461903), others exit 0 with a certificate/T above
# RESIDUAL_REL (mu = -0.7246776396651353, T = 0.2967885639397623 gives
# 1.7e-5).  Every op of a run must pass its checks, so the points are fixed
# and each was checked at SOLVE_STEPS, both signs of mu: the worst
# certificate/T is 2.2e-6, the worst sup-norm/sqrt(T) 0.0142.
SOLVE_MU_ABS = (0.0, 0.5, 1.0, 1.5, 2.0)
SOLVE_T = (2.0, 4.0)
SOLVE_STEPS = 400           # solve ops: the CLI's default grid
BASE_STEPS = 10             # set-up solves of the (nu, 1) base problems
NU_MAX = 2.0                # base drifts nu and NU_MAX - nu, nu ~ U[0, 1)
SIM_PATHS = 10_000
SIM_STEPS = 4_000
LATTICE = (2000, 2001)
CERT_STRIDE = 20            # certificate at every 20th solver grid node

# Acceptance bounds, scaled to the problem: residuals and V by T, boundary
# distances by sqrt(T).
RESIDUAL_REL = 1e-5
SUP_NORM_REL = 0.02
V00_REL = 2e-3
VSTAR_REL = 1e-6
MC_Z = 4.0


def log_uniform(u: float, lo: float = T_RANGE[0], hi: float = T_RANGE[1]):
    return lo * (hi / lo) ** u


def pick(values, u: float):
    """values[k] for u in [k/n, (k+1)/n); u -> 1 - u picks values[n-1-k]."""
    return values[min(int(u * len(values)), len(values) - 1)]


def sqrt_pair(lz, spec, n: int = 400):
    """A monotone boundary pair of the optimal rule's shape, +-1.1 sqrt(T-t)."""
    grid = spec.T * (1.0 - (np.arange(n, -1, -1) / n) ** 2)
    b = 1.1 * np.sqrt(np.maximum(spec.T - grid, 0.0))
    b[-1] = 0.0
    return lz.boundaries.BoundaryPair(spec=spec, grid=grid, b_minus=-b,
                                      b_plus=b.copy())


def mean_g_unit(nu: float) -> float:
    """E g for drift nu on [0, 1]: (1 - exp(-nu^2/2)) / nu^2, 1/2 at nu = 0."""
    if abs(nu) < 1e-6:
        return 0.5 - nu * nu / 8.0
    return -math.expm1(-0.5 * nu * nu) / (nu * nu)


@dataclass
class Op:
    id: int
    argv: list[str]
    inputs: dict
    out: str | None = None        # output directory or file the op writes

    def replay(self, root: str) -> str:
        """The op as one shell command line, paths relative to ``root``."""
        words = [os.path.relpath(w, root) if os.path.isabs(w) else w
                 for w in self.argv]
        return "lastzero " + " ".join(words)


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None      # traceback if the call raised
    checks: dict = field(default_factory=dict)


class Workload:
    name = ""
    index = 0
    # non-zero exit codes the CLI documents for this command; such an op
    # counts as failed but not as a wrong answer
    documented_exits: frozenset[int] = frozenset()

    def __init__(self, lz, seed: int, work: str):
        self.lz = lz
        self.seed = seed
        self.work = work

    def uniforms(self, i: int, n: int) -> np.ndarray:
        """n uniforms for op i, reflected by its place in its group of 4."""
        u = np.random.default_rng([self.seed, self.index, i // 4, 0]).random(n)
        odd = np.arange(n) % 2 == 1
        reflect = (odd, ~odd, np.zeros(n, bool), np.ones(n, bool))[i % 4]
        return np.where(reflect, 1.0 - u, u)

    def op_rng(self, i: int) -> np.random.Generator:
        """A generator of op i's own, for draws that are not paired."""
        return np.random.default_rng([self.seed, self.index, i, 1])

    def setup(self, run_cli) -> None:
        """Prepare inputs and references; ``run_cli(argv)`` runs a warm-up."""

    def make_op(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> dict:
        """Check values by name, each mapped to ``(value, bound)``; an op
        passes a check when value <= bound."""
        raise NotImplementedError


class Solve(Workload):
    """``lastzero solve`` at (mu, T): |mu| uniform on SOLVE_MU_ABS, T uniform
    on SOLVE_T, the sign of mu uniform."""

    name = "solve"
    index = 0
    documented_exits = frozenset({3})   # non-convergence, invariant clamp

    def _argv(self, mu, T, n_steps, out):
        return ["solve", "--mu", repr(float(mu)), "--horizon", repr(float(T)),
                "--n-steps", str(n_steps), "--out", out]

    def setup(self, run_cli):
        run_cli(self._argv(0.5, 1.0, 16, os.path.join(self.work, "warmup")))

    def make_op(self, i):
        u_abs, u_t, u_sign = self.uniforms(i, 3)
        mu = pick(SOLVE_MU_ABS, u_abs)
        if mu and u_sign >= 0.5:
            mu = -mu
        T = pick(SOLVE_T, u_t)
        out = os.path.join(self.work, f"op{i}")
        return Op(i, self._argv(mu, T, SOLVE_STEPS, out),
                  {"mu": mu, "T": T, "n_steps": SOLVE_STEPS}, out)

    def check(self, op, outcome):
        lz = self.lz
        with open(os.path.join(op.out, "boundaries.json"),
                  encoding="utf-8") as fh:
            bp = lz.boundaries.BoundaryPair.from_json_dict(json.load(fh))
        spec = bp.spec
        T = op.inputs["T"]
        cert = lz.boundaries.boundary_residuals(spec, bp,
                                                bp.grid[::CERT_STRIDE])
        _, lattice = lz.bellman.bellman_solve(
            spec, lz.bellman.LatticeSpec(*LATTICE))
        sup = lz.bellman.oracle_compare(bp, lattice).sup_norm
        return {
            "spec_mismatch": (float(spec.mu != op.inputs["mu"]
                                    or spec.T != T), 0.0),
            "boundaries.max_residual_rel":
                (float(np.nanmax(np.abs(bp.residuals))) / T, RESIDUAL_REL),
            "boundaries.certificate_rel":
                (float(np.max(np.abs(cert))) / T, RESIDUAL_REL),
            "boundaries.sup_norm_vs_lattice_rel":
                (sup / math.sqrt(T), SUP_NORM_REL),
        }


class _Rescaled(Workload):
    """Ops on boundary files made by Brownian rescaling of base solves.

    b±(t; nu/sqrt(T), T) = sqrt(T) b±(t/T; nu, 1), and the drift flip
    b±(t; -mu, T) = -b∓(t; mu, T), so two base solves in set-up give each
    op a file for its own (mu, T) without a solve per op.
    """

    def __init__(self, lz, seed, work):
        super().__init__(lz, seed, work)
        nu = float(np.random.default_rng([seed, self.index]).random())
        self.nus = [nu, NU_MAX - nu]
        self.bases = []

    def setup(self, run_cli):
        lz = self.lz
        self.bases = [lz.boundaries.solve_boundaries(
            lz.closed_forms.ProblemSpec(mu=nu, T=1.0),
            lz.boundaries.SolverConfig(n_steps=BASE_STEPS))
            for nu in self.nus]
        # the warm-up op reads a fixed file, so its cost does not vary
        # with the seed's base drifts
        self.warmup = os.path.join(self.work, "warmup.json")
        sqrt_pair(lz, lz.closed_forms.ProblemSpec(mu=1.0, T=1.0)).save_json(
            self.warmup)

    def write_boundaries(self, name, base, sign, T) -> tuple[str, float]:
        bp = self.bases[base]
        r = math.sqrt(T)
        if sign > 0:
            bm, bpl, res = bp.b_minus * r, bp.b_plus * r, bp.residuals * T
        else:
            bm, bpl = -bp.b_plus * r, -bp.b_minus * r
            res = bp.residuals[:, ::-1] * T
        mu = sign * self.nus[base] / r
        pair = self.lz.boundaries.BoundaryPair(
            spec=self.lz.closed_forms.ProblemSpec(mu=mu, T=T),
            grid=bp.grid * T, b_minus=bm, b_plus=bpl, residuals=res)
        path = os.path.join(self.work, name)
        pair.save_json(path)
        return path, mu

    def draw(self, i, base):
        """Op i's uniforms, and its sign, horizon and boundary file."""
        u = self.uniforms(i, 4)
        sign = 1 if u[0] < 0.5 else -1
        T = log_uniform(float(u[1]))
        path, mu = self.write_boundaries(f"boundaries_{i}.json", base, sign,
                                         T)
        inputs = {"nu": self.nus[base], "base": base, "sign": sign,
                  "mu": mu, "T": T, "boundaries": path}
        return u[2:], path, inputs


class Value(_Rescaled):
    """``lastzero value`` with a grid near 100x200 and a CSV surface."""

    name = "value"
    index = 1

    def __init__(self, lz, seed, work):
        super().__init__(lz, seed, work)
        self.v00_lattice = {}

    def setup(self, run_cli):
        super().setup(run_cli)
        run_cli(["value", "--boundaries", self.warmup, "--grid", "6x12",
                 "--out", os.path.join(self.work, "warmup")])

    def make_op(self, i):
        u, path, inputs = self.draw(i, base=(i // 2) % 2)
        n_t, n_x = 98 + int(5 * u[0]), 196 + int(9 * u[1])
        inputs["grid"] = [n_t, n_x]
        out = os.path.join(self.work, f"op{i}")
        return Op(i, ["value", "--boundaries", path, "--grid",
                      f"{n_t}x{n_x}", "--out", out], inputs, out)

    def _lattice_v00(self, base):
        """V(0, 0) of the base problem (nu, 1) from the lattice oracle."""
        if base not in self.v00_lattice:
            lz = self.lz
            surface, _ = lz.bellman.bellman_solve(
                lz.closed_forms.ProblemSpec(mu=self.nus[base], T=1.0),
                lz.bellman.LatticeSpec(*LATTICE))
            self.v00_lattice[base] = float(
                np.interp(0.0, surface.x_grid, surface.values[0]))
        return self.v00_lattice[base]

    def check(self, op, outcome):
        T = op.inputs["T"]
        printed = dict(line.split(" = ") for line in
                       outcome.stdout.splitlines() if " = " in line)
        v00, vstar = float(printed["V(0,0)"]), float(printed["V*"])
        with open(os.path.join(op.out, "surface.csv"), encoding="utf-8") as fh:
            rows = [line for line in fh if not line.startswith("#")][1:]
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
        n_t, n_x = op.inputs["grid"]
        values = table[:, 2].reshape(n_t, n_x)
        ref = T * self._lattice_v00(op.inputs["base"])
        eg = T * mean_g_unit(op.inputs["nu"])
        return {
            "value.shape_mismatch": (float(table.shape[0] != n_t * n_x), 0.0),
            "value.surface_max": (float(values.max()), 0.0),
            "value.terminal_row_max_abs":
                (float(np.max(np.abs(values[-1]))), 0.0),
            "value.v00_err_vs_lattice_rel": (abs(v00 - ref) / T, V00_REL),
            "value.vstar_err_vs_closed_form_rel":
                (abs(vstar - v00 - eg) / T, VSTAR_REL),
        }


class Simulate(_Rescaled):
    """``lastzero simulate`` with 1e4 paths x 4000 steps, policies cycled."""

    name = "simulate"
    index = 2
    POLICIES = ("optimal", "scaled_optimal", "sqrt_rule", "fixed_time")

    def __init__(self, lz, seed, work):
        super().__init__(lz, seed, work)
        self.vstar = []

    def setup(self, run_cli):
        super().setup(run_cli)
        lz = self.lz
        self.vstar = [
            lz.value.value_at(bp.spec, bp, 0.0, 0.0) + mean_g_unit(nu)
            for bp, nu in zip(self.bases, self.nus)]
        run_cli(["simulate", "--boundaries", self.warmup, "--paths", "200",
                 "--steps", "400", "--seed", "0"])

    def make_op(self, i):
        u, path, inputs = self.draw(i, base=(i // 4) % 2)
        kind = self.POLICIES[i % 4]
        arg = {"optimal": None,
               "scaled_optimal": 0.7 + 0.7 * float(u[0]),
               "sqrt_rule": 0.8 + 0.8 * float(u[0]),
               "fixed_time": inputs["T"] * (0.25 + 0.5 * float(u[0])),
               }[kind]
        policy = kind if arg is None else f"{kind}:{arg!r}"
        mc_seed = int(self.op_rng(i).integers(2 ** 32))
        inputs.update(policy=policy, mc_seed=mc_seed)
        return Op(i, ["simulate", "--boundaries", path, "--paths",
                      str(SIM_PATHS), "--steps", str(SIM_STEPS), "--seed",
                      str(mc_seed), "--policy", policy], inputs)

    def check(self, op, outcome):
        T = op.inputs["T"]
        doc = json.loads(outcome.stdout.strip().splitlines()[-1])
        est, se = float(doc["estimate"]), float(doc["std_error"])
        ref = T * self.vstar[op.inputs["base"]]
        checks = {"montecarlo.estimate_outside_0_T":
                  (max(-est, est - T) / T, 0.0)}
        if op.inputs["policy"] == "optimal":
            checks["montecarlo.closure_z"] = (abs(est - ref) / se, MC_Z)
        else:
            checks["montecarlo.below_vstar_z"] = ((ref - est) / se, MC_Z)
        return checks


WORKLOADS = {w.name: w for w in (Solve, Value, Simulate)}
