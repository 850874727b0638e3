"""Command-line interface: solve / value / simulate / compare / plot.

Every command is a pure function of its flags, input files, and seed.  A
JSON manifest with a content hash over (command, spec, config, version,
output names) accompanies the outputs, and each output references that
hash, so any figure or table can be traced to the exact invocation that
produced it.  A command that reads boundary files hashes each file's name,
sha256 and recorded ``manifest_hash`` in its config, so its hash follows
its inputs' content and a chain of commands can be followed back.  A
manifest is named for its command (``solve.manifest.json`` in ``--out``)
or its output file (``<file>.manifest.json``), so commands that write
into one directory keep each other's.  Reruns are
byte-identical except the manifest's timestamp and wall-time fields, which
stay outside the hash.

Exit codes: 0 ok, 2 bad arguments, 3 solver non-convergence (or a lattice
too coarse to resolve the boundaries), 4 I/O error, 5 schema mismatch in an
input file.  Past argparse's own usage errors, commands raise; ``main``
alone maps each failure class to its exit code, through ``_EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .closed_forms import ProblemSpec, mean_g
from .boundaries import (MAX_ITER, BoundaryPair, SolverConfig,
                         solve_boundaries, NonConvergenceError,
                         InvariantViolationError, SchemaError)
from .bellman import (LatticeSpec, LatticeTooCoarseError, bellman_solve,
                      oracle_compare)
from .value import build_value_surface, value_at
from .montecarlo import (MAX_STORED_PATHS, PER_PATH_DTYPE, SimConfig,
                         parse_policy, evaluate_policy, save_per_path_csv)
from .plotting import save_boundaries_svg
from ._shared import write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4
EXIT_SCHEMA = 5

# Failure class -> exit code; the first match wins, so SchemaError comes
# before ValueError, its base class.
_EXIT_CODES = (
    (SchemaError, EXIT_SCHEMA),
    (OSError, EXIT_IO),
    (NonConvergenceError, EXIT_NONCONVERGENCE),
    (InvariantViolationError, EXIT_NONCONVERGENCE),
    (LatticeTooCoarseError, EXIT_NONCONVERGENCE),
    (ValueError, EXIT_USAGE),
)


def _canonical_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _manifest_core(command: str, spec: dict, config: dict,
                   outputs: list[str]) -> tuple[dict, str]:
    core = {"command": command, "spec": spec, "config": config,
            "version": __version__, "outputs": sorted(outputs)}
    return core, _canonical_hash(core)


def _write_outputs(manifest_path: str, core: dict, manifest_hash: str,
                   t0: float, *writers) -> None:
    """Run each output writer, then write the manifest.

    The manifest's timestamp and wall time (since ``t0``) stay outside the
    hash.
    """
    for write in writers:
        write()
    write_json(manifest_path, dict(
        core, manifest_hash=manifest_hash,
        timestamp=datetime.now(timezone.utc).isoformat(),
        wall_time_s=round(time.monotonic() - t0, 3)))


def cmd_solve(args) -> int:
    t0 = time.monotonic()
    spec = ProblemSpec(mu=args.mu, T=args.horizon)
    cfg = SolverConfig(n_steps=args.n_steps, tol_res=args.tol)
    bp = solve_boundaries(spec, cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "boundaries.csv")
    json_path = os.path.join(args.out, "boundaries.json")
    core, h = _manifest_core(
        "solve", {"mu": spec.mu, "T": spec.T},
        {"n_steps": cfg.n_steps, "tol_res": cfg.tol_res, "tol_b": cfg.tol_b,
         "max_iter": MAX_ITER},
        ["boundaries.csv", "boundaries.json"])
    _write_outputs(
        os.path.join(args.out, "solve.manifest.json"), core, h, t0,
        lambda: bp.save_csv(csv_path, manifest_hash=h),
        lambda: bp.save_json(json_path, config=cfg, manifest_hash=h))
    print(f"wrote {csv_path} and {json_path} (manifest {h[:12]})")
    return EXIT_OK


def _parse_grid(flag: str, text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        n_t, n_x = int(a), int(b)
    except ValueError:
        raise ValueError(
            f"{flag} must look like 100x200, got {text!r}") from None
    if n_t < 2 or n_x < 2:
        raise ValueError(f"{flag} sizes must be >= 2")
    return n_t, n_x


def cmd_value(args) -> int:
    t0 = time.monotonic()
    bp, source = BoundaryPair.load_json(args.boundaries)
    n_t, n_x = _parse_grid("--grid", args.grid)
    spec = bp.spec
    surface = build_value_surface(spec, bp, n_t=n_t, n_x=n_x)
    v00 = value_at(spec, bp, 0.0, 0.0)
    vstar = v00 + mean_g(spec)
    print(f"V(0,0) = {v00:.10g}")
    print(f"V* = {vstar:.10g}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        core, h = _manifest_core(
            "value", {"mu": spec.mu, "T": spec.T},
            {"grid": args.grid, "boundaries": source},
            ["surface.csv"])
        _write_outputs(
            os.path.join(args.out, "value.manifest.json"), core, h, t0,
            lambda: surface.save_csv(os.path.join(args.out, "surface.csv"),
                                     manifest_hash=h))
    return EXIT_OK


def cmd_simulate(args) -> int:
    t0 = time.monotonic()
    # bad counts are refused before any file is read
    cfg = SimConfig(n_paths=args.paths, n_steps=args.steps, seed=args.seed)
    bp, source = BoundaryPair.load_json(args.boundaries)
    spec = bp.spec
    rule = parse_policy(args.policy, spec, bp)
    if args.dump and cfg.n_paths > MAX_STORED_PATHS:
        raise ValueError(f"--dump is limited to {MAX_STORED_PATHS} paths")
    # one pass scores the policy and fills the per-path dump
    records = np.empty(cfg.n_paths, PER_PATH_DTYPE) if args.dump else None
    report = evaluate_policy(spec, rule, cfg, records=records)
    core, h = _manifest_core(
        "simulate", {"mu": spec.mu, "T": spec.T},
        {"paths": args.paths, "steps": args.steps, "seed": args.seed,
         "policy": args.policy, "boundaries": source},
        [os.path.basename(p) for p in (args.out, args.dump) if p])
    doc = report.to_json_dict()
    doc["manifest_hash"] = h
    line = json.dumps(doc)
    print(line)
    if not (args.out or args.dump):
        return EXIT_OK

    def write():
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(line + "\n")
        if args.dump:
            save_per_path_csv(args.dump, records, manifest_hash=h)

    _write_outputs((args.out or args.dump) + ".manifest.json", core, h, t0,
                   write)
    return EXIT_OK


def cmd_compare(args) -> int:
    t0 = time.monotonic()
    spec = ProblemSpec(mu=args.mu, T=args.horizon)
    n_t, n_x = _parse_grid("--lattice", args.lattice)
    bp_int = solve_boundaries(spec, SolverConfig(n_steps=args.n_steps))
    _, bp_bell = bellman_solve(spec, LatticeSpec(n_t=n_t, n_x=n_x))
    rep = oracle_compare(bp_int, bp_bell)
    doc = rep.to_json_dict()
    doc["spec"] = {"mu": spec.mu, "T": spec.T}
    print(json.dumps(doc))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        core, h = _manifest_core(
            "compare", doc["spec"],
            {"n_steps": args.n_steps, "lattice": args.lattice},
            ["compare.json"])
        doc["manifest_hash"] = h
        _write_outputs(
            os.path.join(args.out, "compare.manifest.json"), core, h, t0,
            lambda: write_json(os.path.join(args.out, "compare.json"), doc))
    return EXIT_OK


def cmd_plot(args) -> int:
    t0 = time.monotonic()
    pairs, sources = zip(*map(BoundaryPair.load_json, args.boundaries))
    core, h = _manifest_core(
        "plot",
        {"mus": [p.spec.mu for p in pairs], "Ts": [p.spec.T for p in pairs]},
        {"inputs": list(sources)},
        [os.path.basename(args.out)])
    _write_outputs(
        args.out + ".manifest.json", core, h, t0,
        lambda: save_boundaries_svg(pairs, args.out, manifest_hash=h))
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lastzero",
        description="Optimal prediction of the last zero of Brownian motion "
                    "with drift: boundaries, value, simulation, plots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the boundary integral equations")
    p.add_argument("--mu", type=float, required=True, help="drift")
    p.add_argument("--horizon", type=float, required=True, help="horizon T")
    p.add_argument("--n-steps", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="residual tolerance, relative to T")
    p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("value", help="value surface from solved boundaries")
    p.add_argument("--boundaries", required=True, help="boundaries.json")
    p.add_argument("--grid", default="100x200", help="t-by-x grid, e.g. 100x200")
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate", help="Monte Carlo policy evaluation")
    p.add_argument("--boundaries", required=True)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--steps", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", default="optimal",
                   help="optimal | fixed_time:C | sqrt_rule:Z | "
                        "scaled_optimal:F")
    p.add_argument("--out", default=None, help="report file (.jsonl)")
    p.add_argument("--dump", default=None,
                   help="per-path CSV (path_id,g,tau,abs_error); "
                        "small runs only")

    p = sub.add_parser("compare", help="integral solver vs lattice oracle")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--n-steps", type=int, default=400)
    p.add_argument("--lattice", default="2000x2001")
    p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("plot", help="SVG of boundary curves")
    p.add_argument("--boundaries", nargs="+", required=True,
                   help="one or more boundaries.json files")
    p.add_argument("--out", required=True, help="output .svg path")
    return parser


_HANDLERS = {"solve": cmd_solve, "value": cmd_value, "simulate": cmd_simulate,
             "compare": cmd_compare, "plot": cmd_plot}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES
                    if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
