"""Closed-loop benchmark of the lastzero command line.

Run from the root of a checkout (Python 3.10+, numpy and scipy installed):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

One client issues in-process calls to ``lastzero.cli.main(argv)``, each
after the previous one returned, for ``--seconds`` seconds.  The workloads
(``solve``, ``value``, ``simulate``) are defined in ``workloads.py``; the
seed is the only source of their inputs.  Every op's output is checked
after the timed loop.  The program is imported from ``src/`` of the
checkout, never from an installed copy.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each op twice, untraced and traced, and reports the
per-layer metrics built from spans around calls into the program's modules
(``tracing.py``) and from microbenchmarks (``micro.py``).

Per run, a record ``.bench_out/BENCH_<workload>_seed<n>_trace<t>.json``
holds provenance, the op list with a replayable command line per op, each
op's time and checks, and the metrics; a traced run also writes its spans
to ``.bench_out/spans_<workload>_seed<n>.jsonl``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
MAX_LISTED = 10           # failures printed; the record lists them all
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("cli", "boundaries", "value", "bellman", "montecarlo",
           "closed_forms", "kernel")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("solve", "value", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_blas_threads(nproc: int) -> int:
    """One BLAS thread unless the caller asked for more, and never > nproc.

    Set before numpy is imported, which reads these at load time.
    """
    try:
        asked = int(os.environ.get(BLAS_VARS[0], "1"))
    except ValueError:
        asked = 1
    threads = max(1, min(asked, nproc))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import lastzero from ``src/`` of this checkout; None if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lastzero", "__init__.py")):
        return None, 0.0
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import importlib
    modules = {m: importlib.import_module(f"lastzero.{m}") for m in MODULES}
    import_s = time.perf_counter() - t0
    origin = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if origin != os.path.join(src, "lastzero"):
        return None, 0.0
    return types.SimpleNamespace(**modules), import_s


def git_sha(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, nproc: int, blas: int) -> dict:
    import numpy
    import scipy
    return {"nproc": nproc, "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas, "git_sha": git_sha(ROOT), "seed": seed}


def run_cli(lz, argv, tracer=None):
    """One call of ``lastzero.cli.main``; only the call itself is timed."""
    from workloads import Outcome
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        span = tracer.begin("cli.main") if tracer is not None else None
        try:
            code = lz.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:       # reported as a failed op
            error = exc
        finally:
            if span is not None:
                tracer.end(span)
        seconds = time.perf_counter() - t0
    if error is not None:
        error = "".join(traceback.format_exception(error))
    return Outcome(seconds, code, out.getvalue(), err.getvalue(), error)


def timed_loop(wl, lz, seconds, tracer):
    """Closed loop: issue op i+1 once op i has returned, until time is up.

    Ops are issued in whole pairs (see ``workloads``).  With a
    tracer each op runs twice, untraced and traced, alternating which goes
    first; the traced outcome is the one checked.
    """
    import tracing
    ops, outcomes, untraced = [], [], []
    deadline = time.perf_counter() + seconds
    while len(ops) % 2 or not ops or time.perf_counter() < deadline:
        op = wl.make_op(len(ops))
        if tracer is None:
            outcomes.append(run_cli(lz, op.argv))
        else:
            for traced in ((False, True) if op.id % 2 == 0
                           else (True, False)):
                if not traced:
                    untraced.append(run_cli(lz, op.argv))
                    continue
                tracer.op, tracer.phase = op.id, "op"
                tracing.instrument(tracer, lz)
                try:
                    outcomes.append(run_cli(lz, op.argv, tracer))
                finally:
                    tracer.unwrap_all()
        ops.append(op)
    return ops, outcomes, untraced


def check_ops(wl, ops, outcomes, untraced, tracer, lz):
    """Check every op's outputs; returns the list of failures."""
    import tracing
    failures = []
    for k, (op, oc) in enumerate(zip(ops, outcomes)):
        replay = op.replay(ROOT)
        runs = [oc] + ([untraced[k]] if untraced else [])
        bad = next((r for r in runs if r.error or r.code != 0), None)
        if bad is not None:
            documented = bad.error is None and bad.code in wl.documented_exits
            failures.append({
                "op": op.id, "replay": replay, "documented": documented,
                "reason": (bad.error.strip().splitlines()[-1] if bad.error
                           else f"exit {bad.code}: {bad.stderr.strip()}")})
            continue
        if tracer is not None:
            tracer.op, tracer.phase = op.id, "check"
            tracing.instrument(tracer, lz)
        try:
            oc.checks = wl.check(op, oc)
        except Exception:              # a missing or malformed output
            failures.append({"op": op.id, "replay": replay,
                             "documented": False,
                             "reason": "check raised: "
                                       + traceback.format_exc(limit=2)})
            continue
        finally:
            if tracer is not None:
                tracer.unwrap_all()
            if op.out and os.path.isdir(op.out):
                shutil.rmtree(op.out)
        broken = {name: vb for name, vb in oc.checks.items()
                  if not vb[0] <= vb[1]}
        if broken:
            failures.append({"op": op.id, "replay": replay,
                             "documented": False,
                             "reason": "check failed: " + ", ".join(
                                 f"{n} = {v:.3g} > {b:.3g}"
                                 for n, (v, b) in broken.items())})
    return failures


def repeat_check(wl, lz, ops, tracer):
    """Re-run op 0 traced; its solver kernel-call counts must repeat."""
    import tracing
    first = tracing.solver_kernel_calls(tracer.spans, 0, "op")
    if not first:
        return None
    tracer.op, tracer.phase = 0, "repeat"
    tracing.instrument(tracer, lz)
    try:
        run_cli(lz, ops[0].argv, tracer)
    finally:
        tracer.unwrap_all()
    again = tracing.solver_kernel_calls(tracer.spans, 0, "repeat")
    return {"op": 0, "first": first, "repeat": again,
            "exact": first == again}


def check_values(outcomes) -> dict:
    """Per check name, the worst value over the run's checked ops."""
    worst = {}
    for oc in outcomes:
        for name, (value, _) in oc.checks.items():
            worst[name] = max(worst.get(name, value), value)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    blas = set_blas_threads(nproc)
    lz, import_s = import_program()
    if lz is None:
        print(f"error: no lastzero package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    import numpy as np
    import micro
    import tracing
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[args.workload](lz, args.seed, work)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(lambda a: run_cli(lz, a))
        setup_times.append(time.perf_counter() - t0)
    shutil.rmtree(os.path.join(work, "warmup"), ignore_errors=True)

    tracer = tracing.Tracer() if args.trace else None
    ops, outcomes, untraced = timed_loop(wl, lz, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    repeat = repeat_check(wl, lz, ops, tracer) if tracer else None
    failures = check_ops(wl, ops, outcomes, untraced, tracer, lz)
    if repeat is not None and not repeat["exact"]:
        failures.append({"op": 0, "replay": ops[0].replay(ROOT),
                         "documented": False,
                         "reason": "solver kernel calls did not repeat: "
                                   f"{repeat['first']} vs {repeat['repeat']}"})

    times = [oc.seconds for oc in outcomes]
    n_failed = len({f["op"] for f in failures})
    computed = {
        "setup_s": import_s + statistics.median(setup_times),
        "op_s.p50": statistics.median(times),
        "op_s.mean": statistics.fmean(times),
        "failed_ops": n_failed / len(ops),
        "peak_rss_mb": peak_rss_mb,
    }
    absent = {}
    if tracer is not None:
        computed.update(tracing.layer_metrics(tracer.spans, len(ops)))
        computed.update(micro.run(lz, np.random.default_rng(
            [args.seed, 99])))
        computed["trace.overhead_rel"] = statistics.median(times) \
            / statistics.median([u.seconds for u in untraced]) - 1.0
        computed.update(check_values(outcomes))
        absent.update({name: f"wrapped name missing: {why}"
                       for name, why in tracer.absent.items()})
        tracer.write_jsonl(os.path.join(OUT, f"spans_{args.workload}_seed"
                                             f"{args.seed}.jsonl"))
    metrics = {}
    for m in wanted:
        if m["name"] not in computed:
            absent[m["name"]] = f"not on the {args.workload} workload's path"
        metrics[m["name"]] = {"value": float(computed.get(m["name"], 0.0)),
                              "unit": m["unit"]}

    correct = all(f["documented"] for f in failures)
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed, nproc, blas),
        "import_s": import_s, "setup_repeats_s": setup_times,
        "client": "closed loop, 1 client, in-process cli.main(argv)",
        "time_waited": "0 by construction: no layer has a queue",
        "ops": [{"id": op.id, "replay": op.replay(ROOT), "inputs": op.inputs,
                 "seconds": oc.seconds, "exit": oc.code,
                 "seconds_untraced": (untraced[k].seconds if untraced
                                      else None),
                 "checks": oc.checks}
                for k, (op, oc) in enumerate(zip(ops, outcomes))],
        "failures": failures, "kernel_calls_repeat": repeat,
        "failed_ops": computed["failed_ops"],
        "metrics": metrics, "absent": absent, "correct": correct,
    }
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    for f in failures[:MAX_LISTED]:
        print(f"FAILED op {f['op']}: {f['reason']}\n    {f['replay']}")
    print(f"{'failed_ops':44s} {computed['failed_ops']:.6g} share "
          f"({n_failed} of {len(ops)})")
    for name, m in metrics.items():
        note = "  (absent: " + absent[name] + ")" if name in absent else ""
        print(f"{name:44s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
