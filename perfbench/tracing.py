"""In-memory spans around calls into lastzero's modules, taken from outside.

The benchmark does not change the program: it replaces module attributes
with wrappers that record a span per call, then puts the originals back.
Each span has a name, start, end, parent span and op id, plus optional
attributes (the kernel's caller and batch shape).  Spans stay in memory
until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import time


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: dict[str, str] = {}
        self.op = None            # op id stamped on every new span
        self.phase = "op"         # "op", "repeat" or "check"
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._t0 = time.perf_counter()

    def begin(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "op": self.op,
                "phase": self.phase,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter() - self._t0, "end": None}
        span.update(attrs)
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, attrs=None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``attrs(bound_arguments)`` may add attributes to each span.  A name
        that no longer exists is recorded as absent instead of failing.
        """
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.absent[f"{owner.__name__}.{attr}"] = "attribute not found"
            return
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):
            signature = None
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            extra = {}
            if attrs is not None and signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    extra = attrs(bound.arguments)
                except (TypeError, KeyError, AttributeError):
                    extra = {}
            span = tracer.begin(name, **extra)
            try:
                return func(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._restore.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _kernel_attrs(caller):
    def attrs(args):
        points = (args["xs"].size if hasattr(args["xs"], "size")
                  else len(args["xs"]))
        # two Gauss-Legendre panels per (x, lag node) pair, n_gl nodes each
        return {"caller": caller,
                "h_points": int(points * args["rule"].n * args["n_gl"] * 2)}
    return attrs


def instrument(tracer: Tracer, lz) -> None:
    """Wrap the calls whose spans the per-layer metrics are built from."""
    tracer.wrap(lz.boundaries, "lag_integral_batch", "kernel",
                _kernel_attrs("boundaries"))
    tracer.wrap(lz.value, "lag_integral_batch", "kernel",
                _kernel_attrs("value"))
    tracer.wrap(lz.boundaries, "h_curves", "closed_forms.h_curves")
    tracer.wrap(lz.bellman, "bellman_solve", "bellman.bellman_solve",
                lambda a: {"n_t": a["lat"].n_t})
    tracer.wrap(lz.boundaries.BoundaryPair, "load_json",
                "boundaries.load_json")
    tracer.wrap(lz.cli, "solve_boundaries", "boundaries.solve_boundaries",
                lambda a: {"n_steps": a["cfg"].n_steps})
    tracer.wrap(lz.cli, "build_value_surface", "value.build_value_surface")
    tracer.wrap(lz.cli, "value_at", "value.value_at")
    tracer.wrap(lz.cli, "mean_g", "closed_forms.mean_g")
    tracer.wrap(lz.cli, "evaluate_policy", "montecarlo.evaluate_policy")


def _duration(span) -> float:
    return span["end"] - span["start"]


def _median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1]
                                                      + values[mid])


def layer_metrics(spans: list[dict], n_ops: int) -> dict:
    """Per-layer numbers from the spans of the timed ops (phase "op").

    Times and counts are per op (summed over the run's ops, divided by
    ``n_ops``); ``*.p50`` values are medians over calls.  Self time is a
    span's duration minus the time its child spans cover.
    """
    ops = [s for s in spans if s["phase"] == "op" and s["end"] is not None]
    child_time = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + _duration(s)

    def self_time(s):
        return _duration(s) - child_time.get(s["id"], 0.0)

    def named(name):
        return [s for s in ops if s["name"] == name]

    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for caller in ("boundaries", "value"):
        calls = [s for s in named("kernel") if s.get("caller") == caller]
        out[f"kernel.calls.{caller}"] = len(calls) * per_op
        out[f"kernel.call_ms.p50.{caller}"] = 1e3 * _median(
            [_duration(s) for s in calls])
        out[f"kernel.self_s.{caller}"] = sum(map(self_time, calls)) * per_op
    kernel = named("kernel")
    out["kernel.H_points_per_call"] = (
        sum(s.get("h_points", 0) for s in kernel) / len(kernel)
        if kernel else 0.0)

    solves = named("boundaries.solve_boundaries")
    steps = sum(s.get("n_steps", 0) for s in solves)
    solve_ids = {s["id"] for s in solves}
    solver_calls = sum(1 for s in kernel if s["parent"] in solve_ids)
    out["boundaries.kernel_calls_per_step"] = solver_calls / steps \
        if steps else 0.0
    out["boundaries.self_s"] = sum(map(self_time, solves)) * per_op
    out["boundaries.load_json_s"] = sum(
        map(_duration, named("boundaries.load_json"))) * per_op
    out["closed_forms.h_curves_s"] = sum(
        map(_duration, named("closed_forms.h_curves"))) * per_op
    out["closed_forms.mean_g_s"] = sum(
        map(_duration, named("closed_forms.mean_g"))) * per_op
    out["value.surface_s"] = sum(
        map(_duration, named("value.build_value_surface"))) * per_op
    out["value.self_s"] = sum(
        self_time(s) for s in ops
        if s["name"] in ("value.build_value_surface", "value.value_at")) \
        * per_op
    out["montecarlo.evaluate_s"] = sum(
        map(_duration, named("montecarlo.evaluate_policy"))) * per_op
    out["cli.self_s"] = sum(map(self_time, named("cli.main"))) * per_op

    lattices = [s for s in spans if s["name"] == "bellman.bellman_solve"
                and s["end"] is not None]
    out["bellman.solve_s"] = _median([_duration(s) for s in lattices])
    out["bellman.step_us"] = _median(
        [1e6 * _duration(s) / s["n_t"] for s in lattices if s.get("n_t")])
    return out


def solver_kernel_calls(spans: list[dict], op, phase: str) -> list[int]:
    """Kernel calls under each boundary solve of one op, in call order."""
    solves = {s["id"] for s in spans if s["op"] == op
              and s["phase"] == phase
              and s["name"] == "boundaries.solve_boundaries"}
    return [sum(1 for s in spans if s["parent"] == sid
                and s["name"] == "kernel") for sid in sorted(solves)]
