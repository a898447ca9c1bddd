"""Spans around the benchmark's calls into the program's public functions.

The traced run swaps each public function the benchmark reaches for a wrapper
that records one span per call: name, start, end, the parent span, and the
op the call belongs to (spans of one op share its id).  The swap is made in
the namespaces the calls go through: the program modules the workloads call
into, the `cli` module, which imports its functions by name, and the
`to_csv` writers of the result classes.  Calls the program makes internally
through its own imports are not traced.  Spans stay in memory and are written
out when the run ends; untraced runs call the functions unswapped.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import time

from liouville_workbench import cli
from liouville_workbench import closed_form_solver as cf
from liouville_workbench import generalized_integrator as gi
from liouville_workbench import problem_model as pm
from liouville_workbench import regularity_analyzer as ra

# functions the in-process workloads call through their modules
MODULE_FUNCTIONS = {
    pm: ("build_psi0", "build_G", "invert_G"),
    cf: ("evaluate_field", "singular_curve"),
    ra: ("classify", "lp_norm"),
    gi: ("integrate_general", "detect_blowup", "blowup_bounds"),
}
WRITERS = (cf.SolutionField, cf.SingularCurve, gi.Trajectory, pm.GridFunction)


def _layer(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def _annotate(name, args, kwargs, result):
    """Counts recorded at the call boundary."""
    if name in ("problem_model.build_psi0", "problem_model.build_G"):
        return {"method": kwargs.get("method", "auto")}
    if name == "closed_form_solver.singular_curve":
        return {"samples": len(result.alpha_samples)}
    if name == "generalized_integrator.integrate_general":
        return {"n_alpha": args[0].n_alpha, "steps": len(result.t_dense) - 1}
    if name.endswith(".to_csv"):
        return {"bytes": os.path.getsize(args[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "op": self._op, "name": name,
               "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, workload, kind, name="op"):
        """Root span of one operation; every span inside shares its id."""
        self._op = len(self.spans)
        try:
            with self.span(name, workload=workload, kind=kind) as attrs:
                yield attrs
        finally:
            self._op = None

    def _wrap(self, fn):
        name = _layer(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                attrs.update(_annotate(name, args, kwargs, result))
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced wrappers in for the duration of the block."""
        saved = []
        for module, names in MODULE_FUNCTIONS.items():
            saved += [(module, n, getattr(module, n)) for n in names]
        for n, fn in vars(cli).items():
            if (inspect.isfunction(fn) and fn.__module__ != cli.__name__
                    and fn.__module__.startswith("liouville_workbench.")):
                saved.append((cli, n, fn))
        saved += [(cls, "to_csv", cls.__dict__["to_csv"]) for cls in WRITERS]
        try:
            for owner, n, fn in saved:
                setattr(owner, n, self._wrap(fn))
            yield self
        finally:
            for owner, n, fn in saved:
                setattr(owner, n, fn)

    # ------------------------------------------------------------------
    # reading the spans

    def self_times(self):
        """Span duration minus the time its child spans cover (one thread,
        so children never overlap)."""
        self_s = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                self_s[s["parent"]] -= s["end"] - s["start"]
        return self_s

    def write(self, path, extra):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        self_s = self.self_times()
        by_name = {}
        with open(path, "w") as fh:
            fh.write(json.dumps(extra) + "\n")
            for s, own in zip(self.spans, self_s):
                by_name[s["name"]] = by_name.get(s["name"], 0.0) + own
                fh.write(json.dumps({
                    "id": s["id"], "op": s["op"], "parent": s["parent"], "name": s["name"],
                    "start_ms": (s["start"] - t0) * 1e3, "end_ms": (s["end"] - t0) * 1e3,
                    "self_ms": own * 1e3, **s["attrs"]}) + "\n")
            fh.write(json.dumps({"self_ms_by_name": {k: v * 1e3 for k, v in
                                                     sorted(by_name.items())}}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


class LayerMetrics:
    """Per-layer numbers from the spans of the ops of one home workload."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.root = {s["id"]: s["attrs"] for s in tracer.spans if s["parent"] is None}

    def spans(self, workload, name, op_kind=None, **match):
        """Spans named `name` inside the ops of `workload` (of kind `op_kind`)."""
        out = []
        for s in self.tracer.spans:
            root = self.root.get(s["op"], {})
            if (s["name"] == name and root.get("workload") == workload
                    and op_kind in (None, root.get("kind")) and "error" not in s["attrs"]
                    and all(s["attrs"].get(k) == v for k, v in match.items())):
                out.append(s)
        if not out:
            raise RuntimeError(f"no {name} span {match or ''} in the {workload} ops")
        return out

    def median(self, workload, name, scale=1e3, **match):
        return statistics.median((s["end"] - s["start"]) * scale
                                 for s in self.spans(workload, name, **match))

    def mean_attr(self, workload, name, attr, **match):
        return statistics.fmean(s["attrs"][attr] for s in self.spans(workload, name, **match))

    def rate(self, workload, name, attr, scale, **match):
        """Sum of span durations over the sum of a count, times scale."""
        spans = self.spans(workload, name, **match)
        return (sum(s["end"] - s["start"] for s in spans) * scale
                / sum(s["attrs"][attr] for s in spans))


def layer_metrics(tracer, probes, overhead, subcommands):
    """Every per-layer metric, as (value, unit)."""
    m = LayerMetrics(tracer)
    cfw, itw, clw = "closed_form", "integrate", "cli"
    out = {}
    for method in ("auto", "quadrature"):
        out[f"problem_model.build_psi0_ms.{method}"] = (
            m.median(cfw, "problem_model.build_psi0", method=method), "ms")
        out[f"problem_model.build_G_ms.{method}"] = (
            m.median(cfw, "problem_model.build_G", method=method), "ms")
    out["problem_model.invert_G_us"] = (m.median(cfw, "problem_model.invert_G", 1e6), "us")
    out["closed_form_solver.singular_curve_ms"] = (
        m.median(cfw, "closed_form_solver.singular_curve"), "ms")
    out["closed_form_solver.curve_samples_per_op"] = (
        m.mean_attr(cfw, "closed_form_solver.singular_curve", "samples"), "count")
    out["closed_form_solver.evaluate_field_ms"] = (
        m.median(cfw, "closed_form_solver.evaluate_field"), "ms")
    out["regularity_analyzer.classify_ms"] = (m.median(cfw, "regularity_analyzer.classify"), "ms")
    out["regularity_analyzer.lp_norm_us"] = (
        m.median(cfw, "regularity_analyzer.lp_norm", 1e6), "us")

    name = "generalized_integrator.integrate_general"
    out["generalized_integrator.integrate_general_ms"] = (m.median(itw, name), "ms")
    out["generalized_integrator.steps_per_op"] = (m.mean_attr(itw, name, "steps"), "count")
    for n in (257, 513, 2049):
        out[f"generalized_integrator.us_per_step.n{n}"] = (
            m.rate(itw, name, "steps", 1e6, n_alpha=n), "us")
    out["generalized_integrator.blowup_bounds_ms"] = (
        m.median(itw, "generalized_integrator.blowup_bounds"), "ms")
    out["generalized_integrator.detect_blowup_ms"] = (
        m.median(itw, "generalized_integrator.detect_blowup"), "ms")

    field_csv = "closed_form_solver.SolutionField.to_csv"
    out["closed_form_solver.field_csv_ms"] = (m.median(clw, field_csv, op_kind="solve"), "ms")
    out["closed_form_solver.field_csv_mb_per_s"] = (1.0 / m.rate(clw, field_csv, "bytes", 1e6),
                                                   "MB/s")
    out["closed_form_solver.curve_csv_ms"] = (
        m.median(clw, "closed_form_solver.SingularCurve.to_csv", op_kind="singular-curve"), "ms")
    out["generalized_integrator.trajectory_csv_ms"] = (
        m.median(clw, "generalized_integrator.Trajectory.to_csv", op_kind="simulate"), "ms")
    out["cli.bytes_written_per_op"] = (m.mean_attr(clw, "op", "bytes"), "B")
    out["verification.pde_residual_ms"] = (m.median(clw, "verification.pde_residual"), "ms")
    out["verification.gamma_identity_ms"] = (m.median(clw, "verification.gamma_identity"), "ms")

    out["cli.import_ms"] = (probes["import_ms"], "ms")
    out["cli.interpreter_ms"] = (probes["interpreter_ms"], "ms")
    for sub in subcommands:
        out[f"cli.{sub}_ms"] = (m.median(clw, "op", kind=sub), "ms")

    out["trace.untraced_ops_per_s"] = (overhead["untraced_ops_per_s"], "1/s")
    out["trace.traced_ops_per_s"] = (overhead["traced_ops_per_s"], "1/s")
    out["trace.overhead_pct"] = (
        (overhead["untraced_ops_per_s"] / overhead["traced_ops_per_s"] - 1.0) * 100.0, "%")
    return out
