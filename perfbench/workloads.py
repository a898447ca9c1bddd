"""Seeded inputs, operations and closed-form checks of the three workloads.

  closed_form  the representation-formula pipeline, in-process
  integrate    the method-of-lines integrator with its bounds, in-process
  cli          one fresh `python -m liouville_workbench.cli` process per op

A workload is one round: a fixed list of operations run in a fixed,
interleaved order.  The seed picks only the continuous parameters of each
problem; which families, grid sizes and methods a round holds is the same for
every seed, so every seed costs about the same and the share of known-fault
operations is the same in every run.

Every check compares the program's output with a value this file computes from
the family's closed form, never with a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from liouville_workbench import cli
from liouville_workbench import closed_form_solver as cf
from liouville_workbench import generalized_integrator as gi
from liouville_workbench import problem_model as pm
from liouville_workbench import regularity_analyzer as ra
from liouville_workbench.errors import EmptyCurve

# The periodic known-fault case is given with g(0) = 1.9; the program rescales it.
warnings.filterwarnings("ignore", message="g rescaled")

NORM_PS = (1.0, 2.0, math.inf)
CURVE_RTOL = 1e-6          # the program samples the curve where psi0 > CURVE_RTOL * M0

# Relative tolerances per path, about ten times the worst error seen over
# seeds 0..59 (README.md lists them); seeds 30..229 all pass.  On the auto path
# t* inherits the error of M0, which the program refines from grid samples,
# so its tolerance scales with h^3, h = 1/(n_alpha - 1).
def t_star_rtol(method, n_alpha):
    h3 = (1.0 / (n_alpha - 1)) ** 3
    return 30 * h3 if method == "auto" else 3e-6 + 30 * h3


CURVE_RTOL_CHECK = {"auto": 1e-12, "quadrature": 3e-5}
FIELD_RTOL = {"auto": 1e-10, "quadrature": 3e-4}
FLOW_RTOL = 1e-4           # integrator against u0 g / D^2 (F = u)
MARGIN_FLOOR = -1e-3       # lowest accepted lower-envelope margin (F = u^p)


class CheckFailed(Exception):
    """The program's output disagrees with the closed form."""


class KnownFault(CheckFailed):
    """A wrong result caused by a named fault of the program."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def rel_err(x, ref):
    return abs(x - ref) / abs(ref)


@dataclass
class Op:
    """One operation: `run` is timed, `check` is not.

    `probe`, when set, makes extra direct calls that only the traced run
    makes, outside the operation's own span.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    probe: Callable[[object], None] | None = None


# ---------------------------------------------------------------------------
# closed forms of the data families


@dataclass(frozen=True)
class Weight:
    """f = a(1 - 2x) + c2 P2*(x) + c3 P3*(x) with shifted Legendre P2*, P3*.

    Each term has zero mean on [0, 1], so f u0 with u0 = 1 is compatible, and
    psi0 = x(1 - x)(a + c2(1 - 2x) + c3(-5x^2 + 5x - 1)) stays positive on
    (0, 1) while |c2| + |c3| < a.
    """

    a: float
    c2: float = 0.0
    c3: float = 0.0

    @property
    def coeffs(self):
        a, c2, c3 = self.a, self.c2, self.c3
        return (a + c2 - c3, -2 * a - 6 * c2 + 12 * c3, 6 * c2 - 30 * c3, 20 * c3)

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        return x * (1 - x) * (self.a + self.c2 * (1 - 2 * x)
                              + self.c3 * (-5 * x * x + 5 * x - 1))

    @property
    def M0(self):
        roots = np.roots(self.coeffs[::-1])
        crit = [r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1]
        return float(max(self.psi(np.array(crit))))


@dataclass(frozen=True)
class Boundary:
    """Boundary data g with its exact integral G and inverse (g(0) = 1)."""

    kind: str     # linear: 1 + p t; exp: e^{p t}; singular: (1 - t)^-(1 + p); periodic
    p: float = 0.0

    def descriptor(self):
        if self.kind == "linear":
            return pm.polynomial(1.0, self.p)
        if self.kind == "exp":
            return pm.exponential(1.0, self.p)
        if self.kind == "singular":
            return pm.singular_boundary(self.p)
        # 1 + 0.9 sin(pi t / 2 + pi / 2); the program rescales it by 1/1.9
        return pm.FunctionDescriptor("trigonometric", {
            "offset": 1.0, "terms": [[0.9, 0.25, math.pi / 2]]})

    def g(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return 1 + self.p * t
        if self.kind == "exp":
            return np.exp(self.p * t)
        if self.kind == "singular":
            return (1 - t) ** -(1 + self.p)
        return (1 + 0.9 * np.cos(np.pi * t / 2)) / 1.9

    def G(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return t + 0.5 * self.p * t * t
        if self.kind == "exp":
            return np.expm1(self.p * t) / self.p
        if self.kind == "singular":
            return ((1 - t) ** -self.p - 1) / self.p
        return (t + 1.8 / np.pi * np.sin(np.pi * t / 2)) / 1.9

    @property
    def G_inf(self):
        return -1 / self.p if self.kind == "exp" and self.p < 0 else math.inf

    def G_inv(self, y):
        """t with G(t) = y; the periodic G is only inverted at 2/M0 = 80."""
        y = np.asarray(y, dtype=float)
        if self.kind == "linear":
            return 2 * y / (1 + np.sqrt(1 + 2 * self.p * y))
        if self.kind == "exp":
            return np.log1p(self.p * y) / self.p
        if self.kind == "singular":
            return 1 - (1 + self.p * y) ** (-1 / self.p)
        return 1.9 * y   # G(1.9 y) = y whenever 1.9 y is a multiple of 2


# ---------------------------------------------------------------------------
# closed_form workload


@dataclass
class Case:
    family: str
    weight: Weight
    boundary: Boundary
    n_alpha: int
    method: str
    t_max: float
    verdict: str
    t_star: float | None
    known_fault: str | None = None
    spec: pm.ProblemSpec = field(init=False)

    def __post_init__(self):
        f = pm.FunctionDescriptor("polynomial", {"coeffs": list(self.weight.coeffs)})
        self.spec = pm.ProblemSpec(f=f, u0=pm.constant(1.0), g=self.boundary.descriptor(),
                                   n_alpha=self.n_alpha)

    def exact_u(self, alpha, t):
        D = 1 - 0.5 * self.weight.psi(alpha) * self.boundary.G(t)
        return self.boundary.g(t) / D**2


PERIODIC_FAULT = ("problem_model._g_infinity fits a decaying tail to positive periodic g "
                  "when t_max lands on a trough; classify says Global, theory says "
                  "FiniteBlowup at t*=152")
CF_FAMILIES = ("linear", "exp_grow", "exp_decay_blowup", "exp_decay_global", "singular")
N_ALPHA_CF = (257, 513, 1025)


def _weight(rng, lo=1.0, hi=3.0):
    a = rng.uniform(lo, hi)
    return Weight(a, a * rng.uniform(-0.3, 0.3), a * rng.uniform(-0.3, 0.3))


def make_case(family, rng, n_alpha, method):
    w = _weight(rng)
    M0 = w.M0
    if family == "linear":
        bd = Boundary("linear", rng.uniform(0.5, 3.0))
    elif family == "exp_grow":
        bd = Boundary("exp", rng.uniform(0.3, 2.0))
    elif family == "exp_decay_blowup":       # G_inf = 1/|r| above 2/M0
        bd = Boundary("exp", -0.5 * M0 * rng.uniform(0.3, 0.7))
    elif family == "exp_decay_global":       # G_inf = 1/|r| below 2/M0
        bd = Boundary("exp", -0.5 * M0 * rng.uniform(1.5, 3.0))
    else:
        bd = Boundary("singular", rng.uniform(0.5, 2.0))
    if family == "exp_decay_global":
        return Case(family, w, bd, n_alpha, method, t_max=3.0 / abs(bd.p),
                    verdict="Global", t_star=None)
    t_star = float(bd.G_inv(2.0 / M0))
    t_max = t_star + 0.5 * (1 - t_star) if family == "singular" else 1.25 * t_star
    return Case(family, w, bd, n_alpha, method, t_max, "FiniteBlowup", t_star)


def periodic_case(method):
    """The known fault: inputs fixed, independent of the seed."""
    bd = Boundary("periodic")
    return Case("periodic", Weight(0.1), bd, 513, method, t_max=10.0,
                verdict="FiniteBlowup", t_star=152.0, known_fault=PERIODIC_FAULT)


def closed_form_cases(seed):
    rng = np.random.default_rng([seed, 1])
    cases = []
    for n_alpha in N_ALPHA_CF:
        for method in ("auto", "quadrature"):
            for family in CF_FAMILIES:
                cases.append(make_case(family, rng, n_alpha, method))
    # two known-fault ops at fixed places in the round of 32
    cases.insert(10, periodic_case("auto"))
    cases.insert(26, periodic_case("quadrature"))
    return cases


def closed_form_run(case):
    spec = case.spec
    profile = pm.build_psi0(spec, method=case.method)
    B = pm.build_G(spec, t_max=case.t_max, method=case.method)
    report = ra.classify(profile, B, spec)
    curve = None
    if profile.M0 > 0:
        try:
            curve = cf.singular_curve(profile, B)
        except EmptyCurve:
            curve = None
    t_hi = case.t_max if report.t_star is None else 0.98 * report.t_star
    t_grid = np.linspace(0.0, t_hi, 129)
    fld = cf.evaluate_field(profile, B, spec, spec.alpha_grid(), t_grid)
    norms = [[ra.lp_norm(fld, p, float(t)) for p in NORM_PS] for t in t_grid[::8]]
    return {"profile": profile, "B": B, "report": report, "curve": curve,
            "field": fld, "norms": norms}


def closed_form_check(case, res):
    report = res["report"]
    if report.verdict != case.verdict:
        exc = KnownFault if case.known_fault else CheckFailed
        raise exc(f"{case.family}: verdict {report.verdict}, expected {case.verdict}")
    tag = f"{case.family}/{case.method}/n{case.n_alpha}"
    if case.t_star is not None:
        check(report.t_star is not None
              and rel_err(report.t_star, case.t_star) <= t_star_rtol(case.method, case.n_alpha),
              f"{tag}: t* {report.t_star} against {case.t_star}")
    curve = res["curve"]
    if case.verdict == "Global":
        check(curve is None, f"{tag}: singular curve on a global solution")
    else:
        check(curve is not None, f"{tag}: no singular curve")
        grid = case.spec.alpha_grid()
        psi = case.weight.psi(grid)
        targets = 2.0 / psi[psi > CURVE_RTOL * case.weight.M0]
        node_min = float(np.min(case.boundary.G_inv(targets[targets < case.boundary.G_inf])))
        got = float(np.min(curve.t_samples))
        check(node_min >= case.t_star * (1 - 1e-12)
              and rel_err(got, node_min) <= CURVE_RTOL_CHECK[case.method],
              f"{tag}: curve minimum {got} against {node_min} (t* {case.t_star})")
    fld = res["field"]
    check(not fld.singular_mask.any(), f"{tag}: masked samples before t*")
    rng = np.random.default_rng(case.n_alpha)
    i = rng.integers(0, len(fld.t_nodes), 16)
    j = rng.integers(0, len(fld.alpha_nodes), 16)
    exact = case.exact_u(fld.alpha_nodes[j], fld.t_nodes[i])
    err = float(np.max(np.abs(fld.values[i, j] - exact) / exact))
    check(err <= FIELD_RTOL[case.method], f"{tag}: field relative error {err:.3e}")
    for n1, n2, ninf in res["norms"]:
        check(n1 <= n2 * (1 + 1e-12) and n2 <= ninf * (1 + 1e-12),
              f"{tag}: norms out of order {n1} {n2} {ninf}")


def closed_form_probe(res):
    """Direct invert_G calls on the op's B over every 8th curve target."""
    curve = res["curve"]
    if curve is None:
        return
    prof = res["profile"]
    targets = 2.0 / prof.value(curve.alpha_samples[::8])
    for y in targets:
        pm.invert_G(res["B"], float(y))


def closed_form_ops(seed):
    ops = []
    for case in closed_form_cases(seed):
        ops.append(Op(
            kind=case.family, label=f"{case.family}/{case.method}/n{case.n_alpha}",
            run=lambda c=case: closed_form_run(c),
            check=lambda r, c=case: closed_form_check(c, r), probe=closed_form_probe))
    return ops


# ---------------------------------------------------------------------------
# integrate workload


@dataclass
class Flow:
    family: str
    weight: Weight
    boundary: Boundary
    power: float
    n_alpha: int
    t_end: float
    dt: float
    cap: float
    predicted: str
    crossing: float | None = None
    spec: pm.ProblemSpec = field(init=False)
    F: gi.Nonlinearity = field(init=False)

    def __post_init__(self):
        f = pm.FunctionDescriptor("polynomial", {"coeffs": list(self.weight.coeffs[:2])})
        self.spec = pm.ProblemSpec(f=f, u0=pm.constant(1.0), g=self.boundary.descriptor(),
                                   n_alpha=self.n_alpha)
        self.F = gi.identity_F() if self.power == 1 else gi.power_F(self.power)

    @property
    def H0_alpha0(self):
        # H0(alpha0) = int_0^{1/2} a(1 - 2x) F(u0) dx with u0 = 1
        return self.weight.a / 4


FLOW_FAMILIES = ("linear", "power2", "power3", "decay_blowup", "decay_global")
N_ALPHA_FLOW = (257, 513, 2049)


def make_flow(family, rng, n_alpha):
    w = Weight(rng.uniform(1.0, 3.0))
    threshold = 2.0 / w.M0             # 2/(c H0(alpha0)) with c = 1, H0(alpha0) = M0
    if family == "linear":
        bd = Boundary("linear", rng.uniform(0.5, 2.0))
        t_end = 0.9 * float(bd.G_inv(threshold))
        return Flow(family, w, bd, 1.0, n_alpha, t_end, t_end / 100, 1e8, "FiniteBlowup")
    if family in ("power2", "power3"):
        p = 2.0 if family == "power2" else 3.0
        bd = Boundary("linear", rng.uniform(0.5, 2.0))
        t_bound = threshold / p
        return Flow(family, w, bd, p, n_alpha, t_bound, t_bound / 60, 1e4, "FiniteBlowup")
    if family == "decay_blowup":
        bd = Boundary("exp", -1.0 / (threshold * rng.uniform(1.3, 2.0)))
        t_star = float(bd.G_inv(threshold))
        return Flow(family, w, bd, 1.0, n_alpha, 1.05 * t_star, t_star / 60, 1e4,
                    "FiniteBlowup", crossing=t_star)
    bd = Boundary("exp", -1.0 / (threshold * rng.uniform(0.4, 0.8)))
    t_end = 2.0 / abs(bd.p)
    return Flow(family, w, bd, 1.0, n_alpha, t_end, t_end / 100, 1e8, "Global")


def integrate_run(flow):
    traj = gi.integrate_general(flow.spec, flow.F, flow.t_end, flow.dt, blowup_cap=flow.cap)
    det = gi.detect_blowup(traj)
    bounds = gi.blowup_bounds(flow.spec, flow.F, traj)
    return {"traj": traj, "det": det, "bounds": bounds}


def integrate_check(flow, res):
    traj, det, bounds = res["traj"], res["det"], res["bounds"]
    tag = f"{flow.family}/n{flow.n_alpha}"
    check(bounds.predicted == flow.predicted,
          f"{tag}: predicted {bounds.predicted}, expected {flow.predicted}")
    if flow.family in ("linear", "decay_global"):
        last = traj.states[-1]
        check(not det["blew_up"] and rel_err(last.t, flow.t_end) <= 1e-12,
              f"{tag}: stopped at t={last.t} ({traj.stop_reason})")
        psi = flow.weight.psi(traj.alpha)
        exact = flow.boundary.g(last.t) / (1 - 0.5 * psi * flow.boundary.G(last.t)) ** 2
        err = float(np.max(np.abs(last.u - exact) / exact))
        check(err <= FLOW_RTOL, f"{tag}: final state relative error {err:.3e}")
    if flow.family in ("linear", "power2", "power3"):
        t_bound = 2.0 / (flow.power * flow.H0_alpha0)
        check(bounds.min_lower_margin is not None and bounds.min_lower_margin >= MARGIN_FLOOR,
              f"{tag}: lower envelope margin {bounds.min_lower_margin}")
        check(rel_err(bounds.t_star_bound, t_bound) <= 1e-9,
              f"{tag}: blow-up time bound {bounds.t_star_bound} against {t_bound}")
    if flow.family in ("power2", "power3"):
        check(det["blew_up"] and det["t_numeric"] <= t_bound,
              f"{tag}: blow-up {det['blew_up']} at {det['t_numeric']}, bound {t_bound}")
    if flow.family == "decay_blowup":
        check(bounds.crossing_time is not None
              and rel_err(bounds.crossing_time, flow.crossing) <= 1e-9,
              f"{tag}: crossing time {bounds.crossing_time} against {flow.crossing}")
        check(det["blew_up"] and det["t_numeric"] <= flow.crossing * (1 + 1e-9),
              f"{tag}: blow-up {det['blew_up']} at {det['t_numeric']}, t* {flow.crossing}")
    if flow.family == "decay_global":
        check(bounds.crossing_time is None, f"{tag}: crossing time on a global solution")


def integrate_ops(seed):
    rng = np.random.default_rng([seed, 2])
    ops = []
    for n_alpha in N_ALPHA_FLOW:
        for family in FLOW_FAMILIES:
            flow = make_flow(family, rng, n_alpha)
            ops.append(Op(kind=family, label=f"{family}/n{n_alpha}",
                          run=lambda fl=flow: integrate_run(fl),
                          check=lambda r, fl=flow: integrate_check(fl, r)))
    return ops


# ---------------------------------------------------------------------------
# cli workload

SUBCOMMANDS = ("classify", "solve", "singular-curve", "lp-scan", "simulate", "verify",
               "reproduce-examples")
EXAMPLE2_T = (math.sqrt(33) - 1) / 2


def _csv_rows(path):
    """Data rows of a CSV written by the program (comment and header excluded)."""
    with open(path) as fh:
        return [line for line in fh if not line.startswith("#")][1:]


def _count_rows(path):
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh)
    return lines - 2    # comment line and header row


class CliPlan:
    """Spec files and expected results for the seven subcommands of one seed."""

    def __init__(self, seed, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        self.cases = {
            "classify": make_case("exp_grow", rng, 513, "auto"),
            "solve": make_case("linear", rng, 513, "auto"),
            "singular-curve": make_case("linear", rng, 513, "auto"),
            "lp-scan": make_case("exp_grow", rng, 513, "auto"),
            "simulate": make_case("linear", rng, 257, "auto"),
        }
        self.specs = {}
        for sub, case in self.cases.items():
            doc = case.spec.to_dict()
            if sub == "simulate":
                doc["general"] = {"F": {"kind": "identity"}}
            self.specs[sub] = os.path.join(workdir, f"{sub}.json")
            with open(self.specs[sub], "w") as fh:
                json.dump(doc, fh)
        sim = self.cases["simulate"]
        self.sim_t_end = round(0.8 * sim.t_star, 6)
        self.sim_dt = self.sim_t_end / 400
        self.counter = 0

    def argv(self, sub, out):
        spec = self.specs.get(sub)
        if sub in ("classify", "singular-curve"):
            return [sub, "--spec", spec, "--out", out]
        if sub in ("solve", "lp-scan"):
            return [sub, "--spec", spec, "--out", out,
                    "--t-max", repr(round(0.9 * self.cases[sub].t_star, 6))]
        if sub == "simulate":
            return [sub, "--spec", spec, "--out", out, "--t-max", repr(self.sim_t_end),
                    "--dt", repr(self.sim_dt)]
        return [sub, "--out", out]

    def fresh_out(self):
        self.counter += 1
        return os.path.join(self.workdir, f"out{os.getpid()}-{self.counter}")

    def check(self, sub, argv, status, stdout):
        out = argv[argv.index("--out") + 1]
        try:
            check(status == 0, f"{sub}: exit status {status}")
            getattr(self, "_check_" + sub.replace("-", "_"))(out, stdout)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_classify(self, out, stdout):
        case = self.cases["classify"]
        lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        check(lines.get("verdict") == "FiniteBlowup", f"classify: {lines.get('verdict')}")
        t_star = float(lines["t_star"])
        check(rel_err(t_star, case.t_star) <= t_star_rtol("auto", case.n_alpha),
              f"classify: t* {t_star} against {case.t_star}")
        check(os.path.exists(os.path.join(out, "classify.txt")), "classify: no classify.txt")

    def _check_solve(self, out, stdout):
        case = self.cases["solve"]
        path = os.path.join(out, "field.csv")
        rows = _csv_rows(path)
        check(len(rows) == 257 * case.n_alpha, f"solve: {len(rows)} rows")
        for k in np.linspace(0, len(rows) - 1, 64).astype(int):
            a, t, u, masked = rows[k].split(",")
            exact = float(case.exact_u(float(a), float(t)))
            check(masked.strip() == "0" and rel_err(float(u), exact) <= FIELD_RTOL["auto"],
                  f"solve: u({a}, {t}) = {u} against {exact}")

    def _check_singular_curve(self, out, stdout):
        case = self.cases["singular-curve"]
        psi = case.weight.psi(case.spec.alpha_grid())
        keep = psi > CURVE_RTOL * case.weight.M0
        rows = _csv_rows(os.path.join(out, "singular_curve.csv"))
        check(len(rows) == int(keep.sum()), f"singular-curve: {len(rows)} rows")
        got = min(float(r.split(",")[1]) for r in rows)
        node_min = float(np.min(case.boundary.G_inv(2.0 / psi[keep])))
        check(rel_err(got, node_min) <= CURVE_RTOL_CHECK["auto"],
              f"singular-curve: minimum {got} against {node_min}")

    def _check_lp_scan(self, out, stdout):
        rows = _csv_rows(os.path.join(out, "lp_scan.csv"))
        check(len(rows) == 101 * len(NORM_PS), f"lp-scan: {len(rows)} rows")
        norms = np.array([float(r.split(",")[2]) for r in rows]).reshape(101, 3)
        check(np.all(norms[:, 0] <= norms[:, 1] * (1 + 1e-12))
              and np.all(norms[:, 1] <= norms[:, 2] * (1 + 1e-12)),
              "lp-scan: norms out of order")

    def _check_simulate(self, out, stdout):
        case = self.cases["simulate"]
        steps = math.ceil(self.sim_t_end / self.sim_dt - 1e-9)
        every = max(1, int(round(self.sim_t_end / self.sim_dt / 256)))
        states = 1 + steps // every + (1 if steps % every else 0)
        rows = _csv_rows(os.path.join(out, "trajectory.csv"))
        check(len(rows) == states * case.n_alpha, f"simulate: {len(rows)} rows")
        check("blew_up: False" in stdout and "stop_reason: t_end" in stdout,
              "simulate: unexpected stop")
        last = np.array([[float(v) for v in r.split(",")] for r in rows[-case.n_alpha:]])
        t, alpha, u = last[0, 0], last[:, 1], last[:, 2]
        exact = case.exact_u(alpha, t)
        err = float(np.max(np.abs(u - exact) / exact))
        check(err <= FLOW_RTOL, f"simulate: final state relative error {err:.3e}")

    def _check_verify(self, out, stdout):
        lines = stdout.splitlines()
        check(len(lines) == 7 and all(line.startswith("PASS ") for line in lines),
              f"verify: {stdout!r}")

    def _check_reproduce_examples(self, out, stdout):
        lines = stdout.splitlines()
        check(len(lines) == 4, f"reproduce-examples: {stdout!r}")
        check(lines[0].startswith("example 1: Global"), lines[0])
        check(lines[1].startswith("example 2: FiniteBlowup t*=")
              and abs(float(lines[1].split("t*=")[1].split()[0]) - EXAMPLE2_T) <= 5e-7,
              lines[1])
        check(lines[2].startswith("example 3: BoundaryInducedBlowup"), lines[2])
        check(lines[3].startswith("example 4: FiniteBlowup t*=")
              and abs(float(lines[3].split("t*=")[1].split()[0]) - 8 / 9) <= 5e-7, lines[3])
        for k in (1, 2, 3, 4):
            n = _count_rows(os.path.join(out, f"example{k}_field.csv"))
            check(n == 129 * 129, f"reproduce-examples: example{k}_field.csv has {n} rows")


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def run_cli_process(argv, env, workdir):
    """One fresh CLI process; returns (status, stdout, peak RSS in KiB)."""
    # stderr goes to a file, so reading stdout to its end cannot deadlock
    with tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, "-m", "liouville_workbench.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        stdout = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    return proc.returncode, stdout.decode(), usage.ru_maxrss


def run_cli_inprocess(argv):
    """The same subcommand replayed in this process; returns (status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def cli_ops(seed, workdir, env, in_process=False):
    """One round of the seven subcommands, each a fresh process; with
    `in_process` each op replays its subcommand in this process instead."""
    plan = CliPlan(seed, workdir)
    ops = []
    for sub in SUBCOMMANDS:
        def run(sub=sub):
            argv = plan.argv(sub, plan.fresh_out())
            if in_process:
                status, stdout = run_cli_inprocess(argv)
                rss = None
            else:
                status, stdout, rss = run_cli_process(argv, env, workdir)
            out = argv[argv.index("--out") + 1]
            return {"argv": argv, "status": status, "stdout": stdout, "rss_kib": rss,
                    "bytes": _dir_bytes(out) if os.path.isdir(out) else 0}

        ops.append(Op(kind=sub, label=sub, run=run,
                      check=lambda r, sub=sub: plan.check(sub, r["argv"], r["status"],
                                                          r["stdout"])))
    return ops


def make_ops(workload, seed, workdir, env, in_process=False):
    """One round of the workload; `in_process` replays cli ops in this process."""
    if workload == "closed_form":
        return closed_form_ops(seed)
    if workload == "integrate":
        return integrate_ops(seed)
    return cli_ops(seed, workdir, env, in_process)
