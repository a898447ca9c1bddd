"""Method-of-lines integrator for the generalized equation
d^2/(dalpha dt) ln u = f(alpha) F(u), with two-sided envelope checks.

No closed form exists for general F, but integrating the equation in alpha
from the left boundary gives the evolution law

    u_t(alpha, t) = u(alpha, t) [ gdot(t)/g(t) + psi(alpha, t) ],
    psi(alpha, t) = integral_0^alpha f(x) F(u(x, t)) dx,

which is an ODE system on the alpha grid once psi is closed by quadrature.
The boundary value u(0, t) = g(t) is pinned exactly at every Runge-Kutta
stage; u(1, t) is integrated freely and its mismatch with g(t) is tracked as
a periodicity drift diagnostic.

The envelope theory assumes F is comparable to a power: c F(u) <= u F'(u)
<= d F(u) with 0 < c <= d.  For nondecreasing g the solution blows up no
later than 2/(c H0(alpha0)) where H0(alpha) = integral_0^alpha f F(u0) and
alpha0 is the first zero of f; for nonincreasing g blow-up versus global
existence is decided by whether the improper integrals of g^d and g^c clear
the matching thresholds, and the solution is sandwiched between explicit
upper and lower envelopes until then.

F is a spec's Nonlinearity (problem_model); identity_F, power_F and table_F
build one.  F is one power u^e on each segment (a table is read linearly in
ln u and ln F), and c and d enclose every e.  A run whose u leaves a table
F's nodes, where F holds its end values (u F' = 0), says so in a warning,
and its envelope report makes no prediction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_form_solver import representation
from .problem_model import (
    FunctionDescriptor,
    Nonlinearity,
    ProblemSpec,
    _fit_line,
    _integrand,
    _profile,
    check_compatibility,
    data_horizon,
    invert_power_integral,
    power_integral,
    power_integral_limit,
    running_simpson,
    write_csv,
)

DRIFT_RTOL = 1e-6
BLOWUP_CAP_DEFAULT = 1e8
_MAX_STEPS = 2_000_000
_GROWTH_TRIGGER = 1.10   # a step growing the sup norm by >10% is retried 10x shorter
_GROWTH_LOG = 0.8 * math.log(_GROWTH_TRIGGER)   # predicted ln-growth allowed per step
_STEP_RTOL = 1e-4 * DRIFT_RTOL   # local error allowed per step at alpha = 0


# ---------------------------------------------------------------------------
# nonlinearities


def identity_F() -> Nonlinearity:
    return Nonlinearity("identity", {})


def power_F(p: float) -> Nonlinearity:
    return Nonlinearity("power", {"p": p})


def table_F(nodes, values, c: float, d: float) -> Nonlinearity:
    return Nonlinearity("table", {"nodes": nodes, "values": values, "c": c, "d": d})


# ---------------------------------------------------------------------------
# trajectory containers


@dataclass(frozen=True)
class GeneralizedState:
    """One stored snapshot: u on the alpha grid at time t."""

    t: float
    u: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """The stored states as two arrays, times (1-D) and u (one row on alpha per
    stored time), plus dense per-step scalars for blow-up detection."""

    alpha: np.ndarray
    times: np.ndarray
    u: np.ndarray
    t_dense: np.ndarray
    umax_dense: np.ndarray
    argmax_dense: np.ndarray
    drift_rel_dense: np.ndarray
    stop_reason: str
    cap: float
    c: float

    @property
    def states(self) -> tuple:
        # kept only for the benchmark's integrate check (perfbench/workloads.py), which reads states[-1]
        return tuple(map(GeneralizedState, self.times.tolist(), self.u))

    def to_csv(self, path, comment: str | None = None):
        write_csv(path, comment, "t,alpha,u", "%.12e,%.12e,%.12e",
                  (self.times[:, None], self.alpha, self.u))


# ---------------------------------------------------------------------------
# integration


def integrate_general(spec: ProblemSpec, F: Nonlinearity, t_end: float, dt: float,
                      blowup_cap: float = BLOWUP_CAP_DEFAULT) -> Trajectory:
    """RK4 time integration of the method-of-lines system.

    Each stage takes g'/g + psi as one running sum (running_simpson: one
    matmul, one accumulate), g and g'/g evaluated once per stage time.  Each
    step is the least of dt (a ceiling), the time left to t_end, a blow-up
    bound and an error bound.  The blow-up bound keeps the predicted growth of
    max u, u'/u = k1/u at its argmax, under 0.8 ln(1.1) per step, so on the
    self-similar collapse u ~ (t* - t)^(-2/c) the steps shrink with t* - t.
    The error bound is the usual 0.9 (tol/err)^(1/5) controller (growth
    capped at 5x), with tol = 1e-4 DRIFT_RTOL.  Its estimate is free and
    exact: at alpha = 0 the system is u' = u g'/g, whose solution is g, so
    err is the relative gap between the unpinned RK4 value there and g.  A
    step with err > tol, or with more than 10% sup-norm growth, is retried
    shorter; dt itself never changes, so a run in which neither bound binds
    takes the fixed steps min(dt, t_end - t).  The run stops at t_end or as
    soon as max u reaches blowup_cap.  Raises on nonpositive or NaN u (the
    initial u, a stage input before F reads it, a new state) and on a step
    that fails its tests at dt 1e-12 (numerical failures), on incompatible
    data (check_compatibility with F reports a nonzero integral of f F(u0)),
    and, before the run, on g its extremes do not bound above 0 on [0, t_end].
    The stages, the stage input, their sum, f F(u) and the running sum live in
    buffers allocated once per run.  The state at t = 0, every store_every-th
    step and the last are kept as the accepted arrays, and copied once, at
    the end, into the rows of the trajectory's u.
    """
    if not (dt > 0 and t_end > 0 and blowup_cap > 0):   # nan too
        raise ValueError(f"dt, t_end and blowup_cap must be positive, got {dt}, {t_end}, {blowup_cap}")
    compat = check_compatibility(spec, F)
    if not compat.ok:
        raise ValueError(f"data incompatible with periodic boundary values: "
                         f"|integral f F(u0)| is {compat.defect:.3e}")
    if not spec.g.extremes(0.0, data_horizon(spec.g, t_end))[0] > 0:   # nan too
        raise ValueError("g must be strictly positive on [0, t_max]")
    grid = spec.alpha_grid()
    f_grid = np.asarray(spec.f(grid))
    k1, k2, k3, k4, stage, acc, w = (np.empty_like(grid) for _ in range(7))
    ratio_plus_psi = running_simpson(w, grid[1] - grid[0])
    g_and_ratio = _g_and_ratio(spec.g)

    def check_positive(t, u):
        if not np.minimum.reduce(u) > 0.0:   # nan too
            j = int(np.argmin(u))   # the first NaN, if any
            what = "NaN" if math.isnan(u[j]) else "nonpositive"
            raise RuntimeError(f"u became {what} at t={t:.6g}, alpha={grid[j]:.6g} "
                               f"(u={u[j]:.3e}); reduce dt or the blow-up cap")

    def rhs(u, g_ratio, k):
        # k = u (g'(t)/g(t) + psi), psi the running Simpson integral of f F(u)
        np.multiply(f_grid, F(u), out=w)
        return np.multiply(u, ratio_plus_psi(g_ratio), out=k)

    def stage_rhs(t, u, c, k_in, g_ratio, k):
        # the RHS at the stage input u + c k_in, checked before F reads it
        v = np.add(u, np.multiply(k_in, c, out=stage), out=stage)
        check_positive(t, v)
        return rhs(v, g_ratio, k)

    t = 0.0
    g_t, r_t = g_and_ratio(t)
    u = np.array(spec.u0(grid), dtype=float)
    u[0] = g_t
    check_positive(t, u)   # every later u is checked when it is accepted

    times, rows, dense = [0.0], [u], []

    def record_dense(t, u, g_t, j):   # t, max u, its argmax and the drift
        dense.append((t, float(u[j]), j, abs(float(u[-1]) - g_t) / g_t))

    store_every = max(1, int(round(t_end / dt / 256)))
    record_dense(0.0, u, g_t, int(u.argmax()))

    stop_reason = "t_end"
    dt_min = dt * 1e-12
    h_err = math.inf
    step_index = 0
    while t < t_end - 1e-12 * (1.0 + t_end):
        # stage 1 does not depend on the step, so it prices the step
        rhs(u, r_t, k1)
        _, umax, j, _ = dense[-1]
        rate = float(k1[j]) / umax
        step = min(dt, t_end - t, h_err, _GROWTH_LOG / rate if rate > 0 else math.inf)
        while True:
            _, r_half = g_and_ratio(t + 0.5 * step)
            g_next, r_next = g_and_ratio(t + step)
            # stage inputs are NOT pinned: at alpha = 0 the semi-discrete
            # system already evolves u' = u g'/g exactly (psi(0) = 0), and
            # overwriting Runge-Kutta intermediates with boundary values
            # would cost two orders of accuracy; only the accepted state is
            # projected back onto the boundary condition
            stage_rhs(t + 0.5 * step, u, 0.5 * step, k1, r_half, k2)
            stage_rhs(t + 0.5 * step, u, 0.5 * step, k2, r_half, k3)
            stage_rhs(t + step, u, step, k3, r_next, k4)
            # u + step/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
            np.add(acc, np.multiply(k3, 2.0, out=stage), out=acc)
            np.add(acc, k4, out=acc)
            u_new = u + np.multiply(acc, step / 6.0, out=acc)
            err = abs(float(u_new[0]) - g_next) / g_next
            h_err = step * min(5.0, 0.9 * (_STEP_RTOL / max(err, 1e-300)) ** 0.2)
            u_new[0] = g_next
            check_positive(t + step, u_new)
            j_new = int(u_new.argmax())   # the growth test's and the dense record's
            grew = float(u_new[j_new]) > _GROWTH_TRIGGER * umax
            if not (grew or err > _STEP_RTOL):
                break
            if step <= dt_min:   # no step passes: accepting one anyway stalls t
                raise RuntimeError(f"a step of {step:.3e} at t={t:.6g}, g(t)={g_t:.3e}, fails: error {err:.3e}, "
                                   f"tolerance {_STEP_RTOL:.0e}{', max u grew over 10%' if grew else ''}")
            step = min(h_err, step / 10.0) if grew else h_err
        t += step
        u, g_t, r_t = u_new, g_next, r_next
        step_index += 1
        record_dense(t, u, g_t, j_new)

        hit_cap = dense[-1][1] >= blowup_cap
        if step_index % store_every == 0 or hit_cap or t >= t_end - 1e-12 * (1.0 + t_end):
            times.append(t)
            rows.append(u)
        if hit_cap:
            stop_reason = "blowup_cap"
            break
        if step_index >= _MAX_STEPS:
            stop_reason = "max_steps"
            break

    t_dense, umax_dense, argmax_dense, drift_dense = map(np.array, zip(*dense))
    if (worst_drift := drift_dense.max()) > DRIFT_RTOL:
        warnings.warn(
            f"periodicity drift |u(1,t)-g(t)|/g(t) reached {worst_drift:.3e} "
            f"(tolerance {DRIFT_RTOL:.0e})",
            stacklevel=2,
        )
    rows = np.array(rows)   # the one copy of the stored states; the list goes with the name
    if message := _left_table(F, rows, umax_dense):
        warnings.warn(message, stacklevel=2)
    return Trajectory(alpha=grid, times=np.array(times), u=rows, t_dense=t_dense, umax_dense=umax_dense,
                      argmax_dense=argmax_dense, drift_rel_dense=drift_dense, stop_reason=stop_reason,
                      cap=blowup_cap, c=F.c)


def _left_table(F: Nonlinearity, u, umax):
    """What to say when u, in the stored states (its rows) or at any step's max,
    left a table F's nodes, past which F holds its end values (u F' = 0 < c F)."""
    if F.kind == "table":
        lo, hi = F.params["nodes"][0], F.params["nodes"][-1]
        u_lo, u_hi = float(u.min()), np.max(umax)
        if u_lo < lo or u_hi > hi:
            return (f"table F holds its end values outside its nodes [{lo:.6g}, {hi:.6g}]; "
                    f"u reached [{u_lo:.6g}, {u_hi:.6g}]")
    return None


def _g_and_ratio(g: FunctionDescriptor):
    """t -> (g(t), g'(t)/g(t)) on the float t, as the integrator needs them per stage.

    The pair is g(t), g.derivative(t) / g(t) bit for bit, read straight off
    g's bound kind, which keeps each kind's own checks (singular g's t < t_b,
    a table's domain); a polynomial g runs the one Horner loop in plain
    Python.  A non-finite g(t) raises.  The sign of g is not read here:
    integrate_general refuses, before the run, a g it cannot show positive.
    """
    value, derivative = g.bound.value, g.bound.derivative

    def g_and_ratio(t):
        g_t = float(value(t))
        if not math.isfinite(g_t):
            raise ValueError(f"{g.kind} descriptor produced non-finite samples")
        return g_t, float(derivative(t)) / g_t
    return g_and_ratio


# ---------------------------------------------------------------------------
# H0 and alpha0


def compute_H0_alpha0(spec: ProblemSpec, F: Nonlinearity) -> dict:
    """H0(alpha) = integral_0^alpha f F(u0) dx, built as psi0 is (the closed
    form when f F(u0) is one descriptor, and psi0 bit for bit when F = u),
    f's first zero alpha0, and H0(alpha0) read by the profile's value.

    window marks (0, alpha0] on the grid, widened by 1e-12 for a root a
    rounding below a node: hypotheses_ok asks H0 > 0 there (a violation is
    reported, not raised), and blowup_bounds samples its envelopes there.
    """
    prof = _profile(spec, *_integrand(spec, F))
    H0, alpha0 = prof.psi0, prof.alpha0
    if alpha0 is None:
        return {"H0": H0, "alpha0": None, "H0_alpha0": math.nan, "hypotheses_ok": False,
                "window": np.zeros(H0.nodes.size, dtype=bool)}
    H0_a0 = float(prof.value(alpha0))
    window = (H0.nodes > 0) & (H0.nodes <= alpha0 + 1e-12)
    positive = bool(np.all(H0.values[window] > 0)) and H0_a0 > 0
    return {"H0": H0, "alpha0": alpha0, "H0_alpha0": H0_a0, "hypotheses_ok": positive,
            "window": window}


# ---------------------------------------------------------------------------
# envelopes and the blow-up dichotomy


@dataclass(frozen=True)
class BoundsReport:
    """Envelope evaluation of a trajectory against the two-sided bounds.

    Envelope arrays are sampled at the stored states over the alpha window
    (0, alpha0]; margins are relative, positive when the bound holds.  The
    predicted field carries the verdict of the integral conditions on g^c
    and g^d, independent of the numerical trajectory.
    """

    alpha0: float | None
    H0_alpha0: float
    c: float
    d: float
    hypotheses_ok: bool
    monotonicity: str
    t_star_bound: float | None
    predicted: str
    int_gc_limit: float
    int_gd_limit: float
    limits_estimated: bool
    crossing_time: float | None
    domain_nodes: np.ndarray
    lower_envelope: np.ndarray | None
    upper_envelope: np.ndarray | None
    min_lower_margin: float | None
    min_upper_margin: float | None
    violations: tuple

    def to_text(self) -> str:
        lines = [
            f"monotonicity: {self.monotonicity}",
            f"hypotheses_ok: {self.hypotheses_ok}",
            f"alpha0: {'' if self.alpha0 is None else format(self.alpha0, '.12e')}",
            f"H0_alpha0: {self.H0_alpha0:.12e}",
            f"c: {self.c:.6g}",
            f"d: {self.d:.6g}",
            f"t_star_bound: {'' if self.t_star_bound is None else format(self.t_star_bound, '.12e')}",
            f"predicted: {self.predicted}",
            f"int_g_c_limit: {self.int_gc_limit:.12e}",
            f"int_g_d_limit: {self.int_gd_limit:.12e}",
            f"limits_estimated: {self.limits_estimated}",
            f"crossing_time: {'' if self.crossing_time is None else format(self.crossing_time, '.12e')}",
            f"min_lower_margin: {'' if self.min_lower_margin is None else format(self.min_lower_margin, '.6e')}",
            f"min_upper_margin: {'' if self.min_upper_margin is None else format(self.min_upper_margin, '.6e')}",
            f"violations: {len(self.violations)}",
        ]
        return "\n".join(lines) + "\n"


def _monotonicity(desc: FunctionDescriptor, t_hi: float) -> str:
    # g's direction on [0, t_hi], from the bounds on its slope; a slope of 0 is nondecreasing
    lo, hi = desc.extremes(0.0, data_horizon(desc, t_hi), slope=True)
    if lo >= 0:
        return "nondecreasing"
    if hi <= 0:
        return "nonincreasing"
    return "mixed"


def blowup_bounds(spec: ProblemSpec, F: Nonlinearity, trajectory: Trajectory) -> BoundsReport:
    """Check a trajectory against the applicable envelope bounds.

    Nondecreasing g: lower envelope g u0 (1 - (c/2) H0 t)^(-2/c), blow-up no
    later than 2/(c H0(alpha0)).  Nonincreasing g: upper envelope from the
    running integral of g^c, lower from g^d, with the global/blow-up verdict
    read off their limits.  Mixed monotonicity yields a not-applicable report.
    So does a u that left a table F's nodes (_left_table), with no bound, as H0 <= 0 does.
    When c == d (identity and power F) the two envelopes are one array,
    computed once, and so are the margins: (u - env)/env, negated for the
    upper side.  Envelopes are sampled on compute_H0_alpha0's window, and the
    states are read on it alone, a view of u; a report shares no array with u.
    """
    info = compute_H0_alpha0(spec, F)
    H0, alpha0 = info["H0"], info["alpha0"]
    H0_a0, ok = info["H0_alpha0"], info["hypotheses_ok"]
    c, d = F.c, F.d
    times = trajectory.times
    mono = _monotonicity(spec.g, float(times[-1]))

    gc_lim, est_c = power_integral_limit(spec.g, c)
    gd_lim, est_d = power_integral_limit(spec.g, d)
    report = dict(alpha0=alpha0, H0_alpha0=H0_a0, c=c, d=d, monotonicity=mono,
                  int_gc_limit=gc_lim, int_gd_limit=gd_lim,
                  limits_estimated=est_c or est_d)
    not_applicable = dict(predicted="NotApplicable", crossing_time=None,
                          lower_envelope=None, upper_envelope=None,
                          min_lower_margin=None, min_upper_margin=None, violations=())

    if not ok or alpha0 is None or _left_table(F, trajectory.u, trajectory.umax_dense):
        return BoundsReport(**report, **not_applicable, hypotheses_ok=False,
                            t_star_bound=None, domain_nodes=np.array([]))

    t_star_bound = 2.0 / (c * H0_a0)
    domain = info["window"]
    dom_nodes = trajectory.alpha[domain]
    report.update(hypotheses_ok=ok, t_star_bound=t_star_bound, domain_nodes=dom_nodes)
    if mono == "mixed":
        return BoundsReport(**report, **not_applicable)

    g_t = np.asarray(spec.g(times))
    u0_dom = np.asarray(spec.u0(dom_nodes))
    H0_dom = H0.values[domain]

    def envelope(I, e):
        # g u0 (1 - (e/2) H0 I)^(-2/e) at stored time i (row), node j (column); inf
        # once the bracket closes, and a positive bracket 1 - x is >= 2**-53: no floor
        value, arg = representation(g_t[:, None], u0_dom, H0_dom[None, :], I[:, None], e)
        np.copyto(value, np.inf, where=~(arg > 0))
        return value

    global_threshold = 2.0 / (d * H0_a0)
    if mono == "nondecreasing":
        predicted, crossing = "FiniteBlowup", t_star_bound
        lower, upper = envelope(times, c), None
    else:
        crossing = None
        if gd_lim > t_star_bound:   # the blow-up threshold 2/(c H0(alpha0)) on int g^d
            predicted = "FiniteBlowup"
            crossing = float(invert_power_integral(spec.g, d, t_star_bound))
            crossing = None if math.isnan(crossing) else crossing  # tabulated g ended first
        elif gc_lim <= global_threshold:
            predicted = "Global"
        else:
            predicted = "Indeterminate"
        lower = envelope(np.asarray(power_integral(spec.g, d, times)), c)
        upper = lower if c == d else envelope(np.asarray(power_integral(spec.g, c, times)), d)

    u_states = trajectory.u[:, 1:1 + dom_nodes.size]   # the window is nodes 1 .. k
    with np.errstate(invalid="ignore"):   # NaN where the envelope is inf
        rel = (u_states - lower) / lower   # lower: u above env; upper: u below
        margins = (rel, None if upper is None else
                   -rel if upper is lower else -((u_states - upper) / upper))
    violations, min_margins = [], []
    for side, env, m in zip(("lower", "upper"), (lower, upper), margins):
        if env is None:
            min_margins.append(None)
            continue
        low = float(np.fmin.reduce(m, axis=None, initial=np.nan))   # nanmin's arithmetic
        min_margins.append(low if low == low or np.isfinite(env).any() else None)
        i, j = np.unravel_index(np.flatnonzero(m < 0)[:1000], m.shape)
        violations += zip(dom_nodes[j].tolist(), times[i].tolist(), m[i, j].tolist(),
                          [side] * i.size)

    return BoundsReport(**report, predicted=predicted, crossing_time=crossing,
                        lower_envelope=lower, upper_envelope=upper,
                        min_lower_margin=min_margins[0], min_upper_margin=min_margins[1],
                        violations=tuple(violations))


# ---------------------------------------------------------------------------
# blow-up detection


def detect_blowup(trajectory: Trajectory) -> dict:
    """First cap crossing of max u, with an extrapolated true blow-up time.

    t_numeric interpolates the crossing between the last sub-cap step and the
    first super-cap step on a log scale; t_extrapolated fits the tail to
    u_max ~ K (t* - t)^(-2/c), the growth law the envelope bounds prescribe.
    """
    cap = trajectory.cap
    umax = trajectory.umax_dense
    ts = trajectory.t_dense
    over = np.flatnonzero(umax >= cap)
    if over.size == 0:
        return {"blew_up": False, "t_numeric": None, "location": None,
                "t_extrapolated": None}
    k = int(over[0])
    j = int(trajectory.argmax_dense[k])
    location = float(trajectory.alpha[j])
    if k == 0:
        t_numeric = float(ts[0])
    else:
        lo, hi = umax[k - 1], umax[k]
        w = (math.log(cap) - math.log(lo)) / (math.log(hi) - math.log(lo))
        t_numeric = float(ts[k - 1] + w * (ts[k] - ts[k - 1]))

    # tail fit: y = u^(-c/2) decays linearly to zero at t*
    tail_lo = max(0, k - 12)
    sel = slice(tail_lo, k + 1)
    y = umax[sel] ** (-trajectory.c / 2.0)
    x = ts[sel]
    if len(y) >= 3:
        (slope, intercept), *_ = _fit_line(x, y)
        t_extrap = float(-intercept / slope) if slope < 0 else None
    else:
        t_extrap = None
    return {"blew_up": True, "t_numeric": t_numeric, "location": location,
            "t_extrapolated": t_extrap}
