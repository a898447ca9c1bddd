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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .problem_model import (
    FunctionDescriptor,
    GridFunction,
    ProblemSpec,
    _KINDS,
    _polynomial_derivative,
    cell_simpson,
    cell_simpson_at,
    check_compatibility,
    cumulative_simpson,
    data_horizon,
    interior_zeros,
    invert_power_integral,
    power_integral,
    power_integral_limit,
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


@dataclass(frozen=True)
class Nonlinearity:
    """F(u) with envelope constants c <= d satisfying cF <= uF' <= dF.

    kinds: identity (F(u)=u, c=d=1), power (F(u)=u^p, c=d=p), table
    (piecewise-linear F with user-supplied c, d, validated on a log grid
    over u in [1e-3, 1e3]; outside that window the envelope constants are
    unverified).
    """

    kind: str
    c: float
    d: float
    params: dict

    def __post_init__(self):
        if self.kind not in ("identity", "power", "table"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if not (0 < self.c <= self.d):
            raise ValueError(f"need 0 < c <= d, got c={self.c}, d={self.d}")
        if self.kind == "table":
            self._validate_table()

    def _validate_table(self):
        nodes = np.asarray(self.params["nodes"], dtype=float)
        values = np.asarray(self.params["values"], dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
            raise ValueError("table nonlinearity needs matching 1-d nodes/values")
        if not np.all(np.diff(nodes) > 0) or nodes[0] <= 0:
            raise ValueError("table nodes must be strictly increasing and positive")
        if np.any(values < 0):
            raise ValueError("F must be nonnegative")
        # envelope check c F <= u F' <= d F at segment midpoints inside the
        # verified window [1e-3, 1e3]
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        slopes = np.diff(values) / np.diff(nodes)
        inside = (mids >= 1e-3) & (mids <= 1e3)
        F_mid = np.interp(mids[inside], nodes, values)
        uFp = mids[inside] * slopes[inside]
        slack = 1e-9 * (1.0 + np.abs(F_mid))
        low_ok = self.c * F_mid <= uFp + slack
        high_ok = uFp <= self.d * F_mid + slack
        if not (np.all(low_ok) and np.all(high_ok)):
            worst = float(np.min(np.minimum(uFp - self.c * F_mid, self.d * F_mid - uFp)))
            raise ValueError(
                f"table nonlinearity violates c F <= u F' <= d F on [1e-3, 1e3] "
                f"(worst margin {worst:.3e})"
            )

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            out = u
        elif self.kind == "power":
            out = u ** self.params["p"]
        else:
            out = np.interp(u, np.asarray(self.params["nodes"]),
                            np.asarray(self.params["values"]))
        return out if out.ndim else float(out)


def identity_F() -> Nonlinearity:
    return Nonlinearity("identity", 1.0, 1.0, {})


def power_F(p: float) -> Nonlinearity:
    if p <= 0:
        raise ValueError("power nonlinearity needs p > 0")
    return Nonlinearity("power", float(p), float(p), {"p": float(p)})


def table_F(nodes, values, c: float, d: float) -> Nonlinearity:
    return Nonlinearity("table", float(c), float(d),
                        {"nodes": tuple(nodes), "values": tuple(values)})


# ---------------------------------------------------------------------------
# trajectory containers


@dataclass(frozen=True)
class GeneralizedState:
    """One stored snapshot: u on the alpha grid at time t."""

    t: float
    u: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Snapshots plus dense per-step scalars for blow-up detection."""

    alpha: np.ndarray
    states: tuple
    t_dense: np.ndarray
    umax_dense: np.ndarray
    argmax_dense: np.ndarray
    drift_rel_dense: np.ndarray
    stop_reason: str
    cap: float
    c: float
    d: float

    @property
    def state_times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def to_csv(self, path, comment: str | None = None):
        write_csv(path, comment, "t,alpha,u", "%.12e,%.12e,%.12e",
                  (np.repeat(self.state_times, self.alpha.size),
                   np.tile(self.alpha, len(self.states)), [s.u for s in self.states]))


# ---------------------------------------------------------------------------
# integration


def integrate_general(spec: ProblemSpec, F: Nonlinearity, t_end: float, dt: float,
                      blowup_cap: float = BLOWUP_CAP_DEFAULT) -> Trajectory:
    """RK4 time integration of the method-of-lines system.

    psi is recomputed by cumulative Simpson at every Runge-Kutta stage; g and
    g'/g are evaluated once per stage time and shared by the stages.  Each
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
    soon as max u reaches blowup_cap.  Raises on nonpositive u (numerical
    failure) and on incompatible data (check_compatibility with F reports a
    nonzero integral of f F(u0)).
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    compat = check_compatibility(spec, F)
    if not compat.ok:
        raise ValueError(f"data incompatible with periodic boundary values: "
                         f"|integral f F(u0)| is {compat.defect:.3e}")
    grid = spec.alpha_grid()
    h = grid[1] - grid[0]

    f_grid = np.asarray(spec.f(grid))
    psi_buf = np.empty_like(grid)

    def psi_of(u):
        return cumulative_simpson(f_grid * np.asarray(F(u)), h, out=psi_buf)

    g_and_ratio = _g_and_ratio(spec.g)

    def check_positive(t, u):
        if u.min() <= 0.0:
            j = int(np.argmin(u))
            raise RuntimeError(f"u became nonpositive at t={t:.6g}, alpha={grid[j]:.6g} "
                               f"(u={u[j]:.3e}); reduce dt or the blow-up cap")

    def rhs(t, u, g_ratio):
        # g_ratio is g'(t)/g(t)
        check_positive(t, u)
        return u * (g_ratio + psi_of(u))

    t = 0.0
    g_t, r_t = g_and_ratio(t)
    u = np.array(spec.u0(grid), dtype=float)
    u[0] = g_t

    states = []
    t_dense, umax_dense, argmax_dense, drift_dense = [], [], [], []

    def record_dense(t, u, g_t):
        j = int(np.argmax(u))
        t_dense.append(t)
        umax_dense.append(float(u[j]))
        argmax_dense.append(j)
        drift_dense.append(abs(float(u[-1]) - g_t) / g_t)

    store_every = max(1, int(round(t_end / dt / 256)))
    states.append(GeneralizedState(0.0, u.copy()))
    record_dense(0.0, u, g_t)

    stop_reason = "t_end"
    dt_min = dt * 1e-12
    h_err = math.inf
    step_index = 0
    while t < t_end - 1e-12 * (1.0 + t_end):
        # stage 1 does not depend on the step, so it prices the step
        k1 = rhs(t, u, r_t)
        j = argmax_dense[-1]
        rate = float(k1[j]) / umax_dense[-1]
        step = min(dt, t_end - t, h_err, _GROWTH_LOG / rate if rate > 0 else math.inf)
        while True:
            _, r_half = g_and_ratio(t + 0.5 * step)
            g_next, r_next = g_and_ratio(t + step)
            # stage inputs are NOT pinned: at alpha = 0 the semi-discrete
            # system already evolves u' = u g'/g exactly (psi(0) = 0), and
            # overwriting Runge-Kutta intermediates with boundary values
            # would cost two orders of accuracy; only the accepted state is
            # projected back onto the boundary condition
            k2 = rhs(t + 0.5 * step, u + 0.5 * step * k1, r_half)
            k3 = rhs(t + 0.5 * step, u + 0.5 * step * k2, r_half)
            k4 = rhs(t + step, u + step * k3, r_next)
            u_new = u + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            err = abs(float(u_new[0]) - g_next) / g_next
            h_err = step * min(5.0, 0.9 * (_STEP_RTOL / max(err, 1e-300)) ** 0.2)
            u_new[0] = g_next
            check_positive(t + step, u_new)
            grew = float(u_new.max()) > _GROWTH_TRIGGER * umax_dense[-1]
            if step <= dt_min or not (grew or err > _STEP_RTOL):
                break
            step = min(h_err, step / 10.0) if grew else h_err
        t += step
        u, g_t, r_t = u_new, g_next, r_next
        step_index += 1
        record_dense(t, u, g_t)

        hit_cap = umax_dense[-1] >= blowup_cap
        if step_index % store_every == 0 or hit_cap or t >= t_end - 1e-12 * (1.0 + t_end):
            states.append(GeneralizedState(t, u.copy()))
        if hit_cap:
            stop_reason = "blowup_cap"
            break
        if step_index >= _MAX_STEPS:
            stop_reason = "max_steps"
            break

    if (worst_drift := max(drift_dense)) > DRIFT_RTOL:
        warnings.warn(
            f"periodicity drift |u(1,t)-g(t)|/g(t) reached {worst_drift:.3e} "
            f"(tolerance {DRIFT_RTOL:.0e})",
            stacklevel=2,
        )
    return Trajectory(
        alpha=grid,
        states=tuple(states),
        t_dense=np.array(t_dense),
        umax_dense=np.array(umax_dense),
        argmax_dense=np.array(argmax_dense, dtype=int),
        drift_rel_dense=np.array(drift_dense),
        stop_reason=stop_reason,
        cap=blowup_cap,
        c=F.c,
        d=F.d,
    )


def _g_and_ratio(g: FunctionDescriptor):
    """t -> (g(t), g'(t)/g(t)) on scalars, as the integrator needs them per stage.

    The pair is g(t), g.derivative(t) / g(t) bit for bit, read straight off
    the kind table on the 0-d array of t, which keeps each kind's own checks
    (singular g's t < t_b), or for a polynomial off npoly.polyval's Horner
    loop run in plain Python.  A non-finite g(t) raises.
    """
    if g.is_polynomial():
        coeffs = g.poly_coeffs()
        dcoeffs = _polynomial_derivative(coeffs)

        def horner(c, x):
            acc = c[-1] + x * 0.0
            for ci in c[-2::-1]:
                acc = ci + acc * x
            return acc

        def value_and_slope(t):
            return horner(coeffs, t), horner(dcoeffs, t)
    else:
        kind, p = _KINDS[g.kind], g.params

        def value_and_slope(t):
            x = np.asarray(t, dtype=float)
            return float(kind.value(p, x)), float(kind.derivative(p, x))

    def g_and_ratio(t):
        g_t, slope = value_and_slope(t)
        if not math.isfinite(g_t):
            raise ValueError(f"{g.kind} descriptor produced non-finite samples")
        return g_t, slope / g_t
    return g_and_ratio


# ---------------------------------------------------------------------------
# H0 and alpha0


def compute_H0_alpha0(spec: ProblemSpec, F: Nonlinearity) -> dict:
    """H0(alpha) = integral_0^alpha f F(u0) dx by Simpson's rule on each cell,
    f's first zero alpha0, and H0(alpha0) by the same rule on its partial cell.

    window marks (0, alpha0] on the grid, widened by 1e-12 for a root a
    rounding below a node: hypotheses_ok asks H0 > 0 there (a violation is
    reported, not raised), and blowup_bounds samples its envelopes there.
    """
    def w(x):
        return np.asarray(spec.f(x)) * np.asarray(F(spec.u0(x)))

    grid = spec.alpha_grid()
    vals = cell_simpson(w, grid)
    H0 = GridFunction(grid, vals)
    zeros, _ = interior_zeros(spec.f, grid)
    if zeros.size == 0:
        return {"H0": H0, "alpha0": None, "H0_alpha0": math.nan, "hypotheses_ok": False,
                "window": np.zeros(grid.size, dtype=bool)}
    alpha0 = float(zeros[0])
    H0_a0 = float(cell_simpson_at(vals, w, grid, alpha0))
    window = (grid > 0) & (grid <= alpha0 + 1e-12)
    positive = bool(np.all(vals[window] > 0)) and H0_a0 > 0
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

    H0: GridFunction
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
    state_times: np.ndarray
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
    ts = np.linspace(0.0, data_horizon(desc, t_hi), 513)
    dv = np.asarray(desc.derivative(ts))
    scale = max(float(np.max(np.abs(dv))), 1e-300)
    if np.all(dv >= -1e-12 * scale):
        return "nondecreasing"
    if np.all(dv <= 1e-12 * scale):
        return "nonincreasing"
    return "mixed"


def blowup_bounds(spec: ProblemSpec, F: Nonlinearity, trajectory: Trajectory) -> BoundsReport:
    """Check a trajectory against the applicable envelope bounds.

    Nondecreasing g: lower envelope g u0 (1 - (c/2) H0 t)^(-2/c), blow-up no
    later than 2/(c H0(alpha0)).  Nonincreasing g: upper envelope from the
    running integral of g^c, lower from g^d, with the global/blow-up verdict
    read off their limits.  Mixed monotonicity yields a not-applicable report.
    When c == d (identity and power F) the two envelopes are one array,
    computed once.  Envelopes are sampled on compute_H0_alpha0's window.
    """
    info = compute_H0_alpha0(spec, F)
    H0, alpha0 = info["H0"], info["alpha0"]
    H0_a0, ok = info["H0_alpha0"], info["hypotheses_ok"]
    c, d = F.c, F.d
    times = trajectory.state_times
    t_hi = float(times[-1]) if times.size else 1.0
    mono = _monotonicity(spec.g, t_hi)

    gc_lim, est_c = power_integral_limit(spec.g, c)
    gd_lim, est_d = power_integral_limit(spec.g, d)
    report = dict(H0=H0, alpha0=alpha0, H0_alpha0=H0_a0, c=c, d=d, monotonicity=mono,
                  int_gc_limit=gc_lim, int_gd_limit=gd_lim,
                  limits_estimated=est_c or est_d, state_times=times)
    not_applicable = dict(predicted="NotApplicable", crossing_time=None,
                          lower_envelope=None, upper_envelope=None,
                          min_lower_margin=None, min_upper_margin=None, violations=())

    if not ok or alpha0 is None:
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
        # g u0 (1 - (e/2) H0 I)^(-2/e), row i at stored time i, column j at
        # node j; infinite once the bracket closes
        arg = 1.0 - 0.5 * e * H0_dom[None, :] * I[:, None]
        with np.errstate(over="ignore", divide="ignore"):
            return np.where(arg > 0, g_t[:, None] * u0_dom / np.maximum(arg, 1e-300) ** (2.0 / e),
                            np.inf)

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

    u_states = np.array([s.u for s in trajectory.states])[:, domain]
    violations, min_margins = [], []
    for side, env in (("lower", lower), ("upper", upper)):
        if env is None:
            min_margins.append(None)
            continue
        finite = np.isfinite(env)
        sign = 1.0 if side == "lower" else -1.0   # lower: u above env; upper: u below
        margins = np.where(finite, sign * (u_states - env) / np.where(finite, env, 1.0), np.nan)
        min_margins.append(float(np.nanmin(margins)) if np.any(finite) else None)
        i, j = (k[:1000] for k in np.nonzero(margins < 0))
        violations += zip(dom_nodes[j].tolist(), times[i].tolist(), margins[i, j].tolist(),
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
        A = np.vstack([x, np.ones_like(x)]).T
        (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
        t_extrap = float(-intercept / slope) if slope < 0 else None
    else:
        t_extrap = None
    return {"blew_up": True, "t_numeric": t_numeric, "location": location,
            "t_extrapolated": t_extrap}
