"""Classification of global existence versus blow-up, final profiles, and
Lp blow-up asymptotics.

The dichotomy is controlled by two numbers: M0, the greatest value of psi0,
and the limit G_infinity of the accumulated boundary integral.

  * M0 = 0 with bounded boundary data: the solution exists globally.
  * M0 > 0 and G_infinity > 2/M0: the sup-norm diverges at the finite time
    t* = G^{-1}(2/M0), exactly at the argmax set of psi0, while every other
    alpha converges to the finite profile C(alpha) = g(t*) u0 (1-psi0/M0)^-2.
  * Boundary data from the singular family (1-t)^-(1+beta) blow up on their
    own at t_b = 1; when M0 > 0 the interior still wins (t* < 1), and when
    M0 = 0 the boundary drives divergence on the zero set of psi0 with a
    beta-dependent taxonomy of interior limits (finite at the threshold
    beta = 1, zero above it, infinite below).

Near-blow-up growth of the Lp norms is governed by the local shape of psi0
at its argmax, psi0 ~ M0 + C1|alpha - abar|^q, through the rate
(G(t*) - G(t))^-(2 - 1/q) and an explicit gamma-function constant.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .closed_form_solver import SINGULAR_ATOL, SolutionField, evaluate_field, representation
from .errors import NearSingular
from .problem_model import (
    BoundaryIntegral,
    GridFunction,
    INVERT_RTOL,
    ProblemSpec,
    Psi0Profile,
    _fit_line,
    invert_G,
    simpson_weights,
)

VERDICT_GLOBAL = "Global"
VERDICT_FINITE = "FiniteBlowup"
VERDICT_BOUNDARY = "BoundaryInducedBlowup"

# limit tags used in profile_limits
FINITE, ZERO, INFINITE = "finite", "zero", "infinite"


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of classification plus everything known about the final state.

    profile_limits tags each alpha node of the underlying grid with the
    behavior of u(alpha, t) as t approaches the blow-up time (None for
    global solutions).  sufficient_global / sufficient_blowup record whether
    the derivative-sign sufficient conditions fired; they imply, but are not
    implied by, the verdict.
    """

    verdict: str
    t_star: float | None = None
    blowup_locations: np.ndarray = field(default_factory=lambda: np.array([]))
    final_profile: GridFunction | None = None
    beta_case: str | None = None
    profile_limits: np.ndarray | None = None
    sufficient_global: bool = False
    sufficient_blowup: bool = False
    g_infinity_estimated: bool = False
    notes: tuple = ()

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        lines.append(f"t_star: {'' if self.t_star is None else format(self.t_star, '.12e')}")
        locs = ",".join(f"{a:.12e}" for a in np.atleast_1d(self.blowup_locations))
        lines.append(f"blowup_locations: {locs}")
        lines.append(f"beta_case: {self.beta_case or ''}")
        lines.append(f"sufficient_global_condition_fired: {self.sufficient_global}")
        lines.append(f"sufficient_blowup_condition_fired: {self.sufficient_blowup}")
        lines.append(f"g_infinity_estimated: {self.g_infinity_estimated}")
        if self.profile_limits is not None:
            tags, counts = np.unique(self.profile_limits, return_counts=True)
            summary = ", ".join(f"{t}:{c}" for t, c in zip(tags, counts))
            lines.append(f"profile_limit_counts: {summary}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CuspModel:
    """Local model psi0 ~ M0 + C1 |alpha - alpha_bar|^q at an argmax point."""

    q: float
    C1: float
    alpha_bar: float
    residual: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"cusp exponent must be positive, got {self.q}")
        if self.C1 >= 0:
            raise ValueError(f"cusp coefficient must be negative, got {self.C1}")


# ---------------------------------------------------------------------------
# sufficient conditions (derivative sign tests; sufficient, never necessary)


def _sufficient_conditions(spec: ProblemSpec, grid: np.ndarray,
                           alpha0: float | None) -> tuple[bool, bool]:
    """(global, blowup): whether each derivative-sign condition fires on grid.

    global: (f u0)' > 0 everywhere forces psi0 convex, hence M0 = 0 by
    psi0(0) = psi0(1) = 0.  blowup: f u0' <= 0 on [0, alpha1] for some node
    alpha1 past the first zero alpha0 of f, (f u0)' >= 0 on [alpha1, 1], and
    f vanishes again at some alpha2 >= alpha1 (a zero node or a sign change)
    later than alpha0's own node.
    """
    f = np.asarray(spec.f(grid))
    a = f * np.asarray(spec.u0.derivative(grid))                                # f u0'
    b = a + np.asarray(spec.f.derivative(grid)) * np.asarray(spec.u0(grid))    # (f u0)'
    suff_global = bool(np.all(b > 0))
    if alpha0 is None:
        return suff_global, False
    tol = 1e-12 * max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    prefix = np.logical_and.accumulate(a <= tol)
    suffix = np.logical_and.accumulate((b >= -tol)[::-1])[::-1]
    alpha1 = grid[prefix & suffix & (grid > alpha0)]
    if not alpha1.size:
        return suff_global, False
    f_late = f[grid >= max(alpha1[0], alpha0 + 0.5 * (grid[1] - grid[0]))]
    f_tol = 1e-12 * max(float(np.max(np.abs(f))), 1e-300)
    return suff_global, bool(np.any(np.abs(f_late) <= f_tol) or np.any(f_late[:-1] * f_late[1:] < 0))


# ---------------------------------------------------------------------------
# classification


def _finite_blowup(profile: Psi0Profile, spec: ProblemSpec, t_star: float, g_star: float,
                   **extra) -> RegularityReport:
    """The FiniteBlowup report at t* with g(t*) = g_star: blow-up on the argmax
    set, every other node tagged finite with the final profile
    C(alpha) = g* u0 (1 - psi0/M0)^-2 there, which is representation() at
    G(t*) = 2/M0.  g_star is passed in, so the singular family's closed form
    gives g(t*) exactly where g at the rounded t* would not."""
    grid = profile.psi0.nodes
    vals, D = representation(g_star, spec.u0(grid), profile.psi0.values, 2.0 / profile.M0)
    keep = np.abs(D) > SINGULAR_ATOL
    return RegularityReport(verdict=VERDICT_FINITE, t_star=t_star,
                            blowup_locations=profile.argmax_set,
                            final_profile=GridFunction(grid[keep], vals[keep]),
                            profile_limits=np.where(keep, FINITE, INFINITE).astype("<U8"), **extra)


def classify(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec) -> RegularityReport:
    """Global existence versus finite-time blow-up for the problem data.

    Singular-family boundary data are routed through singular_boundary_report;
    otherwise the verdict is read off M0 and G_infinity.  A G_infinity equal
    to 2/M0 within INVERT_RTOL (1 + 2/M0), the inverter's tolerance, sits
    between the two theorems (the norm grows without bound but never in
    finite time); it is reported Global with a note.
    """
    suff_g, suff_b = _sufficient_conditions(spec, profile.psi0.nodes, profile.alpha0)

    if spec.g.kind == "singular_boundary":
        return dataclasses.replace(singular_boundary_report(profile, spec),
                                   sufficient_global=suff_g, sufficient_blowup=suff_b)

    M0 = profile.M0
    flags = dict(sufficient_global=suff_g, sufficient_blowup=suff_b,
                 g_infinity_estimated=B.estimated)
    if M0 == 0.0:
        return RegularityReport(verdict=VERDICT_GLOBAL, **flags)
    target = 2.0 / M0
    if abs(B.G_infinity - target) <= INVERT_RTOL * (1.0 + target):
        note = ("G_infinity equals 2/M0 to within invert_rtol: the norm grows without "
                "bound but no finite blow-up time exists")
        return RegularityReport(verdict=VERDICT_GLOBAL, notes=(note,), **flags)
    if B.G_infinity < target:
        note = (f"M0={M0:.6g} positive but G_infinity={B.G_infinity:.6g} "
                f"stays below 2/M0={target:.6g}")
        return RegularityReport(verdict=VERDICT_GLOBAL, notes=(note,), **flags)
    t_star = invert_G(B, target)
    return _finite_blowup(profile, spec, t_star, float(spec.g(t_star)), **flags)


def singular_boundary_report(profile: Psi0Profile, spec: ProblemSpec) -> RegularityReport:
    """Blow-up structure for boundary data g = (1 - t)^-(1+beta), beta > 0.

    G diverges as t approaches 1, so any M0 > 0 forces interior blow-up at

        t* = 1 - (M0 / (2 beta + M0))^(1/beta) < 1,

    strictly before the boundary's own time.  With M0 = 0 the boundary drives
    the divergence at t = 1 on the zero set of psi0; elsewhere the limit is
    4 u0/psi0^2 at the threshold beta = 1, zero for beta > 1, infinite for
    beta < 1.
    """
    if spec.g.kind != "singular_boundary":
        raise ValueError("singular_boundary_report requires singular_boundary boundary data")
    beta = spec.g.params["beta"]
    beta_case = "beta=1" if beta == 1.0 else ("beta<1" if beta < 1.0 else "beta>1")
    grid, psi, M0 = profile.psi0.nodes, profile.psi0.values, profile.M0

    if M0 > 0.0:
        t_star = 1.0 - (M0 / (2.0 * beta + M0)) ** (1.0 / beta)
        g_star = ((2.0 * beta + M0) / M0) ** ((1.0 + beta) / beta)
        return _finite_blowup(profile, spec, t_star, g_star, beta_case=beta_case,
                              notes=(f"interior blow-up at t*={t_star:.12g} precedes the "
                                     "boundary blow-up time t_b=1",))

    # boundary-driven branch: psi0 <= 0, divergence on its zero set at t_b = 1;
    # off it the limit is finite for beta = 1, zero above and infinite below
    keep = ~np.isin(grid, profile.omega) & (beta >= 1.0)
    vals = (4.0 * np.asarray(spec.u0(grid[keep])) / psi[keep] ** 2 if beta == 1.0
            else np.zeros(np.count_nonzero(keep)))
    return RegularityReport(
        verdict=VERDICT_BOUNDARY,
        t_star=1.0,
        blowup_locations=profile.omega,
        final_profile=GridFunction(grid[keep], vals) if np.count_nonzero(keep) >= 2 else None,
        beta_case=beta_case,
        profile_limits=np.where(keep, FINITE if beta == 1.0 else ZERO, INFINITE).astype("<U8"),
        notes=("divergence is driven by the boundary data on the zero set of psi0; "
               f"interior limits are tagged per the beta taxonomy ({beta_case})",),
    )


# ---------------------------------------------------------------------------
# Lp norms and blow-up asymptotics


def _parabolic_peak(ym, y0, yp):
    """Peak of the parabola through three equispaced samples, or the middle
    sample when they are (numerically) collinear or not concave."""
    denom = ym - 2.0 * y0 + yp
    if abs(denom) < 1e-300 or denom >= 0:
        return y0
    return max(y0 - 0.125 * (ym - yp) ** 2 / denom, y0)


def lp_norm(fld: SolutionField, p, t: float) -> float:
    """||u(., t)||_p over alpha in [0, 1] from a sampled field row.

    Needs a uniform alpha grid of [0, 1] with at least 3 nodes, and raises
    ValueError on a non-uniform one.  Finite p integrates u^p as one dot
    product with simpson_weights, which is scipy.integrate.cumulative_simpson's
    rule (its last value, to rounding) on either parity; p = inf takes the grid max
    sharpened by one parabolic-fit step.  A masked row cannot be normed.
    """
    h = fld.alpha_step
    idx = fld.node(t)
    if fld.masked_rows[idx]:
        j = int(np.argmax(fld.singular_mask[idx]))
        raise NearSingular(float(fld.alpha_nodes[j]), float(fld.t_nodes[idx]), 0.0)
    row = fld.row(t, idx)
    p = float(p)   # every spelling of inf, "Infinity" too
    if p == math.inf:
        j = int(row.argmax())
        if 0 < j < len(row) - 1:   # Python floats, whose ** 2 is libm pow as numpy's
            return float(_parabolic_peak(*row[j - 1:j + 2].tolist()))
        return float(row[j])
    if not p >= 1.0:   # nan too
        raise ValueError(f"p must be in [1, inf], got {p}")
    # unmasked samples of u = u0 g / D^2 are positive
    return float(simpson_weights(len(row)) @ row ** p * (h / 3.0)) ** (1.0 / p)


def lp_asymptotic_constant(M0: float, C1: float, q: float) -> dict:
    """Growth law of the Lp norms approaching blow-up.

    For psi0 ~ M0 + C1|alpha - abar|^q near a single argmax the norms grow
    like (G(t*) - G(t))^-(2 - 1/q) with constant

        C = (8/M0^2) (M0^2 / (2|C1|))^(1/q) Gamma(1 + 1/q) Gamma(2 - 1/q),

    valid for q > 1/2 (the second gamma factor leaves its domain otherwise).
    """
    if q <= 0.5:
        raise ValueError(f"the asymptotic constant requires q > 1/2, got q={q}")
    if M0 <= 0:
        raise ValueError("M0 must be positive at blow-up")
    if C1 >= 0:
        raise ValueError("cusp coefficient C1 must be negative")
    C = (8.0 / M0**2) * (M0**2 / (2.0 * abs(C1))) ** (1.0 / q) \
        * math.gamma(1.0 + 1.0 / q) * math.gamma(2.0 - 1.0 / q)
    return {"C": C, "exponent": 2.0 - 1.0 / q}


def fit_cusp(profile: Psi0Profile) -> list[CuspModel]:
    """Fit psi0 ~ M0 + C1|alpha - abar|^q at each argmax point of psi0.

    Log-log least squares of (M0 - psi0) against |alpha - abar| over a radius
    that starts at 0.1 and halves while the fit residual exceeds 1e-2.  One model
    per argmax point, in argmax order.
    """
    if profile.M0 <= 0 or profile.argmax_set.size == 0:
        raise ValueError("cusp fitting needs a positive M0 attained in (0, 1)")
    grid = profile.psi0.nodes
    psi = profile.psi0.values
    h = grid[1] - grid[0]
    models = []
    for abar in np.atleast_1d(profile.argmax_set):
        radius, best = 0.1, None
        while True:
            sel = (np.abs(grid - abar) >= 2.0 * h) & (np.abs(grid - abar) <= radius)
            drop = profile.M0 - psi[sel]
            sel_x = np.abs(grid[sel] - abar)
            good = drop > 0
            if np.count_nonzero(good) < 4:
                if best is not None:
                    break
                raise ValueError(
                    f"not enough samples to fit a cusp at alpha={abar:.6g} (radius {radius:.3g})"
                )
            y = np.log(drop[good])
            (slope, intercept), res, _, _ = _fit_line(np.log(sel_x[good]), y)
            residual = math.sqrt(float(res[0]) / len(y)) if res.size else 0.0
            best = CuspModel(q=float(slope), C1=-math.exp(float(intercept)),
                             alpha_bar=float(abar), residual=residual)
            if residual <= 1e-2 or radius <= 8.0 * h:
                break
            radius *= 0.5
        models.append(best)
    return models


def lp_blowup_fit(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec) -> dict:
    """Fit the near-blow-up growth of ||u||_1 and compare with the theorem.

    Samples t so that delta = G(t*) - G(t) takes 9 geometric steps from 1e-4
    to 1e-2, all inverted in one call, computes the L1 norms on 8193 alpha
    nodes, normalizes by m0 g(t) (the theorem's lower bound is
    C m0 g(t*) delta^-(2-1/q)), and fits log(norm) = log(prefactor) + slope log(delta).

    Returns slope, prefactor, and the predicted constant C and exponent.
    Multi-argmax profiles use the first argmax point.
    """
    M0 = profile.M0
    if M0 <= 0:
        raise ValueError("Lp blow-up asymptotics need M0 > 0")
    deltas = np.geomspace(1e-4, 1e-2, 9)
    cusp = fit_cusp(profile)[0]
    predicted = lp_asymptotic_constant(M0, cusp.C1, cusp.q)

    targets = 2.0 / M0 - deltas
    t_samples = B.invert(targets)
    if np.any(bad := np.isnan(t_samples) | (targets < 0)):
        invert_G(B, targets[np.argmax(bad)])   # raises the scalar inverter's error
    alpha_grid = np.linspace(0.0, 1.0, 8193)
    fld = evaluate_field(profile, B, spec, alpha_grid, t_samples)
    m0 = float(np.min(spec.u0(alpha_grid)))
    norms = np.array([
        lp_norm(fld, 1.0, t) / (m0 * float(spec.g(t))) for t in t_samples
    ])
    (slope, intercept), *_ = _fit_line(np.log(deltas), np.log(norms))
    return {
        "slope": float(slope),
        "prefactor": math.exp(float(intercept)),
        "C": predicted["C"],
        "exponent": predicted["exponent"],
    }
