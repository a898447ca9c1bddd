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

from .closed_form_solver import SINGULAR_ATOL, SolutionField, evaluate_field
from .errors import NearSingular
from .problem_model import (
    BoundaryIntegral,
    GridFunction,
    INVERT_RTOL,
    ProblemSpec,
    Psi0Profile,
    cumulative_simpson,
    invert_G,
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
    r: float
    residual: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"cusp exponent must be positive, got {self.q}")
        if self.C1 >= 0:
            raise ValueError(f"cusp coefficient must be negative, got {self.C1}")


# ---------------------------------------------------------------------------
# sufficient conditions (derivative sign tests; sufficient, never necessary)


def _sufficient_global(spec: ProblemSpec, grid: np.ndarray) -> bool:
    # (f u0)'' context: f u0' + f' u0 > 0 everywhere forces psi0 convex,
    # hence M0 = 0 by psi0(0) = psi0(1) = 0
    vals = spec.f(grid) * spec.u0.derivative(grid) + spec.f.derivative(grid) * spec.u0(grid)
    return bool(np.all(vals > 0))


def _sufficient_blowup(spec: ProblemSpec, grid: np.ndarray, alpha0: float | None) -> bool:
    # fires when f u0' <= 0 up to some alpha1 past the first zero alpha0 of f,
    # (f u0)' >= 0 from alpha1 on, and f vanishes again at some alpha2 >= alpha1
    if alpha0 is None:
        return False
    f_vals = np.asarray(spec.f(grid))
    a_vals = f_vals * np.asarray(spec.u0.derivative(grid))
    b_vals = a_vals + np.asarray(spec.f.derivative(grid)) * np.asarray(spec.u0(grid))
    scale = max(float(np.max(np.abs(a_vals))), float(np.max(np.abs(b_vals))), 1e-300)
    tol = 1e-12 * scale

    ok_prefix = a_vals <= tol           # f u0' <= 0 holds on [0, alpha1]
    ok_suffix = b_vals >= -tol          # (f u0)' >= 0 holds on [alpha1, 1]
    bad_prefix = np.flatnonzero(~ok_prefix)
    if bad_prefix.size and bad_prefix[0] == 0:
        return False
    prefix_end = grid[-1] if bad_prefix.size == 0 else grid[bad_prefix[0] - 1]
    bad_suffix = np.flatnonzero(~ok_suffix)
    if bad_suffix.size and bad_suffix[-1] == len(grid) - 1:
        return False
    suffix_start = grid[0] if bad_suffix.size == 0 else grid[bad_suffix[-1] + 1]

    alpha1_lo = max(suffix_start, np.nextafter(alpha0, 1.0))
    alpha1_hi = prefix_end
    if alpha1_lo > alpha1_hi:
        return False
    # a zero alpha2 of f with alpha1 <= alpha2 <= 1 for some feasible alpha1;
    # alpha2 must be a zero later than alpha0, so exclude alpha0's own node
    f_tol = 1e-12 * max(float(np.max(np.abs(f_vals))), 1e-300)
    late = grid >= max(alpha1_lo, alpha0 + 0.5 * (grid[1] - grid[0]))
    if not np.any(late):
        return False
    f_late = f_vals[late]
    if np.any(np.abs(f_late) <= f_tol):
        return True
    return bool(np.any(f_late[:-1] * f_late[1:] < 0))


# ---------------------------------------------------------------------------
# classification


def _finite_profile(profile: Psi0Profile, spec: ProblemSpec, g_star: float, M0: float):
    """C(alpha) = g(t*) u0 (1 - psi0/M0)^-2 on nodes clear of the argmax."""
    grid = profile.psi0.nodes
    psi = profile.psi0.values
    dist = 1.0 - psi / M0
    keep = np.abs(dist) > SINGULAR_ATOL
    limits = np.where(keep, FINITE, INFINITE).astype("<U8")
    vals = g_star * np.asarray(spec.u0(grid[keep])) / dist[keep] ** 2
    return GridFunction(grid[keep], vals), limits


def classify(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec) -> RegularityReport:
    """Global existence versus finite-time blow-up for the problem data.

    Singular-family boundary data are routed through singular_boundary_report;
    otherwise the verdict is read off M0 and G_infinity.  A G_infinity equal
    to 2/M0 within INVERT_RTOL (1 + 2/M0), the inverter's tolerance, sits
    between the two theorems (the norm grows without bound but never in
    finite time); it is reported Global with a note.
    """
    grid = profile.psi0.nodes
    suff_g = _sufficient_global(spec, grid)
    suff_b = _sufficient_blowup(spec, grid, profile.alpha0)

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
    final_profile, limits = _finite_profile(profile, spec, float(spec.g(t_star)), M0)
    return RegularityReport(
        verdict=VERDICT_FINITE,
        t_star=t_star,
        blowup_locations=profile.argmax_set,
        final_profile=final_profile,
        profile_limits=limits,
        **flags,
    )


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
    grid = profile.psi0.nodes
    psi = profile.psi0.values
    M0 = profile.M0

    if M0 > 0.0:
        t_star = 1.0 - (M0 / (2.0 * beta + M0)) ** (1.0 / beta)
        g_star = ((2.0 * beta + M0) / M0) ** ((1.0 + beta) / beta)
        final_profile, limits = _finite_profile(profile, spec, g_star, M0)
        return RegularityReport(
            verdict=VERDICT_FINITE,
            t_star=t_star,
            blowup_locations=profile.argmax_set,
            final_profile=final_profile,
            beta_case=beta_case,
            profile_limits=limits,
            notes=(f"interior blow-up at t*={t_star:.12g} precedes the boundary "
                   "blow-up time t_b=1",),
        )

    # boundary-driven branch: psi0 <= 0, divergence on its zero set at t_b = 1
    on_zero_set = np.isin(grid, profile.omega)
    if beta == 1.0:
        limits = np.where(on_zero_set, INFINITE, FINITE).astype("<U8")
        keep = ~on_zero_set
        final_profile = (GridFunction(grid[keep],
                                      4.0 * np.asarray(spec.u0(grid[keep])) / psi[keep] ** 2)
                         if np.count_nonzero(keep) >= 2 else None)
    elif beta > 1.0:
        limits = np.where(on_zero_set, INFINITE, ZERO).astype("<U8")
        keep = ~on_zero_set
        final_profile = (GridFunction(grid[keep], np.zeros(np.count_nonzero(keep)))
                         if np.count_nonzero(keep) >= 2 else None)
    else:
        limits = np.full(grid.shape, INFINITE, dtype="<U8")
        final_profile = None
    return RegularityReport(
        verdict=VERDICT_BOUNDARY,
        t_star=1.0,
        blowup_locations=profile.omega,
        final_profile=final_profile,
        beta_case=beta_case,
        profile_limits=limits,
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

    Needs a uniform alpha grid of [0, 1] with at least 3 nodes.  Finite p
    integrates u^p by cumulative_simpson; p = inf takes the grid max
    sharpened by one parabolic-fit step.  A masked row cannot be normed.
    """
    idx = fld.node(t)
    if np.any(row_mask := fld.singular_mask[idx]):
        j = int(np.argmax(row_mask))
        raise NearSingular(float(fld.alpha_nodes[j]), float(fld.t_nodes[idx]), 0.0)
    row = fld.row(t, idx)
    if p == math.inf or p == "inf":
        j = int(np.argmax(row))
        if 0 < j < len(row) - 1:
            return float(_parabolic_peak(row[j - 1], row[j], row[j + 1]))
        return float(row[j])
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be in [1, inf], got {p}")
    # unmasked samples of u = u0 g / D^2 are positive
    h = fld.alpha_nodes[1] - fld.alpha_nodes[0]
    return float(cumulative_simpson(row ** p, h)[-1]) ** (1.0 / p)


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
            x = np.log(sel_x[good])
            y = np.log(drop[good])
            A = np.vstack([x, np.ones_like(x)]).T
            (slope, intercept), res, _, _ = np.linalg.lstsq(A, y, rcond=None)
            residual = math.sqrt(float(res[0]) / len(y)) if res.size else 0.0
            best = CuspModel(q=float(slope), C1=-math.exp(float(intercept)),
                             alpha_bar=float(abar), r=radius, residual=residual)
            if residual <= 1e-2 or radius <= 8.0 * h:
                break
            radius *= 0.5
        models.append(best)
    return models


def lp_blowup_fit(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec,
                  p: float = 1.0) -> dict:
    """Fit the near-blow-up growth of ||u||_p and compare with the theorem.

    Samples t so that delta = G(t*) - G(t) takes 9 geometric steps from 1e-4
    to 1e-2, computes the norms on 8193 alpha nodes, normalizes by m0 g(t) (the
    theorem's lower bound is C m0 g(t*) delta^-(2-1/q)), and fits
    log(norm) = log(prefactor) + slope log(delta).

    Returns slope, prefactor, the predicted constant C and exponent, and the
    cusp model used.  Multi-argmax profiles use the first argmax point.
    """
    M0 = profile.M0
    if M0 <= 0:
        raise ValueError("Lp blow-up asymptotics need M0 > 0")
    deltas = np.geomspace(1e-4, 1e-2, 9)
    cusp = fit_cusp(profile)[0]
    predicted = lp_asymptotic_constant(M0, cusp.C1, cusp.q)

    G_star = 2.0 / M0
    t_samples = np.array([invert_G(B, G_star - d) for d in deltas])
    alpha_grid = np.linspace(0.0, 1.0, 8193)
    fld = evaluate_field(profile, B, spec, alpha_grid, t_samples)
    m0 = float(np.min(spec.u0(alpha_grid)))
    norms = np.array([
        lp_norm(fld, p, t) / (m0 * float(spec.g(t))) for t in t_samples
    ])
    x = np.log(deltas)
    y = np.log(norms)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    return {
        "slope": float(slope),
        "prefactor": math.exp(float(intercept)),
        "C": predicted["C"],
        "exponent": predicted["exponent"],
        "cusp": cusp,
        "deltas": deltas,
        "norms": norms,
    }
