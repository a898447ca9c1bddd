"""Independent numerical checks of the structural identities behind the
representation formula.

Four families of checks:

  * PDE residual: the mixed derivative of ln u minus f u, with a
    convergence-order fit across grid refinements.
  * R-invariance: R(v) = v' - v^2/2 applied to v = d/dt ln u gives the same
    function of t at every alpha, equal to its boundary value.
  * Schwarzian derivative S(G) = R(d/dt ln G'), which vanishes exactly when
    G is a Moebius map (the threshold boundary family) and is estimated here
    through cross-ratios, the quantity Moebius maps preserve exactly.
  * The gamma/beta identity converting the blow-up integral to the explicit
    Lp constant.

The cross-ratio route for the Schwarzian deserves a note: for four samples
of G at equispaced parameters with step s, the cross-ratio

    CR = (G1 - G3)(G2 - G4) / ((G1 - G4)(G2 - G3))

equals 4/3 for any Moebius G (exactly, at any step size), and for general G
satisfies CR * 3/4 = 1 + (s^2/6) S(G) + O(s^4) on symmetric windows.  Solving
for S gives a second-order estimator, the only one schwarzian offers, whose
error for Moebius inputs is pure rounding, orders of magnitude below what
nested difference quotients of G'''/G' can achieve on the same samples.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .closed_form_solver import SolutionField, evaluate_field, uniform_spacing
from .problem_model import GridFunction, ProblemSpec, _fit_line, build_G, build_psi0, data_horizon

_CR0_INV = 0.75   # reciprocal of the equispaced cross-ratio 4/3


@dataclass(frozen=True)
class ResidualReport:
    """Residual magnitude on one grid plus the order fitted across levels."""

    max_abs_residual: float
    convergence_order: float
    levels: tuple = ()


def _mixed_residual(fld: SolutionField, spec: ProblemSpec) -> float:
    if np.any(fld.singular_mask):
        raise ValueError("field is masked inside the residual window")
    ha = fld.alpha_step
    ht = uniform_spacing(fld.t_nodes, "t")
    L = np.log(fld.values)
    mixed = (L[2:, 2:] - L[2:, :-2] - L[:-2, 2:] + L[:-2, :-2]) / (4.0 * ha * ht)
    target = np.asarray(spec.f(fld.alpha_nodes[1:-1]))[None, :] * fld.values[1:-1, 1:-1]
    return float(np.max(np.abs(mixed - target)))


def pde_residual(fld: SolutionField, spec: ProblemSpec) -> ResidualReport:
    """Mixed-derivative residual of the equation on a sampled field.

    The headline number is the interior max of the 4-point centered mixed
    difference of ln u minus f u on the field as given.  The same residual
    is recomputed from the closed form on 3 successively halved grids (65,
    129 and 257 nodes a side) spanning the same window, and the convergence
    order is fitted across them.
    """
    max_res = _mixed_residual(fld, spec)
    t_lo, t_hi = float(fld.t_nodes[0]), float(fld.t_nodes[-1])
    t_max = data_horizon(spec.g, max(t_hi, 1e-6) * (1.0 + 1e-9))
    levels = []
    for n in (65, 129, 257):
        sub = dataclasses.replace(spec, n_alpha=n)
        sub_field = evaluate_field(build_psi0(sub), build_G(sub, t_max=t_max), sub,
                                   sub.alpha_grid(), np.linspace(t_lo, t_hi, n))
        levels.append((1.0 / (n - 1), _mixed_residual(sub_field, sub)))
    hs = np.log([h for h, _ in levels])
    rs = np.log([r for _, r in levels])
    if not np.all(np.isfinite(rs)):
        return ResidualReport(max_res, math.nan, tuple(levels))
    (order, _), *_ = _fit_line(hs, rs)
    return ResidualReport(max_res, float(order), tuple(levels))


# ---------------------------------------------------------------------------
# R-invariance


def _R_of_log_derivative(column: np.ndarray, ht: float) -> np.ndarray:
    """R(d/dt ln w) at interior nodes from samples of ln w on a uniform grid."""
    v = (column[2:] - column[:-2]) / (2.0 * ht)
    vdot = (column[2:] - 2.0 * column[1:-1] + column[:-2]) / ht**2
    return vdot - 0.5 * v**2


def r_invariance(fld: SolutionField, spec: ProblemSpec) -> float:
    """Max over 9 evenly spread alpha columns of the sup-distance between
    R(d/dt ln u) and its boundary value R(d/dt ln g).

    The identity is exact for the representation formula, so the returned
    discrepancy is pure finite-difference truncation, O(ht^2).
    """
    if np.any(fld.singular_mask):
        raise ValueError("field is masked inside the invariance window")
    ht = uniform_spacing(fld.t_nodes, "t")
    L = np.log(fld.values)
    ref = _R_of_log_derivative(np.log(np.asarray(spec.g(fld.t_nodes), dtype=float)), ht)
    idx = np.unique(np.linspace(0, len(fld.alpha_nodes) - 1, 9).astype(int))
    return float(np.max(np.abs(_R_of_log_derivative(L[:, idx], ht) - ref[:, None])))


# ---------------------------------------------------------------------------
# Schwarzian derivative


def schwarzian(G_samples: GridFunction) -> GridFunction:
    """S(G) on the sample grid, by cross-ratios.

    Requires at least 6 uniformly spaced samples of an increasing G (on 5,
    node 2 has no 4-point window).  The estimator uses the window
    (i-3, i-1, i+1, i+3) at interior nodes (second order, and exact on
    Moebius maps up to rounding) and one-sided windows at the edges.
    """
    nodes = G_samples.nodes
    v = G_samples.values
    if len(nodes) < 6:
        raise ValueError("the Schwarzian needs at least 6 samples")
    if not np.all(np.diff(v) > 0):
        raise ValueError("G must be strictly increasing on the sample window")
    h = uniform_spacing(nodes, "t")

    def estimate(p1, p2, p3, p4, step):
        cr = ((p1 - p3) * (p2 - p4)) / ((p1 - p4) * (p2 - p3))
        return 6.0 / step**2 * (cr * _CR0_INV - 1.0)

    # nodes 0-2 take (i, i+1, i+2, i+3), 3 to n-4 (i-3, i-1, i+1, i+3), the last
    # three (i-3, i-2, i-1, i)
    S = np.concatenate((estimate(v[0:3], v[1:4], v[2:5], v[3:6], h),
                        estimate(v[:-6], v[2:-4], v[4:-2], v[6:], 2.0 * h),
                        estimate(v[-6:-3], v[-5:-2], v[-4:-1], v[-3:], h)))
    return GridFunction(nodes, S)


# ---------------------------------------------------------------------------
# gamma identity


def gamma_identity(q: float) -> dict:
    """Both sides of 2 int_0^{pi/2} cos^(3-2/q) sin^(2/q-1) = q G(1+1/q) G(2-1/q).

    The left side is quadrature (tanh-sinh, which absorbs the integrable
    endpoint singularities that appear for q < 2/3 and q > 2); the right side
    is the gamma function directly.  Defined for q > 1/2 only.
    """
    import mpmath  # high precision is needed here only, and costs import time

    if q <= 0.5:
        raise ValueError(f"the identity requires q > 1/2, got q={q}")
    a = 3.0 - 2.0 / q
    b = 2.0 / q - 1.0
    with mpmath.workdps(25):
        half_pi = mpmath.pi / 2
        # cos(th) written as sin(pi/2 - th) so quadrature samples exponentially
        # close to the right endpoint cannot round the base negative
        lhs = 2 * mpmath.quad(
            lambda th: mpmath.sin(half_pi - th) ** a * mpmath.sin(th) ** b,
            [0, half_pi],
        )
        lhs = float(lhs)
    rhs = q * math.gamma(1.0 + 1.0 / q) * math.gamma(2.0 - 1.0 / q)
    return {"lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}
