"""Evaluation of the representation formula and the singular set.

With psi0 and G in hand the solution of the periodic problem is

    u(alpha, t) = u0(alpha) g(t) / D(alpha, t)^2,
    D(alpha, t) = 1 - (1/2) psi0(alpha) G(t).

The algebra is written once, in representation(), which the generalized
integrator's envelopes share.  On it rest pointwise evaluation, field
assembly with masking of the region at or beyond the zero set of D, the
singular curve t~(alpha) solving psi0(alpha) G(t) = 2, and the transport
of jump discontinuities in the data along characteristics.

The formula stops representing the solution once D reaches zero, so field
masking is one-sided: a sample is masked when D <= SINGULAR_ATOL, which
covers both the near-zero band and everything past the curve.  Pointwise
evaluate_u instead guards |D| so both sides of the curve stay inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyCurve, NearSingular
from .problem_model import (
    BoundaryIntegral,
    ProblemSpec,
    Psi0Profile,
    write_csv,
)

SINGULAR_ATOL = 1e-8   # D at or below this counts as singular (or past the curve)
CURVE_RTOL = 1e-6      # curve sampled only where psi0 > CURVE_RTOL * M0


def uniform_spacing(nodes: np.ndarray, label: str) -> float:
    """The step of a uniform grid; ValueError when the nodes are not uniform."""
    d = np.diff(nodes)
    if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{label} grid must be uniform")
    return float(d[0])


@dataclass(frozen=True)
class SolutionField:
    """u sampled on a tensor grid, with the invalid region masked.

    values[i, j] = u(alpha_nodes[j], t_nodes[i]); singular_mask marks samples
    where the denominator has dropped to (or through) zero.  Unmasked samples
    are finite and strictly positive.
    """

    alpha_nodes: np.ndarray
    t_nodes: np.ndarray
    values: np.ndarray
    singular_mask: np.ndarray
    denominator_min: float

    def node(self, t: float) -> int:
        """Index of the t node nearest t (the first of equals), as np.argmin finds it."""
        idx = self._node_index.get(float(t))
        return int(np.argmin(np.abs(self.t_nodes - t))) if idx is None else idx

    @cached_property
    def _node_index(self) -> dict:
        """{t node: its first index}; empty when a node is NaN, which argmin picks."""
        if np.isnan(self.t_nodes).any():
            return {}
        n = len(self.t_nodes)
        return dict(zip(self.t_nodes.tolist()[::-1], range(n - 1, -1, -1)))

    @cached_property
    def masked_rows(self) -> np.ndarray:
        """Whether each t row holds a masked sample."""
        return self.singular_mask.any(axis=1)

    def row(self, t: float, idx: int | None = None) -> np.ndarray:
        """Samples u(., t) at an existing t node; idx, when given, is node(t)."""
        idx = self.node(t) if idx is None else idx
        if abs(self.t_nodes[idx] - t) > 1e-12 * (1.0 + abs(t)):
            raise ValueError(f"t={t} is not a node of this field")
        return self.values[idx]

    @cached_property
    def alpha_step(self) -> float:
        """Spacing of the alpha nodes, checked uniform once per field."""
        return uniform_spacing(self.alpha_nodes, "alpha")

    def to_csv(self, path, comment: str | None = None):
        write_csv(path, comment, "alpha,t,u,masked", "%.12e,%.12e,%.12e,%d",
                  (self.alpha_nodes, self.t_nodes[:, None], self.values, self.singular_mask))


@dataclass(frozen=True)
class SingularCurve:
    """Samples of the curve t~(alpha) on which the denominator vanishes.

    Restricted to {psi0 > CURVE_RTOL * M0}; slope_sign holds the sign of the
    finite-difference slope at each sample, and slope_mismatches counts the
    samples where that sign disagrees with the predicted sign(-f(alpha)).
    """

    alpha_samples: np.ndarray
    t_samples: np.ndarray
    slope_sign: np.ndarray
    slope_mismatches: int = 0

    def to_csv(self, path, comment: str | None = None):
        write_csv(path, comment, "alpha,t_tilde,slope_sign", "%.12e,%.12e,%d",
                  (self.alpha_samples, self.t_samples, self.slope_sign))


# ---------------------------------------------------------------------------
# pointwise evaluation


def representation(g, u0, psi, G, e=1.0):
    """g u0 (1 - (e/2) psi G)^(-2/e) and its bracket D, broadcast together: an
    envelope at e = c or d with H0 for psi, and u at e = 1, whose int power 2 is
    numpy's fast D * D for an array D (libm pow for a scalar).  Callers mask D <= 0."""
    D = 1.0 - 0.5 * e * psi * G
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return g * u0 / D ** (2 if e == 1 else 2.0 / e), D


def evaluate_u(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec, alpha, t):
    """u(alpha, t) by the representation formula; guards |D| > SINGULAR_ATOL.

    Accepts scalars or broadcastable arrays.  The first guard violation is
    raised as NearSingular with the offending point attached.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    # psi at least 1-d, so a point's D is an array, squared as D * D like the field's
    out, D = representation(spec.g(t_arr), spec.u0(alpha_arr),
                            np.atleast_1d(profile.value(alpha_arr)), np.asarray(B.value(t_arr)))
    if np.any(bad := np.abs(D) <= SINGULAR_ATOL):
        idx = tuple(np.argwhere(bad)[0])
        a_bad, t_bad = (float(np.broadcast_to(x, D.shape)[idx]) for x in (alpha_arr, t_arr))
        raise NearSingular(a_bad, t_bad, float(D[idx]))
    return out if alpha_arr.ndim or t_arr.ndim else float(out[0])


def evaluate_field(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec,
                   alpha_grid, t_grid) -> SolutionField:
    """u on alpha_grid x t_grid by representation(), masked where D <= SINGULAR_ATOL.

    Masked entries hold NaN.  The one-sided rule keeps only the region where
    the representation formula is the classical solution (before the curve).
    """
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    vals, D = representation(np.atleast_1d(spec.g(t_grid))[:, None],
                             np.atleast_1d(spec.u0(alpha_grid))[None, :],
                             np.atleast_1d(profile.value(alpha_grid))[None, :],
                             np.atleast_1d(B.value(t_grid))[:, None])
    mask = D <= SINGULAR_ATOL
    vals[mask] = np.nan   # in place, as |D| below: no copy outlives the kernel's peak
    return SolutionField(
        alpha_nodes=alpha_grid,
        t_nodes=t_grid,
        values=vals,
        singular_mask=mask,
        denominator_min=float(np.min(np.abs(D, out=D))),
    )


# ---------------------------------------------------------------------------
# singular curve


def singular_curve(profile: Psi0Profile, B: BoundaryIntegral) -> SingularCurve:
    """Sample t~(alpha) = G^{-1}(2 / psi0(alpha)) over {psi0 > CURVE_RTOL * M0}.

    Samples whose target G never reaches (at or past G_infinity, or past the
    last node of tabulated g) are dropped: those alpha never meet the
    singular set.  All targets are inverted in one array call.  Raises
    EmptyCurve when psi0 is nonpositive everywhere.
    """
    if profile.M0 <= 0:
        raise EmptyCurve("psi0 <= 0 everywhere; the singular set is empty")
    grid, psi = profile.psi0.nodes, profile.psi0.values
    idx = np.flatnonzero(psi > CURVE_RTOL * profile.M0)
    if idx.size == 0:
        raise EmptyCurve("no grid point clears the curve threshold")

    t_all = B.invert(2.0 / psi[idx])
    reached = ~np.isnan(t_all)
    if np.count_nonzero(reached) < 2:
        raise EmptyCurve("fewer than two curve samples reachable within the time horizon")
    alpha_s = grid[idx[reached]]
    t_s = t_all[reached]

    slope = np.gradient(t_s, alpha_s)
    fd_sign = np.sign(slope).astype(int)
    # predicted slope t~'(alpha) = -2 f u0 / (g(t~) psi0^2) has the sign of
    # -psi0' = -f u0, psi0's integrand
    theory = -np.sign(profile.integrand(alpha_s)).astype(int)
    resolved = np.abs(slope) > 1e-6 * (1.0 + np.abs(t_s))
    mism = int(np.sum((fd_sign != theory) & resolved & (theory != 0)))
    return SingularCurve(alpha_samples=alpha_s, t_samples=t_s,
                         slope_sign=fd_sign, slope_mismatches=mism)


# ---------------------------------------------------------------------------
# jump transport


def jump_transport(profile: Psi0Profile, B: BoundaryIntegral, spec: ProblemSpec,
                   jump_location: float, jump_size: float, axis: str,
                   alpha: float | None = None, t: float | None = None) -> float:
    """Transported size of a data discontinuity at a query point.

    axis "alpha": u0 jumps by jump_size at alpha=jump_location; the solution
    jump across that vertical characteristic at time t is jump_size*g(t)/D^2.
    axis "t": g jumps at t=jump_location; the jump across that horizontal
    characteristic at position alpha is jump_size*u0(alpha)/D^2.

    The query must lie in the unmasked (pre-curve) region, else NearSingular.
    """
    if axis == "alpha":
        if t is None:
            raise ValueError("axis 'alpha' transports in time; pass t=")
        q_alpha, q_t = float(jump_location), float(t)
        base = spec.g(q_t)
    elif axis == "t":
        if alpha is None:
            raise ValueError("axis 't' transports in space; pass alpha=")
        q_alpha, q_t = float(alpha), float(jump_location)
        base = spec.u0(q_alpha)
    else:
        raise ValueError("axis must be 'alpha' or 't'")
    # jump_size and the other datum are the two factors; numpy scalars, so
    # that D = 0 gives inf rather than ZeroDivisionError
    jump, D = representation(np.float64(jump_size), np.float64(base),
                             np.asarray(profile.value(q_alpha)), np.asarray(B.value(q_t)))
    if D <= SINGULAR_ATOL:
        raise NearSingular(q_alpha, q_t, float(D))
    return float(jump)
