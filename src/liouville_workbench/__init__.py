"""Numerical workbench for the periodic initial-boundary value problem of a
sign-changing Liouville-type equation and its generalization."""

import types

from .errors import EmptyCurve, NearSingular, NoFiniteTime
from .problem_model import (
    BoundaryIntegral,
    CompatibilityReport,
    FunctionDescriptor,
    GridFunction,
    Nonlinearity,
    ProblemSpec,
    Psi0Profile,
    build_G,
    build_psi0,
    check_compatibility,
    constant,
    exponential,
    invert_G,
    load_problem_spec,
    polynomial,
    power_integral,
    power_integral_limit,
    singular_boundary,
    spec_hash,
)
from .closed_form_solver import (
    SingularCurve,
    SolutionField,
    evaluate_field,
    evaluate_u,
    jump_transport,
    representation,
    singular_curve,
)
from .regularity_analyzer import (
    CuspModel,
    RegularityReport,
    classify,
    fit_cusp,
    lp_asymptotic_constant,
    lp_blowup_fit,
    lp_norm,
    singular_boundary_report,
)
from .generalized_integrator import (
    BoundsReport,
    GeneralizedState,
    Trajectory,
    blowup_bounds,
    compute_H0_alpha0,
    detect_blowup,
    identity_F,
    integrate_general,
    power_F,
    table_F,
)
from .verification import (
    ResidualReport,
    gamma_identity,
    pde_residual,
    r_invariance,
    schwarzian,
)
from . import catalog

__version__ = "0.1.0"

# the public names are exactly what is imported above
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_")
                 and not isinstance(value, types.ModuleType)) + ["catalog"]
