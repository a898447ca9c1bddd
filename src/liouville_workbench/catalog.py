"""The four worked data sets exercised throughout the workbench.

All four share u0 = 1 and a linear weight; they differ in the sign of the
weight (which flips psi0 between a nonpositive and a nonnegative parabola)
and in whether the boundary data grow polynomially or blow up on their own:

  1  f = 2a - 1, g = 2t + 1          psi0 <= 0, global solution
  2  f = 1 - 2a, g = 2t + 1          M0 = 1/4, interior blow-up
  3  f = 2a - 1, g = (1 - t)^-2      M0 = 0, boundary-driven blow-up at t = 1
  4  f = 1 - 2a, g = (1 - t)^-2      M0 = 1/4, interior blow-up beats boundary
"""

from __future__ import annotations

import dataclasses

from .problem_model import FunctionDescriptor, ProblemSpec

_F_DOWN = FunctionDescriptor("polynomial", {"coeffs": [1.0, -2.0]})    # 1 - 2a
_F_UP = FunctionDescriptor("polynomial", {"coeffs": [-1.0, 2.0]})      # 2a - 1
_U0_ONE = FunctionDescriptor("constant", {"value": 1.0})
_G_LINEAR = FunctionDescriptor("polynomial", {"coeffs": [1.0, 2.0]})   # 2t + 1
_G_SINGULAR = FunctionDescriptor("singular_boundary", {"beta": 1.0, "t_b": 1.0})

_EXAMPLES = {
    1: (_F_UP, _U0_ONE, _G_LINEAR),
    2: (_F_DOWN, _U0_ONE, _G_LINEAR),
    3: (_F_UP, _U0_ONE, _G_SINGULAR),
    4: (_F_DOWN, _U0_ONE, _G_SINGULAR),
}


def example_spec(k: int, n_alpha: int = 513) -> ProblemSpec:
    if k not in _EXAMPLES:
        raise ValueError(f"example index must be 1..4, got {k}")
    f, u0, g = _EXAMPLES[k]
    return ProblemSpec(f=f, u0=u0, g=g, n_alpha=n_alpha)


def with_beta(spec: ProblemSpec, beta: float) -> ProblemSpec:
    """Same initial data, singular boundary family with the given exponent."""
    g = FunctionDescriptor("singular_boundary", {"beta": float(beta), "t_b": 1.0})
    return dataclasses.replace(spec, g=g)
