"""Problem instances and the two primitive integrals psi0 and G.

The initial periodic-boundary value problem

    d^2/(dalpha dt) ln u = f(alpha) u,    alpha in (0,1), t > 0,
    u(alpha, 0) = u0(alpha),              u(0, t) = u(1, t) = g(t),

is determined by the data triple (f, u0, g).  Everything downstream of this
module is built from two primitives:

    psi0(alpha) = integral_0^alpha f(z) u0(z) dz
    G(t)        = integral_0^t    g(s) ds,      G(0) = 0.

Data functions are represented by a small closed-form catalog plus linearly
interpolated tables.  Each kind carries its own value, derivative, integral
of any power and limit of that integral (one table, _KINDS), so the worked
examples (polynomial data, the singular boundary family (1-t)^-(1+beta),
exponential decay, trigonometric data) are integrated exactly while tables
admit arbitrary sampled data.

psi0 and G are the kind's closed-form integral (psi0 whenever f u0 is one
descriptor: f itself when u0 = 1, or a polynomial product; G unless
quadrature is requested), or else Simpson's rule on each grid cell with a
midpoint sample (cell_simpson), which does not depend on the node parity.
Both keep psi0(0) = 0 and G(0) = 0 exact.  As psi0' = f u0 with u0 > 0, M0
and its argmax set are read off alpha = 0, alpha = 1 and the zeros where f
crosses from + to - (interior_zeros).  data_horizon says how long g has
data.  Every inverse (G^-1, the inverse of a power integral, the zeros of f)
goes through one array inverter, _solve_increasing, which starts from a
bracket per target taken from samples the caller already holds: the sampled
G for G^-1, the grid cells where f changes sign for its zeros.  Integrals
off the closed forms take cell_simpson, or cumulative_simpson on samples.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import NoFiniteTime

# Numerical guards.  The underlying theory gives none of these; values are
# chosen so that double precision never masquerades as a feature.
COMPAT_RTOL = 1e-8        # compatibility defect, relative to max |f u0|
ZERO_SET_RTOL = 1e-6      # zero set of psi0, relative to max |psi0|
FEATURE_ATOL = 1e-9       # argmax tie rule: candidates within this of M0 attain it
INVERT_RTOL = 1e-12       # |G(t) - target| <= INVERT_RTOL * (1 + target)

# the inverter: Newton step cap, and the farthest time a bracket may grow to
_NEWTON_STEPS = 60
_T_REACH = 1e15
_EPS = np.finfo(float).eps

_CSV_BLOCK = 1024   # rows per % operation in write_csv


# ---------------------------------------------------------------------------
# quadrature kernels (cumulative_simpson is the same arithmetic as
# scipy.integrate's, which the tests keep as the reference)


def cumulative_simpson(y, h, out=None):
    """int_0^{x_k} y at every node k of a uniform grid of step h (0 at k = 0).

    Even intervals take the parabola through the next node, odd intervals and
    the last one the parabola through the previous node.  out, if given, is a
    buffer of y's length that receives the result.  The integrator's psi and
    lp_norm's row integral use it.
    """
    n = len(y)
    out = np.empty(n) if out is None else out
    s, lo, hi = out[1:], out[1:n - 1:2], out[2::2]   # all intervals, even ones, odd ones
    a, q, mid = 1.25 * y, 0.25 * y, 2.0 * y[1:n - 1:2]
    np.add(a[0:n - 2:2], mid, out=lo)
    lo -= q[2::2]
    np.add(a[2::2], mid, out=hi)
    hi -= q[0:n - 2:2]
    if n % 2 == 0:
        s[-1] = a[-1] + 2.0 * y[-2] - q[-3]
    s *= h / 3.0
    s.cumsum(out=s)
    out[0] = 0.0
    return out


def cell_simpson(w, x):
    """int_{x[0]}^{x[k]} w at every k (0 at k = 0) by Simpson's rule on each
    cell with a midpoint sample, h/6 (w_i + 4 w_(i+1/2) + w_(i+1)), h = x[1] - x[0].

    w is called on arrays.  The nodes run along axis 0 and are uniform along
    it, so a (2, k) x integrates k separate cells [x[0, j], x[1, j]] at once.
    """
    x = np.asarray(x, dtype=float)
    w_x = np.asarray(w(x))
    steps = (x[1] - x[0]) / 6.0 * (w_x[:-1] + 4.0 * np.asarray(w(0.5 * (x[:-1] + x[1:])))
                                   + w_x[1:])
    return np.concatenate((np.zeros((1,) + x.shape[1:]), np.cumsum(steps, axis=0)))


def cell_simpson_at(vals, w, grid, x):
    """int_{grid[0]}^x w off the nodes: cell_simpson's vals at the node below x
    plus the same rule on the partial cell from that node to x."""
    i = np.searchsorted(grid, x, side="right") - 1
    return vals[i] + cell_simpson(w, np.array([grid[i], x]))[1]


def exprel(x):
    """(e^x - 1)/x, with its limit 1 at x = 0 and inf at x = inf."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.expm1(x) / x
    return np.where(x == 0.0, 1.0, np.where(x == np.inf, x, out))


# ---------------------------------------------------------------------------
# grid functions


@dataclass(frozen=True)
class GridFunction:
    """Sampled function with linear interpolation between strictly increasing nodes.

    Evaluation at a node returns the stored value exactly.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise ValueError("a grid function needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)

    def to_csv(self, path, header=("node", "value")):
        write_csv(path, None, ",".join(header), "%.12e,%.12e", (self.nodes, self.values))


def write_csv(path, comment, header, row, columns):
    """Write a CSV file: "# comment" (when given), the header line, then line i
    as the %-format row applied to (c[i] for c in columns).

    Rows are formatted _CSV_BLOCK at a time, one % operation per block, so
    the text of a large field never sits in memory whole.
    """
    cols = [np.ravel(c) for c in columns]
    k, n = len(cols), cols[0].size
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(header + "\n")
        for i in range(0, n, _CSV_BLOCK):
            flat = [None] * (k * min(_CSV_BLOCK, n - i))
            for j, c in enumerate(cols):
                flat[j::k] = c[i:i + _CSV_BLOCK].tolist()
            fh.write((row + "\n") * (len(flat) // k) % tuple(flat))


# ---------------------------------------------------------------------------
# function descriptors


class _Kind:
    """What one descriptor kind does; every method takes the params dict p.

    integral(p, power, t) is int_0^t value^power, by cell_simpson on 2048
    cells unless the kind has a closed form; limit(p, power) is its limit at
    end(p), the end of the data's life, as (value, estimated), and last(p)
    the last time with data.  params and scale validate or rescale p in place.
    """

    def integral(self, p, power, t):
        s = np.multiply.outer(np.linspace(0.0, 1.0, 2049), t)
        return cell_simpson(lambda x: np.asarray(self.value(p, x)) ** power, s)[-1]

    def limit(self, p, power):
        # constants, polynomials and positive trigonometric data (almost
        # periodic, positive mean) all integrate to infinity
        return math.inf, False

    def end(self, p):
        return math.inf

    def last(self, p):
        return self.end(p)


class _Polynomial(_Kind):
    def params(self, p):
        p["coeffs"] = tuple(float(c) for c in p["coeffs"])
        if not p["coeffs"]:
            raise ValueError("polynomial needs at least one coefficient")

    def coeffs(self, p):
        return p["coeffs"]

    def value(self, p, x):
        return npoly.polyval(x, self.coeffs(p))

    def derivative(self, p, x):
        return npoly.polyval(x, _polynomial_derivative(self.coeffs(p)))

    def integral(self, p, power, t):
        if not (float(power).is_integer() and power > 0):
            return super().integral(p, power, t)
        return npoly.polyval(t, _polynomial_antiderivative(self.coeffs(p), int(power)))

    def scale(self, p, factor):
        p["coeffs"] = tuple(c * factor for c in p["coeffs"])


class _Constant(_Polynomial):
    # the degree-0 polynomial, stored as {"value": v}

    def params(self, p):
        p["value"] = float(p["value"])

    def coeffs(self, p):
        return (p["value"],)

    def scale(self, p, factor):
        p["value"] *= factor


@functools.lru_cache(maxsize=64)
def _polynomial_antiderivative(coeffs, power):
    # a tuple, because every caller shares the cached value
    return tuple(npoly.polyint(npoly.polypow(coeffs, power)).tolist())


@functools.lru_cache(maxsize=64)
def _polynomial_derivative(coeffs):
    return tuple(npoly.polyder(coeffs).tolist())


class _Trigonometric(_Kind):
    def params(self, p):
        p["terms"] = tuple(
            (float(t[0]), float(t[1]), float(t[2]) if len(t) > 2 else 0.0) for t in p["terms"]
        )
        if not p["terms"]:
            raise ValueError("trigonometric needs at least one term")
        p["offset"] = float(p.get("offset", 0.0))

    def value(self, p, x):
        out = np.full_like(x, p["offset"])
        for amp, freq, phase in p["terms"]:
            out = out + amp * np.sin(2.0 * np.pi * freq * x + phase)
        return out

    def derivative(self, p, x):
        out = np.zeros_like(x)
        for amp, freq, phase in p["terms"]:
            w = 2.0 * np.pi * freq
            out = out + amp * w * np.cos(w * x + phase)
        return out

    def integral(self, p, power, t):
        if power != 1.0:
            return super().integral(p, power, t)
        # A (cos(phase) - cos(2 pi k t + phase)) / (2 pi k), written with
        # sinc(kt) = sin(pi k t)/(pi k t) so that k -> 0 gives A sin(phase) t
        out = p["offset"] * t
        for amp, freq, phase in p["terms"]:
            out = out + amp * t * np.sinc(freq * t) * np.sin(np.pi * freq * t + phase)
        return out

    def scale(self, p, factor):
        p["offset"] *= factor
        p["terms"] = tuple((a * factor, f, ph) for a, f, ph in p["terms"])


class _SingularBoundary(_Kind):
    # g^power = (1 - t/t_b)^-(e + 1) with e = power (1 + beta) - 1

    def params(self, p):
        p["beta"] = float(p["beta"])
        p["t_b"] = float(p.get("t_b", 1.0))
        if p["beta"] <= 0:
            raise ValueError("singular_boundary exponent beta must be positive")
        if p["t_b"] <= 0:
            raise ValueError("singular_boundary blow-up time t_b must be positive")

    def value(self, p, x):
        beta, tb = p["beta"], p["t_b"]
        if np.any(x >= tb):
            raise ValueError(
                f"singular_boundary data is finite only on [0, t_b={tb}); "
                f"got t up to {float(np.max(x))}"
            )
        return (1.0 - x / tb) ** (-(1.0 + beta))

    def derivative(self, p, x):
        beta, tb = p["beta"], p["t_b"]
        return (1.0 + beta) / tb * (1.0 - x / tb) ** (-(2.0 + beta))

    def integral(self, p, power, t):
        tb, e = p["t_b"], power * p["beta"] + (power - 1.0)
        if e == 0.0:
            return -tb * np.log(1.0 - t / tb)
        return (tb / e) * ((1.0 - t / tb) ** (-e) - 1.0)

    def limit(self, p, power):
        e = power * p["beta"] + (power - 1.0)
        return (-p["t_b"] / e if e < 0 else math.inf), False

    def end(self, p):
        return p["t_b"]

    def last(self, p):
        # the data are finite on [0, t_b) only
        return p["t_b"] * (1.0 - 1e-9)

    def scale(self, p, factor):
        raise ValueError("the singular_boundary family is already normalized; cannot rescale")


class _Table(_Kind):
    def params(self, p):
        nodes = np.asarray(p["nodes"], dtype=float)
        values = np.asarray(p["values"], dtype=float)
        if nodes.shape != values.shape or nodes.ndim != 1:
            raise ValueError("table nodes/values must be equal-length 1-d sequences")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("table nodes must be strictly increasing")
        p["nodes"] = tuple(nodes.tolist())
        p["values"] = tuple(values.tolist())

    def value(self, p, x):
        nodes = np.asarray(p["nodes"])
        if np.any(x < nodes[0] - 1e-12) or np.any(x > nodes[-1] + 1e-12):
            raise ValueError("evaluation outside the table's declared domain")
        return np.interp(x, nodes, np.asarray(p["values"]))

    def derivative(self, p, x):
        nodes, values = np.asarray(p["nodes"]), np.asarray(p["values"])
        slopes = np.diff(values) / np.diff(nodes)
        return slopes[np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(slopes) - 1)]

    def integral(self, p, power, t):
        if power != 1.0:
            return super().integral(p, power, t)
        nodes, values = np.asarray(p["nodes"]), np.asarray(p["values"])
        # trapezoids are exact for the linear interpolant
        cum = np.concatenate(([0.0], np.cumsum(np.diff(nodes) * (values[:-1] + values[1:]) / 2.0)))

        def area(x):  # int_{nodes[0]}^x
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
            return cum[i] + (x - nodes[i]) * (values[i] + self.value(p, x)) / 2.0

        return area(t) - area(0.0)

    def limit(self, p, power):
        # no data past the last node: extrapolate a geometric tail and flag it
        horizon = p["nodes"][-1]
        g_end = float(self.value(p, horizon)) ** power
        g_mid = float(self.value(p, horizon / 2.0)) ** power
        if g_end >= 0.5 * g_mid:
            return math.inf, True
        k = math.log(g_mid / g_end) / (horizon / 2.0)
        return float(self.integral(p, power, horizon)) + g_end / k, True

    def end(self, p):
        return p["nodes"][-1]

    def scale(self, p, factor):
        p["values"] = tuple(v * factor for v in p["values"])


class _Exponential(_Kind):
    def params(self, p):
        p["amplitude"] = float(p["amplitude"])
        p["rate"] = float(p["rate"])

    def value(self, p, x):
        return p["amplitude"] * np.exp(p["rate"] * x)

    def derivative(self, p, x):
        return p["amplitude"] * p["rate"] * np.exp(p["rate"] * x)

    def integral(self, p, power, t):
        # A^power (e^{rp t} - 1)/rp with rp = rate * power; exprel stays exact
        # as rp -> 0, where expm1(rp t)/rp loses every digit
        return p["amplitude"] ** power * t * exprel(p["rate"] * power * t)

    def limit(self, p, power):
        amp, rp = p["amplitude"], p["rate"] * power
        return (-(amp**power) / rp if rp < 0 else math.inf), False

    def scale(self, p, factor):
        p["amplitude"] *= factor


_KINDS = {"constant": _Constant(), "polynomial": _Polynomial(),
          "trigonometric": _Trigonometric(), "singular_boundary": _SingularBoundary(),
          "table": _Table(), "exponential": _Exponential()}


@dataclass(frozen=True)
class FunctionDescriptor:
    """One entry of the data catalog: a kind tag plus kind-specific parameters.

    Kinds and parameters:
      constant           {"value": v}
      polynomial         {"coeffs": [c0, c1, ...]}            ascending degree
      trigonometric      {"offset": a0, "terms": [[A, k, phase], ...]}
                         evaluating a0 + sum A*sin(2*pi*k*x + phase)
      singular_boundary  {"beta": b > 0, "t_b": tb > 0}
                         the blow-up family (1 - t/tb)^-(1+b), finite on [0, tb)
      table              {"nodes": [...], "values": [...]}    linear interpolation
      exponential        {"amplitude": A, "rate": r}          A*exp(r*x)
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown descriptor kind {self.kind!r}; "
                             f"expected one of {tuple(_KINDS)}")
        p = dict(self.params)
        _KINDS[self.kind].params(p)
        object.__setattr__(self, "params", p)

    # evaluation -----------------------------------------------------------

    def __call__(self, x):
        out = _KINDS[self.kind].value(self.params, np.asarray(x, dtype=float))
        if not np.isfinite(out).all():
            raise ValueError(f"{self.kind} descriptor produced non-finite samples")
        return out if np.ndim(out) else float(out)

    def derivative(self, x):
        """Pointwise derivative (piecewise slope for tables)."""
        out = _KINDS[self.kind].derivative(self.params, np.asarray(x, dtype=float))
        return out if np.ndim(out) else float(out)

    def scaled(self, factor: float) -> "FunctionDescriptor":
        """Return the descriptor multiplied pointwise by a constant."""
        p = dict(self.params)
        _KINDS[self.kind].scale(p, factor)
        return FunctionDescriptor(self.kind, p)

    # polynomial plumbing ----------------------------------------------------

    def is_polynomial(self) -> bool:
        return isinstance(_KINDS[self.kind], _Polynomial)

    def poly_coeffs(self):
        if not self.is_polynomial():
            raise ValueError(f"{self.kind} descriptor has no polynomial coefficients")
        return _KINDS[self.kind].coeffs(self.params)

    # serialization ----------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionDescriptor":
        if not isinstance(d, dict) or "kind" not in d:
            raise ValueError("descriptor must be an object with a 'kind' key")
        return cls(d["kind"], d.get("params", {}))

    def to_dict(self) -> dict:
        p = dict(self.params)
        for k, v in p.items():
            if isinstance(v, tuple):
                p[k] = [list(e) if isinstance(e, tuple) else e for e in v]
        return {"kind": self.kind, "params": p}


def power_integral(desc: FunctionDescriptor, power: float, t) -> float | np.ndarray:
    """integral_0^t g(s)^power ds, in closed form where the kind has one."""
    out = _KINDS[desc.kind].integral(desc.params, power, np.asarray(t, dtype=float))
    return out if np.ndim(out) else float(out)


def power_integral_limit(desc: FunctionDescriptor, power: float) -> tuple[float, bool]:
    """Limit of integral_0^t g^power as t approaches the end of g's life.

    Returns (value, estimated).  Only tables estimate: they have no data past
    their last node, so a geometric tail is fitted there and flagged.  For
    the singular family the limit is taken at t_b.
    """
    value, estimated = _KINDS[desc.kind].limit(desc.params, power)
    return float(value), estimated


def invert_power_integral(desc: FunctionDescriptor, power: float, y):
    """Elementwise t with integral_0^t g^power = y; NaN where it never gets there."""
    end = _KINDS[desc.kind].end(desc.params)
    return _solve_increasing(lambda t: power_integral(desc, power, t),
                             lambda t: np.asarray(desc(t)) ** power, y,
                             0.0, min(1.0, end), 0.0, end=end)


def _solve_increasing(fun, slope, y, lo, hi, f_lo, f_hi=None, end=math.inf):
    """Elementwise t in [lo, end] with fun(t) = y, for increasing fun.

    lo and hi bracket each target from samples the caller already holds, with
    f_lo = fun(lo) <= y and f_hi = fun(hi) (evaluated here when None).  A
    target above f_hi has its bracket doubled from hi until fun reaches it.
    Newton then starts at the chord point of the bracket, which is the root
    where fun is linear there (a quadrature G), and steps on the exact slope,
    falling back to the bracket midpoint whenever a step leaves the bracket.
    Each element is iterated on its own values only, so an array call agrees
    with scalar calls element by element.  Targets that fun does not reach by
    end (or by _T_REACH) come back NaN.
    """
    y = np.asarray(y, dtype=float)
    end = min(end, _T_REACH)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f_hi = fun(hi) if f_hi is None else f_hi
        short = f_hi < y
        while np.any(grow := short & (hi < end)):
            lo, f_lo = np.where(grow, hi, lo), np.where(grow, f_hi, f_lo)
            hi = np.where(grow, np.minimum(2.0 * hi, end), hi)
            f_hi = np.where(grow, fun(hi), f_hi)
            short = f_hi < y
        w = np.clip((y - f_lo) / (f_hi - f_lo), 0.0, 1.0)
        t, done = np.where(short | np.isnan(w), 0.5 * (lo + hi), lo + w * (hi - lo)), short
        for _ in range(_NEWTON_STEPS):
            r = fun(t) - y
            lo, hi = np.where(r < 0, t, lo), np.where(r > 0, t, hi)
            new = t - r / slope(t)
            new = np.where(done, t, np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi)))
            # converged: the step is at the rounding level of t, or the
            # residual is at the rounding level of y (where g is small)
            done = done | (np.abs(new - t) <= 4.0 * _EPS * np.abs(new)) \
                | (np.abs(r) <= 4.0 * _EPS * np.abs(y))
            t = new
            if np.all(done):
                break
    return np.where(short, np.nan, t)


def constant(value) -> FunctionDescriptor:
    return FunctionDescriptor("constant", {"value": value})


def polynomial(*coeffs) -> FunctionDescriptor:
    return FunctionDescriptor("polynomial", {"coeffs": list(coeffs)})


def singular_boundary(beta, t_b=1.0) -> FunctionDescriptor:
    return FunctionDescriptor("singular_boundary", {"beta": beta, "t_b": t_b})


def exponential(amplitude, rate) -> FunctionDescriptor:
    return FunctionDescriptor("exponential", {"amplitude": amplitude, "rate": rate})


# ---------------------------------------------------------------------------
# problem specification


@dataclass(frozen=True)
class ProblemSpec:
    """The data triple (f, u0, g) plus the alpha-grid resolution.

    The representation formula assumes the normalization u0(0) = 1 and
    g(0) = 1.  Inputs violating it are rescaled on construction with a
    warning; u0 must be positive on [0, 1].
    """

    f: FunctionDescriptor
    u0: FunctionDescriptor
    g: FunctionDescriptor
    n_alpha: int = 513

    def __post_init__(self):
        if self.n_alpha < 32:
            raise ValueError("n_alpha must be at least 32")
        u0, g, f = self.u0, self.g, self.f

        # blow-up time of the singular family is normalized to 1 by rescaling
        # time; the rescaled problem carries t_b * f in place of f
        if g.kind == "singular_boundary" and g.params["t_b"] != 1.0:
            tb = g.params["t_b"]
            warnings.warn(
                f"singular boundary data with t_b={tb} rescaled to t_b=1 "
                "(time unit changes accordingly)",
                stacklevel=2,
            )
            f = f.scaled(tb)
            g = FunctionDescriptor("singular_boundary",
                                   {"beta": g.params["beta"], "t_b": 1.0})

        u00 = float(u0(0.0))
        if abs(u00 - 1.0) > 1e-12:
            if u00 <= 0:
                raise ValueError("u0(0) must be positive")
            warnings.warn(f"u0 rescaled by 1/u0(0) = {1.0 / u00:.6g} to meet u0(0)=1",
                          stacklevel=2)
            u0 = u0.scaled(1.0 / u00)
        g0 = float(g(0.0))
        if abs(g0 - 1.0) > 1e-12:
            if g0 <= 0:
                raise ValueError("g(0) must be positive")
            warnings.warn(f"g rescaled by 1/g(0) = {1.0 / g0:.6g} to meet g(0)=1",
                          stacklevel=2)
            g = g.scaled(1.0 / g0)

        probe = u0(np.linspace(0.0, 1.0, 4097))
        if np.min(probe) <= 0:
            raise ValueError("u0 must be strictly positive on [0, 1]")

        object.__setattr__(self, "f", f)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "g", g)

    def alpha_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_alpha)

    def to_dict(self) -> dict:
        return {"f": self.f.to_dict(), "u0": self.u0.to_dict(),
                "g": self.g.to_dict(), "n_alpha": self.n_alpha}


def load_problem_spec(path) -> ProblemSpec:
    """Read a problem spec from a JSON file.

    Expected layout: top-level keys "f", "u0", "g" (each {"kind":..., "params":...})
    plus "n_alpha".  An optional "general" block configures the generalized
    integrator and is passed through untouched by this function.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path} is not valid JSON: {exc}") from exc
    try:
        return ProblemSpec(
            f=FunctionDescriptor.from_dict(raw["f"]),
            u0=FunctionDescriptor.from_dict(raw["u0"]),
            g=FunctionDescriptor.from_dict(raw["g"]),
            n_alpha=int(raw.get("n_alpha", 513)),
        )
    except KeyError as exc:
        raise ValueError(f"spec file {path} is missing required key {exc}") from exc


def spec_hash(spec: ProblemSpec) -> str:
    """Stable content hash of a spec, recorded in every CSV header."""
    canon = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# psi0


@dataclass(frozen=True)
class Psi0Profile:
    """Sampled psi0 with the features that control regularity.

    M0 is the greatest value attained (>= 0 because psi0(0) = 0), argmax_set
    holds the locations where it is attained, omega the zero set of psi0, and
    alpha0 the first zero of f in (0, 1).  When f u0 is one descriptor,
    `analytic` holds it (psi0' itself), so off-node evaluation is its exact
    integral and loses nothing to interpolation.
    """

    psi0: GridFunction
    M0: float = 0.0
    argmax_set: np.ndarray = field(default_factory=lambda: np.array([]))
    omega: np.ndarray = field(default_factory=lambda: np.array([]))
    alpha0: float | None = None
    analytic: FunctionDescriptor | None = None

    def value(self, alpha):
        if self.analytic is not None:
            return power_integral(self.analytic, 1.0, alpha)
        return self.psi0(alpha)


def _psi0_integrand(spec: ProblemSpec) -> FunctionDescriptor | None:
    """f u0 as one descriptor: f itself when u0 = 1, the product when both
    are polynomial, otherwise None."""
    if spec.u0.is_polynomial() and len(c := spec.u0.poly_coeffs()) == 1:
        # 1/u0(0) can leave a constant u0 one rounding away from 1, and the
        # singular family cannot be rescaled
        if c[0] == 1.0:
            return spec.f
        if spec.f.kind != "singular_boundary":
            return spec.f.scaled(c[0])
    if spec.f.is_polynomial() and spec.u0.is_polynomial():
        return polynomial(*npoly.polymul(spec.f.poly_coeffs(), spec.u0.poly_coeffs()))
    return None


def interior_zeros(desc, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every zero of a sampled function in (0, 1), in order, and whether each
    is a down-crossing, where the function goes from + to -.

    A zero node is exact, and a run of zero nodes counts once, at its first
    interior node.  The cells where the sign changes are solved together in
    one array call of _solve_increasing, each from its own cell and samples.
    """
    vals = np.asarray(desc(grid), dtype=float)
    if not np.any(vals):
        return np.array([]), np.array([], dtype=bool)
    sign, nonzero = np.sign(vals), np.flatnonzero(vals)
    zero = sign == 0.0
    zero[0] = False   # alpha = 0 is not in (0, 1); a run from there starts at node 1
    runs = np.flatnonzero(zero[1:-1] & ~zero[:-2]) + 1
    # a run goes down when the nonzero samples either side of it do (0 past the ends)
    side, k = np.concatenate(([0.0], sign[nonzero], [0.0])), np.searchsorted(nonzero, runs)
    run_down = (side[k] > 0) & (side[k + 1] < 0)
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    s = sign[cells + 1]   # s * desc rises through zero on each cell
    roots = _solve_increasing(lambda x: s * desc(x), lambda x: s * desc.derivative(x), 0.0,
                              grid[cells], grid[cells + 1], s * vals[cells], s * vals[cells + 1])
    where = np.concatenate((grid[runs], roots))
    order = np.argsort(where, kind="stable")
    return where[order], np.concatenate((run_down, sign[cells] > 0))[order]


def extract_features(profile: Psi0Profile, spec: ProblemSpec) -> dict:
    """Features of psi0: M0, argmax set, zero set, first zero of f.

    psi0' = f u0 with u0 > 0, so psi0 is greatest at alpha = 0, at alpha = 1
    or where f crosses from + to -.  M0 is the largest psi0 over these
    candidates, taken from the exact integral when f u0 is one descriptor
    and otherwise from the node below plus Simpson's rule on the partial
    cell; it counts as 0 at or below ZERO_SET_RTOL max|psi0|, the zero-set
    tolerance.  The argmax set holds the candidates within FEATURE_ATOL of
    the largest, and alpha0 is the first zero of f in (0, 1).
    """
    grid, vals = profile.psi0.nodes, profile.psi0.values
    zeros, down = interior_zeros(spec.f, grid)
    crests = zeros[down]
    at_crests = (profile.value(crests) if profile.analytic is not None
                 else cell_simpson_at(vals, lambda x: spec.f(x) * spec.u0(x), grid, crests))
    where = np.concatenate(([0.0], crests, [1.0]))
    psi = np.concatenate(([vals[0]], at_crests, [vals[-1]]))
    M0 = float(np.max(psi))
    argmax_set = where[psi >= M0 - FEATURE_ATOL]

    scale = float(np.max(np.abs(vals)))
    if M0 <= ZERO_SET_RTOL * scale:   # also clamps a negative maximum to 0
        M0 = 0.0
    omega = grid[np.abs(vals) <= ZERO_SET_RTOL * scale]   # every node when psi0 = 0

    alpha0 = float(zeros[0]) if zeros.size else None
    return {"M0": M0, "argmax_set": argmax_set, "omega": omega, "alpha0": alpha0}


def build_psi0(spec: ProblemSpec, method: str = "auto") -> Psi0Profile:
    """Cumulative integral psi0(alpha) = int_0^alpha f u0 dz with features.

    method "auto" takes the closed-form integral of f*u0 when it is one
    descriptor (see _psi0_integrand) and cell_simpson otherwise; "quadrature"
    forces cell_simpson (useful for convergence studies).
    """
    if method not in ("auto", "quadrature"):
        raise ValueError("method must be 'auto' or 'quadrature'")
    grid = spec.alpha_grid()
    analytic = _psi0_integrand(spec) if method == "auto" else None
    if analytic is not None:
        vals = np.asarray(power_integral(analytic, 1.0, grid))
    else:
        vals = cell_simpson(lambda x: spec.f(x) * spec.u0(x), grid)
    if not np.all(np.isfinite(vals)):
        raise ValueError("psi0 = int f*u0 is not finite on [0, 1]")
    bare = Psi0Profile(psi0=GridFunction(grid, vals), analytic=analytic)
    feats = extract_features(bare, spec)
    return dataclasses.replace(bare, **feats)


# ---------------------------------------------------------------------------
# G


@dataclass(frozen=True)
class BoundaryIntegral:
    """Sampled G(t) = int_0^t g, its limit, and a monotone inverse.

    G holds samples on [0, t_max].  A quadrature-built G (`sampled`)
    interpolates them there and continues past t_max as
    G(t_max) + I(t) - I(t_max), with I the kind's closed-form integral; any
    other G is that closed form outright.  `estimated` flags a G_infinity
    obtained by tail extrapolation (tables only) rather than a closed form.
    """

    G: GridFunction
    G_infinity: float
    g_desc: FunctionDescriptor
    estimated: bool = False
    sampled: bool = False

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if not self.sampled:
            out = power_integral(self.g_desc, 1.0, t)
        else:
            tm, G_end = self.t_max, self.G.values[-1]
            ahead = np.maximum(t, tm)
            out = np.where(t <= tm, self.G(t), G_end + power_integral(self.g_desc, 1.0, ahead)
                           - power_integral(self.g_desc, 1.0, tm))
        return out if np.ndim(out) else float(out)

    def invert(self, y):
        """Elementwise t with G(t) = y; NaN where G never gets there (at or
        past G_infinity, or past the last node of tabulated g)."""
        y = np.asarray(y, dtype=float)
        t = np.full(y.shape, np.nan)
        reach = y < self.G_infinity
        # the node cell of each target; targets past the last node double from it
        nodes, vals = self.G.nodes, self.G.values
        i = np.clip(np.searchsorted(vals, y[reach]), 1, len(vals) - 1)
        t[reach] = _solve_increasing(self.value, self.g_desc, y[reach], nodes[i - 1], nodes[i],
                                     vals[i - 1], vals[i],
                                     _KINDS[self.g_desc.kind].end(self.g_desc.params))
        return t

    @property
    def t_max(self) -> float:
        return float(self.G.nodes[-1])


def data_horizon(g: FunctionDescriptor, t_max: float) -> float:
    """min(t_max, the last time g has data): the last node of a table, and
    t_b (1 - 1e-9) for the singular family, which blows up at t_b."""
    return min(t_max, _KINDS[g.kind].last(g.params))


def build_G(spec, t_max: float, n_t: int = 1025, method: str = "auto") -> BoundaryIntegral:
    """Strictly increasing sampled G on [0, t_max] with G(0) = 0 exact.

    Accepts a ProblemSpec or a bare FunctionDescriptor for g.  method "auto"
    samples the kind's closed form; "quadrature" integrates g by Simpson's
    rule on each grid cell (cell_simpson), so every increment of a positive
    g is positive.  t_max must not pass data_horizon, the last time g has data.
    """
    desc = spec.g if isinstance(spec, ProblemSpec) else spec
    if method not in ("auto", "quadrature"):
        raise ValueError("method must be 'auto' or 'quadrature'")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if (last := data_horizon(desc, t_max)) < t_max:
        raise ValueError(f"t_max={t_max} is past t={last:.12g}, the last time "
                         f"{desc.kind} g has data")
    t_grid = np.linspace(0.0, t_max, n_t)
    if method == "auto":
        vals = np.asarray(power_integral(desc, 1.0, t_grid))
    else:
        def positive_g(t):
            g = np.asarray(desc(t))
            if np.min(g) <= 0:
                raise ValueError("g must be strictly positive on [0, t_max]")
            return g
        vals = cell_simpson(positive_g, t_grid)
    if not np.all(np.diff(vals) > 0):
        raise ValueError("G is not strictly increasing; g must be positive")
    G_inf, estimated = power_integral_limit(desc, 1.0)
    return BoundaryIntegral(G=GridFunction(t_grid, vals), G_infinity=G_inf, g_desc=desc,
                            estimated=estimated, sampled=method == "quadrature")


def invert_G(B: BoundaryIntegral, target: float) -> float:
    """Solve G(t) = target for the monotone accumulated boundary integral.

    A target at or past G_infinity raises NoFiniteTime, the numerical signal
    for global existence; one that G reaches only past the last node of
    tabulated g raises ValueError.
    """
    target = float(target)
    if target < 0:
        raise ValueError("inversion target must be nonnegative")
    if target >= B.G_infinity:
        raise NoFiniteTime(target, B.G_infinity)
    t = float(B.invert(target))
    if math.isnan(t):
        raise ValueError(f"G does not reach {target} within the data range of g")
    return t


# ---------------------------------------------------------------------------
# compatibility


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    defect: float
    sign_change: bool


def check_compatibility(spec: ProblemSpec, F=None) -> CompatibilityReport:
    """Defect |int_0^1 f F(u0)| and whether f changes sign.

    F is the nonlinearity of the generalized equation, identity by default.
    Periodic boundary values are consistent only when the defect vanishes;
    failure is reported, not raised.  The defect is exact when f u0 is one
    descriptor, else cell_simpson on the cells of a fixed odd grid of at
    least 513 nodes, so it does not depend on n_alpha's parity.
    """
    def w(x):
        return np.asarray(spec.f(x)) * (spec.u0(x) if F is None else F(spec.u0(x)))

    grid = np.linspace(0.0, 1.0, max(spec.n_alpha | 1, 513))
    f_vals = np.asarray(spec.f(grid))
    exact = _psi0_integrand(spec) if F is None else None
    defect = abs(float(cell_simpson(w, grid)[-1] if exact is None
                       else power_integral(exact, 1.0, 1.0)))
    scale = float(np.max(np.abs(w(grid))))
    ok = defect <= COMPAT_RTOL * scale if scale > 0 else True
    f_scale = np.max(np.abs(f_vals))
    sign_change = bool(f_scale > 0
                       and np.min(f_vals) < -1e-14 * f_scale
                       and np.max(f_vals) > 1e-14 * f_scale)
    return CompatibilityReport(ok=ok, defect=defect, sign_change=sign_change)
