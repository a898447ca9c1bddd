"""Problem instances and the two primitive integrals psi0 and G.

The initial periodic-boundary value problem

    d^2/(dalpha dt) ln u = f(alpha) u,    alpha in (0,1), t > 0,
    u(alpha, 0) = u0(alpha),              u(0, t) = u(1, t) = g(t),

is determined by the data triple (f, u0, g); its generalized form, f F(u) in
place of f u, adds the nonlinearity F (Nonlinearity), which a ProblemSpec
carries beside the data.  Everything downstream is built from two primitives:

    psi0(alpha) = integral_0^alpha f(z) u0(z) dz
    G(t)        = integral_0^t    g(s) ds,      G(0) = 0.

Data functions are represented by a small closed-form catalog plus linearly
interpolated tables.  Each kind is one class (_KINDS) with its own value,
derivative, integral of any power and limit of that integral, bound once by
each FunctionDescriptor to its checked params, so the worked examples
(polynomial data, the singular boundary family (1-t)^-(1+beta), exponential
decay, trigonometric data) are integrated exactly while tables admit
arbitrary sampled data.  Every polynomial (value, derivative, integral) goes
through one Horner loop, _horner, and every table (a table g, a table F, a
sampled psi0 or G) is checked by GridFunction.

psi0 and G are the kind's closed-form integral (psi0, and the generalized
equation's H0 = int f F(u0), whenever the integrand is one descriptor, see
_integrand; G unless quadrature is requested), or else 5-point Gauss-Lobatto
on each grid cell (lobatto_to_nodes), whose error on smooth data is rounding
at any node count.  Both keep psi0(0) = 0 and G(0) = 0 exact.  Like a
descriptor, Psi0Profile and BoundaryIntegral take only what defines them and
derive the rest once, on construction.  Psi0Profile(psi0, integrand, f) reads
psi0 (or H0) off its nodes by its value alone and, as psi0' = f u0 with
u0 > 0, reads M0 and its argmax set off alpha = 0, alpha = 1 and the zeros
where f crosses from + to - (interior_zeros).  BoundaryIntegral(G, g_desc)
reads G as the closed form plus the interpolated offset of its samples (its
value), with slope g, and takes G_infinity from g's power_integral_limit.
data_horizon says how long g has data.  Every inverse (G^-1, the inverse of
a power integral, the zeros of f) goes through one array inverter,
_solve_increasing, which starts from a bracket per target taken from samples
the caller already holds: the sampled G for G^-1, the grid cells where f
changes sign for its zeros.  Integrals of functions off the closed forms
sum lobatto_cells; a table's powers sum exact segments.  Integrals of
samples take simpson_weights (the whole integral) and running_simpson (the
integrator's running sum, one matmul a stage), whose reference is
cumulative_simpson, scipy's arithmetic bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

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

_CSV_BLOCK = 4096   # rows formatted and written at once by write_csv
# '%.12e' tables, indexed by j = 34 - (decimal exponent): |x| scales by
# _MUL[j] / _MUL[44 - j] = 10**(j - 22), where one factor is 1 and the other exact
_MUL = 10.0 ** np.maximum(np.arange(-22, 23), 0)
_EXP = np.frombuffer(b"".join(b"e%+03d" % e for e in range(34, -11, -1)), np.uint32)
_LEAD = np.frombuffer(b"".join(b"\0%c%d." % (s, d) for s in b"\0-" for d in range(10)), np.uint32)
_QUAD = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), -1).view(np.uint32).ravel()


# ---------------------------------------------------------------------------
# quadrature kernels (cumulative_simpson is the same arithmetic as
# scipy.integrate's, which the tests keep as the reference)


def cumulative_simpson(y, h, out=None):
    """int_0^{x_k} y at every node k of a uniform grid of step h (0 at k = 0),
    into out if given.  Even intervals take the parabola through the next
    node, odd intervals and the last one the parabola through the previous
    node.  The reference for running_simpson and simpson_weights."""
    n = len(y)
    out = np.empty(n) if out is None else out
    end = n - 1 + n % 2   # past the paired intervals; an even n has one left over
    y0, y1, y2 = y[0:end - 2:2], y[1:end - 1:2], y[2:end:2]
    out[0] = 0.0
    out[1:end - 1:2] = 1.25 * y0 + 2.0 * y1 - 0.25 * y2
    out[2:end:2] = 1.25 * y2 + 2.0 * y1 - 0.25 * y0
    if n % 2 == 0:
        out[-1] = 1.25 * y[-1] + 2.0 * y[-2] - 0.25 * y[-3]
    np.add.accumulate(out[1:] * (h / 3.0), out=out[1:])
    return out


def running_simpson(w, h):
    """r -> r + cumulative_simpson(w, h) up to rounding, read off the buffer w
    at the call by one matmul and one accumulate: the overlapping rows w[2i],
    w[2i+1], w[2i+2] times the stencil (h/3) [[5/4, -1/4], [2, 2], [-1/4, 5/4]]
    are each pair's two increments, and an even n's last interval is the
    second column on w[-3:].  The view, the stencil and the returned buffer
    are made once.  Not bit for bit scipy, which sums a pair's second
    increment from the far end."""
    pairs = np.lib.stride_tricks.sliding_window_view(w, 3)[::2]   # no copy
    stencil = (h / 3.0) * np.array([[1.25, -0.25], [2.0, 2.0], [-0.25, 1.25]])
    run = np.empty(w.size)
    increments = run[1:2 * len(pairs) + 1].reshape(-1, 2)

    def running(r):
        np.matmul(pairs, stencil, out=increments)
        if w.size % 2 == 0:
            run[-1] = w[-3:] @ stencil[:, 1]
        run[0] = r
        return np.add.accumulate(run, out=run)
    return running


@functools.lru_cache(maxsize=16)
def simpson_weights(n):
    """Read-only w with w @ y * (h / 3) = cumulative_simpson(y, h)[-1] up to
    rounding: 1, 4, 2, ..., 4, 1 on the first n or, for even n, n - 1 nodes,
    and for even n the last interval's backward parabola (-1/4, 2, 5/4)."""
    w = np.zeros(n)
    m = n - 1 + n % 2   # nodes under the paired intervals
    w[1:m - 1] = 2.0
    w[1:m - 1:2] = 4.0
    w[[0, m - 1]] = 1.0
    if n % 2 == 0:
        w[-3:] += (-0.25, 2.0, 1.25)
    w.flags.writeable = False
    return w


def lobatto_cells(w, x):
    """int_{x[i]}^{x[i+1]} w for every cell i by 5-point Gauss-Lobatto, exact
    for polynomials of degree 7: the ends weighted 1/20, the points 1/2 -+
    sqrt(21)/14 of the cell 49/180 and its centre 16/45.

    w is called on arrays.  The nodes run along axis 0, so a (2, k) x
    integrates k separate cells [x[0, j], x[1, j]] at once.  The samples are
    summed elementwise in one fixed order, so no cell depends on the others.
    """
    x = np.asarray(x, dtype=float)
    h = np.diff(x, axis=0)
    w_x = np.asarray(w(x))
    w_in = np.asarray(w(x[:-1] + np.multiply.outer((0.17267316464601143, 0.5, 0.8273268353539885), h)))
    return h * (0.05 * (w_x[:-1] + w_x[1:]) + 0.2722222222222222 * (w_in[0] + w_in[2])
                + 0.35555555555555557 * w_in[1])


def lobatto_to_nodes(w, x):
    """int_{x[0]}^{x[k]} w at every k (0 at k = 0): the running sum of
    lobatto_cells along axis 0."""
    steps = lobatto_cells(w, x)
    return np.concatenate((np.zeros((1,) + steps.shape[1:]), np.cumsum(steps, axis=0)))


def _fit_line(x, y):
    """np.linalg.lstsq's line y ~ slope x + intercept: ((slope, intercept), residuals, ...)."""
    return np.linalg.lstsq(np.vstack([x, np.ones_like(x)]).T, y, rcond=None)


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
    """Finite samples, linearly interpolated between strictly increasing nodes.

    Evaluation at a node returns the stored value exactly.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("table nodes and values must be 1-d arrays of equal length")
        if nodes.size < 2:
            raise ValueError("a table needs at least two nodes")
        if not (np.isfinite(nodes).all() and np.isfinite(values).all()):
            raise ValueError("table nodes and values must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("table nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)

    def slope(self, x):
        """Slope of the cell holding x: at a node the cell it starts, past the ends the end cells."""
        i = np.searchsorted(self.nodes[1:-1], x, side="right")   # the end cells cover the rest
        return (self.values[i + 1] - self.values[i]) / (self.nodes[i + 1] - self.nodes[i])

    def to_csv(self, path, header=("node", "value"), comment=None):
        write_csv(path, comment, ",".join(header), "%.12e,%.12e", (self.nodes, self.values))


def write_csv(path, comment, header, row, columns):
    """Write "# comment" (when given), the header, then row % values for each
    element of the columns broadcast together, in C order (row: one % spec a
    column).  A column repeated along a broadcast axis is formatted once per block
    of about _CSV_BLOCK rows; memory holds one block's text, never the file's."""
    cols = np.broadcast_arrays(*map(np.atleast_1d, columns))
    n, inner = len(cols[0]), math.prod(cols[0].shape[1:])
    step = max(1, _CSV_BLOCK // max(1, inner))
    with open(path, "wb") as fh:
        fh.write((f"# {comment}\n" if comment else "").encode() + f"{header}\n".encode())
        for i in range(0, n, step):
            pieces = []
            for spec, c in zip(row.split(","), cols):
                c = c.reshape(n, inner)[i:i + step]
                part = c[tuple(slice(None if s else 1) for s in c.strides)]
                text = _cells(spec, part.ravel())
                width = text.shape[-1:]
                cells = np.broadcast_to(text.reshape(part.shape + width), c.shape + width)
                pieces += [cells, np.full(c.shape + (1,), ord(","), np.uint8)]
            pieces[-1][...] = ord("\n")
            fh.write(np.concatenate(pieces, -1).tobytes().replace(b"\0", b""))


def _cells(spec, x):
    """Rows of bytes holding spec % v for the values v of x, right-aligned on NULs.

    "%.12e": |v| times an exact power of ten is rounded once, so below 1e13 it
    is off by at most 2**-10; rint then gives the 13-digit mantissa unless it is
    within 1e-3 of a half-integer.  Those, scaled values outside [1e12, 1e13)
    (zero, exponents outside [-10, 34]) and nan/inf go to %, in one call.  Other
    specs format each distinct value once, floats keyed by bits (-0.0 is not 0.0)."""
    if spec != "%.12e":
        _, first, inv = np.unique(x.view(np.int64) if x.dtype == np.float64 else x,
                                  return_index=True, return_inverse=True)
        text = [(spec % v).encode() for v in x[first].tolist()]
        width = max(map(len, text), default=0)
        return np.frombuffer(b"".join(t.rjust(width, b"\0") for t in text), np.uint8).reshape(-1, width)[inv]
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        j = np.minimum(np.maximum(np.ceil(34 - np.log10(a)).astype(np.intp), 0), 44)
        p = a * _MUL[j] / _MUL[44 - j]
        m = np.rint(p)
        ok = (p >= 1e12) & (m < 1e13) & (np.abs(p - m) < 0.499)
    q0 = np.where(ok, m, 1e12).astype(np.int64)
    q1, q2, q3 = q0 // 10**4, q0 // 10**8, q0 // 10**12
    cells = np.stack([_LEAD[q3 + 10 * np.signbit(x)], _QUAD[q2 - 10**4 * q3], _QUAD[q1 - 10**4 * q2],
                      _QUAD[q0 - 10**4 * q1], _EXP[j]], -1).view(np.uint8)
    bad = x[~ok].tolist()
    if bad:
        text = ("%20.12e" * len(bad) % tuple(bad)).replace(" ", "\0").encode()
        cells[~ok] = np.frombuffer(text, np.uint8).reshape(-1, 20)
    return cells[:, (not cells[:, 0].any()) + (not cells[:, 1].any()):]


# ---------------------------------------------------------------------------
# function descriptors


class _Kind:
    """One descriptor kind bound to its params, built once per FunctionDescriptor.

    The constructor checks the params dict p, normalizes it in place and keeps
    what the methods read.  integral(power, t) is int_0^t value^power, 256
    lobatto_cells summed unless the kind has a closed form; limit(power) is
    its limit at end, the end of the data's life, as (value, estimated), and
    last the last time with data.  scale(p, factor) rescales a params dict in
    place, without a kind object.
    """

    end = last = math.inf

    def integral(self, power, t):
        s = np.multiply.outer(np.linspace(0.0, 1.0, 257), t)
        steps = lobatto_cells(lambda x: np.asarray(self.value(x)) ** power, s)
        # cells last and contiguous, so every t is summed pairwise, as a scalar t is
        return np.ascontiguousarray(np.moveaxis(steps, 0, -1)).sum(axis=-1)

    def limit(self, power):
        # constants, polynomials and positive trigonometric data (almost
        # periodic, positive mean) all integrate to infinity
        return math.inf, False


class _Polynomial(_Kind):
    def __init__(self, p):
        if np.ndim(p["coeffs"]) != 1 or not len(p["coeffs"]):   # "12" is not [1, 2]
            raise ValueError("polynomial needs a list of at least one coefficient")
        p["coeffs"] = self.coeffs = tuple(float(c) for c in p["coeffs"])
        self.antiderivatives = {}   # of value^power, by power

    def value(self, x):
        return _horner(self.coeffs, x)

    @functools.cached_property
    def derivative_coeffs(self):
        return npoly.polyder(self.coeffs).tolist()

    def derivative(self, x):
        return _horner(self.derivative_coeffs, x)

    def integral(self, power, t):
        if not (float(power).is_integer() and power > 0):
            return super().integral(power, t)
        if (c := self.antiderivatives.get(power)) is None:
            c = npoly.polyint(npoly.polypow(self.coeffs, int(power))).tolist()
            self.antiderivatives[power] = c
        return _horner(c, t)

    @staticmethod
    def scale(p, factor):
        p["coeffs"] = tuple(c * factor for c in p["coeffs"])


class _Constant(_Polynomial):
    # the degree-0 polynomial, stored as {"value": v}

    def __init__(self, p):
        p["value"] = float(p["value"])
        super().__init__({"coeffs": [p["value"]]})

    @staticmethod
    def scale(p, factor):
        p["value"] *= factor


def _horner(c, x):
    """sum c[k] x^k by npoly.polyval's own arithmetic, so bit for bit its value
    on floats and arrays alike, without its per-call argument handling."""
    acc = c[-1] + x * 0.0
    for ci in c[-2::-1]:
        acc = ci + acc * x
    return acc


class _Trigonometric(_Kind):
    def __init__(self, p):
        terms = p["terms"]
        if not len(terms) or any(np.ndim(t) != 1 or len(t) not in (2, 3) for t in terms):
            raise ValueError("trigonometric needs at least one term, each [A, k] or [A, k, phase]")
        p["terms"] = self.terms = tuple(tuple(map(float, t)) + (0.0,) * (3 - len(t)) for t in terms)
        p["offset"] = self.offset = float(p.get("offset", 0.0))

    def value(self, x):
        out = np.full_like(x, self.offset)
        for amp, freq, phase in self.terms:
            out = out + amp * np.sin(2.0 * np.pi * freq * x + phase)
        return out

    def derivative(self, x):
        out = np.zeros_like(x)
        for amp, freq, phase in self.terms:
            w = 2.0 * np.pi * freq
            out = out + amp * w * np.cos(w * x + phase)
        return out

    def integral(self, power, t):
        if power != 1.0:
            return super().integral(power, t)
        # A (cos(phase) - cos(2 pi k t + phase)) / (2 pi k), written with
        # sinc(kt) = sin(pi k t)/(pi k t) so that k -> 0 gives A sin(phase) t
        out = self.offset * t
        for amp, freq, phase in self.terms:
            out = out + amp * t * np.sinc(freq * t) * np.sin(np.pi * freq * t + phase)
        return out

    @staticmethod
    def scale(p, factor):
        p["offset"] *= factor
        p["terms"] = tuple((a * factor, f, ph) for a, f, ph in p["terms"])


class _SingularBoundary(_Kind):
    # g^power = (1 - t/t_b)^-(e + 1) with e = power (1 + beta) - 1

    def __init__(self, p):
        p["beta"] = float(p["beta"])
        p["t_b"] = float(p.get("t_b", 1.0))
        for key, name in (("beta", "exponent beta"), ("t_b", "blow-up time t_b")):
            if not 0 < p[key] < math.inf:   # nan too
                raise ValueError(f"singular_boundary {name} must be positive and finite, got {p[key]}")
        self.beta, self.end = p["beta"], p["t_b"]
        self.last = self.end * (1.0 - 1e-9)   # the data are finite on [0, t_b) only

    def value(self, x):
        # a float x as a 0-d array: its power is inf past the largest double, where float ** raises;
        # its domain test is a float compare, 3 us faster than np.any
        tb, x = self.end, np.asarray(x)
        if float(x) >= tb if x.ndim == 0 else np.any(x >= tb):
            raise ValueError(
                f"singular_boundary data is finite only on [0, t_b={tb}); "
                f"got t up to {float(np.max(x))}"
            )
        return (1.0 - x / tb) ** (-(1.0 + self.beta))

    def derivative(self, x):
        tb = self.end
        return (1.0 + self.beta) / tb * (1.0 - np.asarray(x) / tb) ** (-(2.0 + self.beta))

    def integral(self, power, t):
        tb, e = self.end, power * self.beta + (power - 1.0)
        if e == 0.0:
            return -tb * np.log(1.0 - t / tb)
        return (tb / e) * ((1.0 - t / tb) ** (-e) - 1.0)

    def limit(self, power):
        e = power * self.beta + (power - 1.0)
        return (-self.end / e if e < 0 else math.inf), False

    @staticmethod
    def scale(p, factor):
        raise ValueError("the singular_boundary family is already normalized; cannot rescale")


class _Table(_Kind):
    def __init__(self, p):
        self.table = table = GridFunction(p["nodes"], p["values"])
        p["nodes"], p["values"] = tuple(table.nodes.tolist()), tuple(table.values.tolist())
        self.end = self.last = p["nodes"][-1]
        self.lo, self.hi = table.nodes[0] - 1e-12, table.nodes[-1] + 1e-12   # the domain, with slack
        self.node_integrals = {}   # int_{nodes[0]}^{nodes[i]} value^power at every node i, by power

    def value(self, x):
        # a float x (the integrator's g(t) per stage) takes float compares, not np.any
        lo, hi = self.lo, self.hi
        if x < lo or x > hi if np.ndim(x) == 0 else np.any(x < lo) or np.any(x > hi):
            raise ValueError("evaluation outside the table's declared domain")
        return self.table(x)

    def derivative(self, x):
        return self.table.slope(x)

    def integral(self, power, t):
        nodes, values = self.table.nodes, self.table.values
        if (cum := self.node_integrals.get(power)) is None:
            steps = _line_power(np.diff(nodes), values[:-1], values[1:], power)
            cum = self.node_integrals[power] = np.concatenate(([0.0], np.cumsum(steps)))

        def area(x):  # int_{nodes[0]}^x
            i = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
            return cum[i] + _line_power(x - nodes[i], values[i], self.value(x), power)

        return area(t) - area(0.0)

    def limit(self, power):
        # no data past the last node: extrapolate a geometric tail and flag it
        horizon = self.end
        g_end = float(self.value(horizon)) ** power
        g_mid = float(self.value(horizon / 2.0)) ** power
        if g_end >= 0.5 * g_mid:
            return math.inf, True
        k = math.log(g_mid / g_end) / (horizon / 2.0)
        return float(self.integral(power, horizon)) + g_end / k, True

    @staticmethod
    def scale(p, factor):
        p["values"] = tuple(v * factor for v in p["values"])


def _line_power(h, v0, v1, power):
    """int_0^h (the line from v0 to v1)^power: the trapezoid at power 1, else
    h a^power (1 - r^k) / (k (1 - r)), k = power + 1, for the end a larger in
    size and r = b / a in [-1, 1] for the other end b.  For r > 0 that is
    expm1(k L) / (k expm1(L)) with L = ln r, and 1 at L = 0, so equal ends
    cancel nothing; a zero end (r = 0) and two (a = 0) divide by nothing."""
    if power == 1.0:
        return h * (v0 + v1) / 2.0
    first, k = np.abs(v0) >= np.abs(v1), power + 1.0
    a = np.where(first, v0, v1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(first, v1, v0) / a
        L = np.log(r)   # NaN for r < 0, where the ends differ in sign and nothing cancels
        ratio = np.where(r <= 0.0, (1.0 - r ** k) / (k * (1.0 - r)),
                         np.where(L == 0.0, 1.0, np.expm1(k * L) / (k * np.expm1(L))))
    return np.where(a != 0.0, h * a ** power * ratio, 0.0)


class _Exponential(_Kind):
    def __init__(self, p):
        p["amplitude"] = self.amplitude = float(p["amplitude"])
        p["rate"] = self.rate = float(p["rate"])

    def value(self, x):
        return self.amplitude * np.exp(self.rate * x)

    def derivative(self, x):
        return self.amplitude * self.rate * np.exp(self.rate * x)

    def integral(self, power, t):
        # A^power (e^{rp t} - 1)/rp with rp = rate * power; exprel stays exact
        # as rp -> 0, where expm1(rp t)/rp loses every digit
        return self.amplitude ** power * t * exprel(self.rate * power * t)

    def limit(self, power):
        amp, rp = self.amplitude, self.rate * power
        return (-(amp**power) / rp if rp < 0 else math.inf), False

    @staticmethod
    def scale(p, factor):
        p["amplitude"] *= factor


_KINDS = {"constant": _Constant, "polynomial": _Polynomial,
          "trigonometric": _Trigonometric, "singular_boundary": _SingularBoundary,
          "table": _Table, "exponential": _Exponential}


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

    bound is the kind's object, built once here with the params checked and
    read; it is not a field, so equality, repr and to_dict see kind and params.
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown descriptor kind {self.kind!r}; "
                             f"expected one of {tuple(_KINDS)}")
        try:
            p = dict(self.params)
            bound = _KINDS[self.kind](p)
        except (TypeError, IndexError, KeyError) as exc:   # a list for a number, a short term, no key
            raise ValueError(f"malformed {self.kind} params: {exc}") from exc
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "bound", bound)

    # evaluation -----------------------------------------------------------

    def __call__(self, x):
        out = self.bound.value(np.asarray(x, dtype=float))
        if not np.isfinite(out).all():
            raise ValueError(f"{self.kind} descriptor produced non-finite samples")
        return out if np.ndim(out) else float(out)

    def derivative(self, x):
        """Pointwise derivative (piecewise slope for tables)."""
        out = self.bound.derivative(np.asarray(x, dtype=float))
        return out if np.ndim(out) else float(out)

    def scaled(self, factor: float) -> "FunctionDescriptor":
        """Return the descriptor multiplied pointwise by a constant."""
        p = dict(self.params)
        self.bound.scale(p, factor)
        return FunctionDescriptor(self.kind, p)

    # polynomial plumbing ----------------------------------------------------

    def is_polynomial(self) -> bool:
        return isinstance(self.bound, _Polynomial)

    def poly_coeffs(self):
        if not self.is_polynomial():
            raise ValueError(f"{self.kind} descriptor has no polynomial coefficients")
        return self.bound.coeffs

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
    out = desc.bound.integral(power, np.asarray(t, dtype=float))
    return out if np.ndim(out) else float(out)


def power_integral_limit(desc: FunctionDescriptor, power: float) -> tuple[float, bool]:
    """Limit of integral_0^t g^power as t approaches the end of g's life.

    Returns (value, estimated).  Only tables estimate: they have no data past
    their last node, so a geometric tail is fitted there and flagged.  For
    the singular family the limit is taken at t_b.
    """
    value, estimated = desc.bound.limit(power)
    return float(value), estimated


def invert_power_integral(desc: FunctionDescriptor, power: float, y):
    """Elementwise t with integral_0^t g^power = y; NaN where it never gets there."""
    end = desc.bound.end
    return _solve_increasing(lambda t: power_integral(desc, power, t),
                             lambda t: np.asarray(desc(t)) ** power, y,
                             0.0, min(1.0, end), 0.0, end=end)


def _solve_increasing(fun, slope, y, lo, hi, f_lo, f_hi=None, end=math.inf):
    """Elementwise t in [lo, end] with fun(t) = y, for increasing fun.

    lo and hi bracket each target from samples the caller already holds, with
    f_lo = fun(lo) <= y and f_hi = fun(hi) (evaluated here when None).  A
    target above f_hi has its bracket doubled from hi until fun reaches it.
    Newton then starts at the chord point of the bracket and steps on the
    exact slope, falling back to the bracket midpoint whenever a step leaves
    the bracket.
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


@dataclass(frozen=True)
class Nonlinearity:
    """F(u) of the generalized equation, with envelope constants c <= d
    satisfying c F <= u F' <= d F, read off the kind and params once, here:
    c and d are not fields, and params hold floats (a table's tuples of them).

    kinds: identity (F(u)=u, c=d=1, params {}), power (F(u)=u^p, c=d=p,
    params {"p": p} with 0 < p < inf), table (piecewise-linear F read through
    a GridFunction, held at its end values outside its nodes, params {"nodes",
    "values", "c", "d"} with positive nodes, nonnegative values and the stated
    0 < c <= d; c F <= u F' <= d F is checked at each segment midpoint in
    [1e-3, 1e3], and unverified outside it).  Every error starts with "F: ".
    """

    kind: str
    params: dict

    def __post_init__(self):
        p = dict(self.params)
        try:
            if self.kind == "identity":
                c = d = 1.0
            elif self.kind == "power":
                p["p"] = c = d = float(p["p"])
                if not 0 < c < math.inf:   # nan too
                    raise ValueError(f"power p must be positive and finite, got {c}")
            elif self.kind == "table":
                p["c"], p["d"] = c, d = float(p["c"]), float(p["d"])
                if not (0 < c <= d):
                    raise ValueError(f"need 0 < c <= d, got c={c}, d={d}")
                self.__dict__["_table"] = table = GridFunction(p["nodes"], p["values"])
                nodes, values = table.nodes, table.values
                p["nodes"], p["values"] = tuple(nodes.tolist()), tuple(values.tolist())
                if nodes[0] <= 0:
                    raise ValueError("table nodes must be positive")
                if np.any(values < 0):
                    raise ValueError("table values must be nonnegative")
                # envelope check c F <= u F' <= d F at segment midpoints inside the
                # verified window [1e-3, 1e3]
                mids = 0.5 * (nodes[:-1] + nodes[1:])
                mids = mids[(mids >= 1e-3) & (mids <= 1e3)]
                F_mid = table(mids)
                uFp = mids * table.slope(mids)
                slack = 1e-9 * (1.0 + np.abs(F_mid))
                if not (np.all(c * F_mid <= uFp + slack) and np.all(uFp <= d * F_mid + slack)):
                    worst = float(np.min(np.minimum(uFp - c * F_mid, d * F_mid - uFp)))
                    raise ValueError(f"table nonlinearity violates c F <= u F' <= d F on "
                                     f"[1e-3, 1e3] (worst margin {worst:.3e})")
            else:
                raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        except (TypeError, KeyError) as exc:   # a list for a number, no key
            raise ValueError(f"F: malformed {self.kind} params: {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"F: {exc}") from exc
        self.__dict__.update(params=p, c=c, d=d)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "identity":
            out = u
        elif self.kind == "power":
            out = u ** self.params["p"]
        else:
            out = self._table(u)
        return out if out.ndim else float(out)

    @classmethod
    def from_dict(cls, block: dict) -> "Nonlinearity":
        """A spec's general.F block, {"kind": ..., **params}; kind defaults to identity."""
        if not isinstance(block, dict):
            raise ValueError("F: the spec's general block and its F must be objects")
        return cls(block.get("kind", "identity"), {k: v for k, v in block.items() if k != "kind"})

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}


# ---------------------------------------------------------------------------
# problem specification


@dataclass(frozen=True)
class ProblemSpec:
    """The data triple (f, u0, g), the alpha-grid resolution and the
    nonlinearity F of the generalized equation (F(u) = u by default).

    The representation formula assumes the normalization u0(0) = 1 and
    g(0) = 1.  Inputs violating it are rescaled on construction with a
    warning; u0 must be positive on [0, 1], and u0(1) = u0(0).
    """

    f: FunctionDescriptor
    u0: FunctionDescriptor
    g: FunctionDescriptor
    n_alpha: int = 513
    F: Nonlinearity = Nonlinearity("identity", {})

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
        if abs(probe[-1] - 1.0) > 1e-12:
            raise ValueError(f"u0(1) = {probe[-1]:.12g} must equal u0(0) = 1, as u(1, 0) = u(0, 0) = g(0)")

        object.__setattr__(self, "f", f)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "g", g)

    def alpha_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_alpha)

    def to_dict(self) -> dict:
        """The spec's JSON document; a "general" block only for F other than u."""
        d = {"f": self.f.to_dict(), "u0": self.u0.to_dict(), "g": self.g.to_dict(), "n_alpha": self.n_alpha}
        return d if self.F.kind == "identity" else {**d, "general": {"F": self.F.to_dict()}}


def load_problem_spec(path) -> ProblemSpec:
    """Read a problem spec from a JSON file.

    Expected layout: top-level keys "f", "u0", "g" (each {"kind":..., "params":...})
    plus "n_alpha" and, optionally, "general", an object whose "F" (F(u) = u
    when absent) Nonlinearity.from_dict reads.  An error in a datum starts
    with its key ("g: ...", "F: ...").
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"spec file {path} must hold a JSON object")
    try:
        if not float(n_alpha := raw.get("n_alpha", 513)).is_integer():   # int() would truncate
            raise ValueError(f"spec file {path}: n_alpha must be an integer, got {n_alpha}")
        data = {}
        for key in ("f", "u0", "g"):
            try:
                data[key] = FunctionDescriptor.from_dict(raw[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
        general = raw.get("general", {})
        F = Nonlinearity.from_dict(general.get("F", {}) if isinstance(general, dict) else None)
        return ProblemSpec(**data, n_alpha=int(n_alpha), F=F)
    except (KeyError, TypeError) as exc:   # a missing key, or "n_alpha": null
        raise ValueError(f"spec file {path} lacks a key or has a bad value: {exc}") from exc


def spec_hash(spec: ProblemSpec) -> str:
    """Stable content hash of a spec (f, u0, g, n_alpha and F), recorded in every CSV header."""
    canon = json.dumps(spec.to_dict(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# psi0


@dataclass(frozen=True)
class Psi0Profile:
    """Sampled psi0 = int_0^alpha integrand, and the features that control
    regularity, derived once, here, from the samples, the integrand and f.

    integrand is psi0' = f u0 (f F(u0) for the integrator's H0), a callable,
    or one descriptor when it is one, which `analytic` then holds (else None).
    As psi0' = f u0 with u0 > 0, psi0 is greatest at alpha = 0, at alpha = 1
    or where f crosses from + to -.  M0 is the largest psi0 over these
    candidates, each read by value, the one reader between the nodes; it
    counts as 0 at or below ZERO_SET_RTOL max|psi0|, the zero-set tolerance.
    argmax_set holds the candidates within FEATURE_ATOL of the largest, omega
    the zero set of psi0, and alpha0 the first zero of f in (0, 1) (None if
    f has none).
    """

    psi0: GridFunction
    integrand: Callable
    f: FunctionDescriptor

    def __post_init__(self):
        w = self.integrand
        self.__dict__["analytic"] = w if isinstance(w, FunctionDescriptor) else None
        grid, vals = self.psi0.nodes, self.psi0.values
        zeros, down = interior_zeros(self.f, grid)
        crests = zeros[down]
        where = np.concatenate(([0.0], crests, [1.0]))
        psi = np.concatenate(([vals[0]], self.value(crests), [vals[-1]]))
        M0 = float(np.max(psi))
        argmax_set = where[psi >= M0 - FEATURE_ATOL]
        scale = float(np.max(np.abs(vals)))
        if M0 <= ZERO_SET_RTOL * scale:   # also clamps a negative maximum to 0
            M0 = 0.0
        omega = grid[np.abs(vals) <= ZERO_SET_RTOL * scale]   # every node when psi0 = 0
        alpha0 = float(zeros[0]) if zeros.size else None
        self.__dict__.update(M0=M0, argmax_set=argmax_set, omega=omega, alpha0=alpha0)

    def value(self, alpha):
        """psi0 (or H0) at alpha: the closed form of `analytic` if any, else the
        sample at the node at or below alpha (the first node for alpha < 0)
        plus lobatto_cells on the partial cell from there to alpha, which is 0
        on a node; when every alpha is on one, the samples are returned as is."""
        if self.analytic is not None:
            return power_integral(self.analytic, 1.0, alpha)
        grid, vals = self.psi0.nodes, self.psi0.values
        i = np.maximum(np.searchsorted(grid, alpha, side="right") - 1, 0)
        x0, out = grid[i], vals[i]
        if not np.any(x0 != alpha):
            return out
        return out + lobatto_cells(self.integrand, np.array([x0, alpha]))[0]


def _integrand(spec: ProblemSpec, F: Nonlinearity):
    """(w, closed): w is x -> f(x) F(u0(x)), the integrand of psi0 (F = u),
    of H0 and of the compatibility defect, and closed is w as one descriptor
    when it is one, else None.  For any F a constant u0 makes it f scaled by
    the constant F(u0), or f itself when that is 1; for F = u it is also the
    product of polynomial f and u0."""
    f, u0 = spec.f, spec.u0
    w = lambda x: np.asarray(f(x)) * np.asarray(F(u0(x)))
    if u0.is_polynomial() and len(c := u0.poly_coeffs()) == 1:
        # 1/u0(0) can leave a constant u0 one rounding away from 1, and the
        # singular family cannot be rescaled
        k = float(F(c[0]))
        if k == 1.0:
            return w, f
        if f.kind != "singular_boundary":
            return w, f.scaled(k)
    if F.kind == "identity" and f.is_polynomial() and u0.is_polynomial():
        return w, polynomial(*npoly.polymul(f.poly_coeffs(), u0.poly_coeffs()))
    return w, None


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


def build_psi0(spec: ProblemSpec, method: str = "auto") -> Psi0Profile:
    """Cumulative integral psi0(alpha) = int_0^alpha f u0 dz with features.

    method "auto" takes the closed-form integral of f*u0 when it is one
    descriptor (see _integrand) and lobatto_to_nodes otherwise; "quadrature"
    forces lobatto_to_nodes (useful for convergence studies).
    """
    if method not in ("auto", "quadrature"):
        raise ValueError("method must be 'auto' or 'quadrature'")
    w, closed = _integrand(spec, Nonlinearity("identity", {}))   # psi0: F = u whatever spec.F is
    return _profile(spec, w, closed if method == "auto" else None)


def _profile(spec: ProblemSpec, w, analytic=None) -> Psi0Profile:
    """int_0^alpha w, with its features: the closed form of analytic (w as one
    descriptor) when given, else lobatto_to_nodes.  w = f u0 gives psi0."""
    grid = spec.alpha_grid()
    vals = lobatto_to_nodes(w, grid) if analytic is None else power_integral(analytic, 1.0, grid)
    if not np.all(np.isfinite(vals)):
        raise ValueError("psi0 = int f*u0 (or H0 = int f F(u0)) is not finite on [0, 1]")
    return Psi0Profile(GridFunction(grid, vals), w if analytic is None else analytic, spec.f)


# ---------------------------------------------------------------------------
# G


@dataclass(frozen=True)
class BoundaryIntegral:
    """Sampled G(t) = int_0^t g, its limit, and a monotone inverse.

    G holds samples on [0, t_max].  Between them and past them G is the
    kind's closed-form integral I plus the linear interpolant of the samples'
    offset G - I, held at its last value past t_max: 0 for a closed-form G,
    rounding for a quadrature G but before a singular end, so invert's Newton
    steps on G' = g.  G_infinity is the limit of G at the end of g's life,
    power_integral_limit(g_desc, 1), derived here; `estimated` flags one
    obtained by tail extrapolation (tables only) rather than a closed form.
    """

    G: GridFunction
    g_desc: FunctionDescriptor

    def __post_init__(self):
        G_inf, estimated = power_integral_limit(self.g_desc, 1.0)
        self.__dict__.update(G_infinity=G_inf, estimated=estimated)

    @functools.cached_property
    def offset(self) -> np.ndarray:
        """G - I at the nodes of G."""
        return self.G.values - power_integral(self.g_desc, 1.0, self.G.nodes)

    def value(self, t):
        out = power_integral(self.g_desc, 1.0, t) + np.interp(t, self.G.nodes, self.offset)
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
                                     self.g_desc.bound.end)
        return t


def data_horizon(g: FunctionDescriptor, t_max: float) -> float:
    """min(t_max, the last time g has data): the last node of a table, and
    t_b (1 - 1e-9) for the singular family, which blows up at t_b."""
    return min(t_max, g.bound.last)


def build_G(spec, t_max: float, n_t: int = 1025, method: str = "auto") -> BoundaryIntegral:
    """Strictly increasing sampled G on [0, t_max] with G(0) = 0 exact.

    Accepts a ProblemSpec or a bare FunctionDescriptor for g.  method "auto"
    samples the kind's closed form; "quadrature" integrates g by 5-point
    Gauss-Lobatto on each grid cell (lobatto_to_nodes), so every increment of a
    positive g is positive.  Both check g > 0 at the quadrature's samples, the
    nodes and each cell's inner points, so both refuse a g negative only
    between the nodes.  t_max must not pass data_horizon, the last time g has data.
    """
    desc = spec.g if isinstance(spec, ProblemSpec) else spec
    if method not in ("auto", "quadrature"):
        raise ValueError("method must be 'auto' or 'quadrature'")
    if not 0.0 < t_max < math.inf:   # nan too
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if (last := data_horizon(desc, t_max)) < t_max:
        raise ValueError(f"t_max={t_max} is past t={last:.12g}, the last time "
                         f"{desc.kind} g has data")
    t_grid = np.linspace(0.0, t_max, n_t)

    def positive_g(t):
        g = np.asarray(desc(t))
        if np.min(g) <= 0:
            raise ValueError("g must be strictly positive on [0, t_max]")
        return g
    vals = lobatto_to_nodes(positive_g, t_grid)   # the check, for either method
    if method == "auto":
        vals = np.asarray(power_integral(desc, 1.0, t_grid))
    if not np.all(np.diff(vals) > 0):
        raise ValueError("G is not strictly increasing; g must be positive")
    return BoundaryIntegral(GridFunction(t_grid, vals), desc)


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


def check_compatibility(spec: ProblemSpec, F=None) -> CompatibilityReport:
    """Defect |int_0^1 f F(u0)| and whether it vanishes.

    F is the nonlinearity of the generalized equation, spec.F by default.
    Periodic boundary values are consistent only when the defect vanishes;
    failure is reported, not raised.  The defect is exact when f F(u0) is one
    descriptor (_integrand), else lobatto_to_nodes on a fixed odd grid of at
    least 513 nodes, so it does not depend on n_alpha's parity.  The spec's
    own nodes are too few: a table F puts kinks in f F(u0), and on 128 nodes
    f = cos 2 pi alpha, u0 = 1 + 0.3 sin 2 pi alpha and the digest's table F
    read a defect of 1.2e-6, so simulate refused compatible data.
    """
    w, closed = _integrand(spec, spec.F if F is None else F)
    grid = np.linspace(0.0, 1.0, max(spec.n_alpha | 1, 513))
    defect = abs(float(lobatto_to_nodes(w, grid)[-1] if closed is None
                       else power_integral(closed, 1.0, 1.0)))
    scale = float(np.max(np.abs(w(grid))))
    ok = defect <= COMPAT_RTOL * scale if scale > 0 else True
    return CompatibilityReport(ok=ok, defect=defect)
