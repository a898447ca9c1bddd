"""Property tests for the structural invariants the analysis rests on."""

import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from liouville_workbench import (
    FunctionDescriptor,
    GridFunction,
    ProblemSpec,
    build_G,
    build_psi0,
    constant,
    evaluate_field,
    exponential,
    identity_F,
    integrate_general,
    invert_G,
    jump_transport,
    load_problem_spec,
    lp_norm,
    polynomial,
    power_F,
    power_integral,
    schwarzian,
    singular_boundary,
    spec_hash,
    table_F,
)
from liouville_workbench.problem_model import INVERT_RTOL

COMMON = dict(max_examples=25, derandomize=True, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def positive_linear_g(draw):
    c0 = draw(st.floats(0.5, 2.0))
    c1 = draw(st.floats(0.0, 3.0))
    return polynomial(c0, c1)


@st.composite
def balanced_quadratic_f(draw):
    # f = a (1 - 2x) + b (x - x^2)' scaled pieces all integrate to zero
    a = draw(st.floats(-2.0, 2.0))
    b = draw(st.floats(-2.0, 2.0))
    assume(abs(a) + abs(b) > 0.1)
    # a (1 - 2x) + b (1 - 6x + 6x^2); both terms have zero mean
    return polynomial(a + b, -2.0 * a - 6.0 * b, 6.0 * b)



@st.composite
def positive_g(draw):
    """Positive boundary data of every descriptor kind."""
    kind = draw(st.sampled_from(["constant", "polynomial", "trigonometric",
                                 "singular_boundary", "table", "exponential"]))
    if kind == "constant":
        return constant(draw(st.floats(0.5, 2.0)))
    if kind == "polynomial":
        return polynomial(draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 3.0)),
                          draw(st.floats(0.0, 1.0)))
    if kind == "trigonometric":
        offset = draw(st.floats(1.0, 2.0))
        terms = draw(st.lists(st.tuples(st.floats(-0.45, 0.45), st.floats(0.1, 2.0),
                                        st.floats(0.0, 2.0 * math.pi)),
                              min_size=1, max_size=2))
        return FunctionDescriptor("trigonometric", {
            "offset": offset, "terms": [[a * offset, k, ph] for a, k, ph in terms]})
    if kind == "singular_boundary":
        return singular_boundary(draw(st.floats(0.3, 2.0)), draw(st.floats(0.5, 2.0)))
    if kind == "table":
        steps = draw(st.lists(st.floats(0.2, 2.0), min_size=2, max_size=7))
        values = draw(st.lists(st.floats(0.2, 3.0), min_size=len(steps) + 1,
                               max_size=len(steps) + 1))
        nodes = np.concatenate(([0.0], np.cumsum(steps)))
        return FunctionDescriptor("table", {"nodes": nodes.tolist(), "values": values})
    return exponential(draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0)))


@st.composite
def nonlinearity(draw):
    """F of each kind: u, u^p, and k u^1.5 tabulated on geometric nodes (c = 1, d = 2)."""
    kind = draw(st.sampled_from(["identity", "power", "table"]))
    if kind == "identity":
        return identity_F()
    if kind == "power":
        return power_F(draw(st.floats(0.1, 5.0)))
    nodes = draw(st.floats(1e-3, 1.0)) * draw(st.floats(1.5, 4.0)) ** np.arange(draw(st.integers(2, 12)))
    return table_F(nodes, draw(st.floats(0.1, 10.0)) * nodes ** 1.5, 1.0, 2.0)


class TestAccumulators:
    @given(g=positive_linear_g(), frac=st.floats(0.01, 0.99))
    @settings(**COMMON)
    def test_invert_G_round_trips(self, g, frac):
        B = build_G(g, t_max=5.0)
        target = frac * float(B.value(5.0))
        t = invert_G(B, target)
        assert abs(float(B.value(t)) - target) <= 1e-10 * (1.0 + target)

    @given(g=positive_g(), method=st.sampled_from(["auto", "quadrature"]),
           fracs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    @settings(**COMMON)
    def test_inverse_round_trips_every_kind(self, g, method, fracs):
        # targets up to G at the end of g's data, or twice past the sampled
        # window when g lives forever
        end = g.params.get("t_b", g.params.get("nodes", [math.inf])[-1])
        t_max = 0.9 * end if math.isfinite(end) else 5.0
        t_far = 0.99 * end if math.isfinite(end) else 2.0 * t_max
        B = build_G(g, t_max=t_max, method=method)
        ys = np.array(fracs) * B.value(t_far)
        ts = B.invert(ys)
        assert np.all(np.abs(B.value(ts) - ys) <= INVERT_RTOL * (1.0 + ys))
        np.testing.assert_array_equal(ts, [invert_G(B, y) for y in ys])

    @given(g=positive_g(), fracs=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    @settings(**COMMON)
    def test_auto_G_is_the_closed_form_bit_for_bit(self, g, fracs):
        # the interpolated offset of a closed-form G is 0, inside and past t_max
        end = g.params.get("t_b", g.params.get("nodes", [math.inf])[-1])
        t_max = 0.5 * end if math.isfinite(end) else 5.0
        t_far = 0.99 * end if math.isfinite(end) else 2.0 * t_max
        B = build_G(g, t_max=t_max)
        ts = np.array(fracs) * t_far
        assert B.value(ts).tobytes() == power_integral(g, 1.0, ts).tobytes()
        for t in ts.tolist():
            assert B.value(t) == power_integral(g, 1.0, t)

    @given(f=balanced_quadratic_f())
    @settings(**COMMON)
    def test_quadrature_psi0_tracks_antiderivative(self, f):
        spec = ProblemSpec(f=f, u0=constant(1.0), g=polynomial(1.0, 2.0))
        exact = build_psi0(spec)
        quad = build_psi0(spec, method="quadrature")
        assert np.max(np.abs(exact.psi0.values - quad.psi0.values)) <= 1e-8
        assert exact.psi0.values[0] == 0.0 == quad.psi0.values[0]

    @given(f=balanced_quadratic_f())
    @settings(**COMMON)
    def test_psi0_vanishes_at_both_ends(self, f):
        spec = ProblemSpec(f=f, u0=constant(1.0), g=polynomial(1.0, 2.0))
        profile = build_psi0(spec)
        assert profile.value(0.0) == 0.0
        assert abs(profile.value(1.0)) <= 1e-12


class TestSpecDocument:
    @given(g=positive_g(), F=nonlinearity())
    @settings(**COMMON)
    def test_json_round_trip_keeps_spec_and_hash(self, g, F):
        with warnings.catch_warnings():   # g(0) or t_b other than 1 is rescaled, with a warning
            warnings.simplefilter("ignore")
            spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=g, n_alpha=65, F=F)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(spec.to_dict()))
            again = load_problem_spec(path)
        assert again == spec and again.F == F
        assert spec_hash(again) == spec_hash(spec)


class TestFieldMask:
    @given(t=st.floats(0.0, 6.0))
    @settings(**COMMON)
    def test_mask_equals_denominator_rule(self, t, problem):
        spec, profile, B = problem(2)
        alphas = np.linspace(0.0, 1.0, 101)
        fld = evaluate_field(profile, B, spec, alphas, np.array([t]))
        D = 1.0 - 0.5 * profile.value(alphas) * float(B.value(t))
        np.testing.assert_array_equal(fld.singular_mask[0], D <= 1e-8)

    @given(t=st.floats(0.0, 2.0), j=st.floats(0.05, 2.0))
    @settings(**COMMON)
    def test_jump_transport_is_linear_in_size(self, t, j, problem):
        spec, profile, B = problem(2)
        unit = jump_transport(profile, B, spec, 0.3, 1.0, "alpha", t=t)
        scaled = jump_transport(profile, B, spec, 0.3, j, "alpha", t=t)
        assert scaled == pytest.approx(j * unit, rel=1e-12)


class TestNorms:
    @given(t=st.floats(0.0, 2.0), p=st.floats(1.0, 8.0))
    @settings(**COMMON)
    def test_lp_below_sup_norm(self, t, p, problem):
        spec, profile, B = problem(2)
        alphas = np.linspace(0.0, 1.0, 513)
        fld = evaluate_field(profile, B, spec, alphas, np.array([t]))
        assert lp_norm(fld, p, t) <= lp_norm(fld, math.inf, t) * (1.0 + 1e-12)


class TestSchwarzianInvariance:
    @given(a=st.floats(0.5, 2.0), b=st.floats(0.0, 1.0),
           c=st.floats(0.0, 0.8), d=st.floats(1.0, 2.0))
    @settings(**COMMON)
    def test_moebius_kernel(self, a, b, c, d):
        assume(a * d - b * c > 0.1)  # increasing, well away from degenerate
        t = np.linspace(0.0, 0.9, 129)
        G = (a * t + b) / (c * t + d)
        S = schwarzian(GridFunction(t, G))
        assert np.max(np.abs(S.values)) <= 1e-5

    @given(a=st.floats(0.5, 2.0), b=st.floats(0.0, 1.0),
           c=st.floats(0.0, 0.8), d=st.floats(1.0, 2.0))
    @settings(**COMMON)
    def test_moebius_post_composition_preserves_S(self, a, b, c, d):
        # S[(a G + b)/(c G + d)] = S[G] for any increasing G
        assume(a * d - b * c > 0.1)
        t = np.linspace(0.0, 1.0, 257)
        G = t**2 + t
        lhs = schwarzian(GridFunction(t, (a * G + b) / (c * G + d)))
        rhs = schwarzian(GridFunction(t, G))
        inner = slice(3, -3)
        assert np.max(np.abs(lhs.values[inner] - rhs.values[inner])) <= 1e-4


class TestGeneralizedOracle:
    @given(p=st.floats(0.6, 2.5))
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_power_nonlinearity_has_exact_solution(self, p):
        # for F = u^p the two-sided envelopes coincide, giving a closed form
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                           g=polynomial(1.0, 2.0), n_alpha=65)
        traj = integrate_general(spec, power_F(p), t_end=0.3, dt=2e-3)
        t = traj.times[-1]
        H0 = traj.alpha - traj.alpha**2
        gp = ((2.0 * t + 1.0) ** (p + 1.0) - 1.0) / (2.0 * (p + 1.0))
        want = (2.0 * t + 1.0) * (1.0 - 0.5 * p * H0 * gp) ** (-2.0 / p)
        rel = np.max(np.abs(traj.u[-1] - want) / want)
        assert rel <= 1e-5

    @given(k=st.floats(0.1, 10.0), p=st.floats(0.1, 3.0), start=st.floats(1e-3, 100.0),
           ratio=st.floats(1.0001, 4.0), n=st.integers(2, 64))
    @settings(**COMMON)
    def test_tabulated_power_is_the_power(self, k, p, start, ratio, n):
        # k u^p on geometric nodes in [1e-3, 1e3], read linearly in ln u and ln F,
        # is u^p on every segment: accepted with c = d = p, and k u^p between its
        # nodes up to exp's rounding of ln F (eps |ln F|, |ln F| <= 23 here)
        nodes = start * ratio ** np.arange(n)
        nodes = nodes[:max(2, np.count_nonzero(nodes <= 1e3))]
        F = table_F(nodes, k * nodes ** p, p, p)
        assert F.c == F.d == p
        u = np.geomspace(nodes[0], nodes[-1], 257)
        np.testing.assert_allclose(F(u), k * u ** p, rtol=1e-14, atol=0.0)

    @given(dt=st.floats(5e-4, 5e-3))
    @settings(max_examples=8, derandomize=True, deadline=None)
    def test_identity_drift_independent_of_dt(self, dt, problem):
        spec, _, _ = problem(2, n_alpha=65)
        traj = integrate_general(spec, identity_F(), t_end=0.2, dt=dt)
        assert np.max(traj.drift_rel_dense) <= 1e-9
