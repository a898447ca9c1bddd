import json
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate
from scipy import special as sp_special
from scipy.integrate import simpson

from liouville_workbench import (
    BoundaryIntegral,
    FunctionDescriptor,
    GridFunction,
    NoFiniteTime,
    ProblemSpec,
    build_G,
    build_psi0,
    catalog,
    check_compatibility,
    constant,
    exponential,
    invert_G,
    load_problem_spec,
    polynomial,
    singular_boundary,
    spec_hash,
)
from liouville_workbench import problem_model as pm


class TestGridFunction:
    def test_linear_interpolation(self):
        gf = GridFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 6.0]))
        assert gf(0.5) == 1.0
        assert gf(1.5) == 4.0
        np.testing.assert_allclose(gf([0.0, 2.0]), [0.0, 6.0])

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_csv_roundtrip(self, tmp_path):
        gf = GridFunction(np.linspace(0, 1, 5), np.arange(5.0) ** 2)
        path = tmp_path / "gf.csv"
        gf.to_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 1], gf.values, rtol=1e-12)


class TestFunctionDescriptor:
    def test_constant(self):
        c = constant(3.0)
        assert c(0.7) == 3.0
        assert c.derivative(0.7) == 0.0

    def test_polynomial_value_and_derivative(self):
        p = polynomial(1.0, 2.0)  # 1 + 2x
        assert p(0.5) == 2.0
        assert p.derivative(0.25) == 2.0
        assert p.is_polynomial()

    def test_trigonometric(self):
        d = FunctionDescriptor("trigonometric", {"offset": 0.5, "terms": [[1.0, 1.0, 0.0]]})
        assert d(0.25) == pytest.approx(1.5, abs=1e-14)  # 0.5 + sin(pi/2)
        assert d.derivative(0.0) == pytest.approx(2 * math.pi, rel=1e-12)

    def test_singular_boundary(self):
        s = singular_boundary(1.0, t_b=1.0)
        assert s(0.5) == pytest.approx(4.0, rel=1e-14)
        with pytest.raises(ValueError):
            s(1.0)
        with pytest.raises(ValueError):
            s.scaled(2.0)

    def test_exponential(self):
        e = exponential(2.0, -1.0)
        assert e(0.0) == 2.0
        assert e.derivative(0.0) == -2.0
        assert e(1.0) == pytest.approx(2.0 / math.e, rel=1e-14)

    def test_table(self):
        d = FunctionDescriptor.from_dict(
            {"kind": "table", "params": {"nodes": [0.0, 1.0], "values": [1.0, 3.0]}}
        )
        assert d(0.5) == 2.0

    def test_scaled_polynomial(self):
        p = polynomial(1.0, 2.0).scaled(2.0)
        assert p(1.0) == 6.0

    def test_dict_roundtrip(self):
        p = polynomial(0.0, 1.0, -1.0)
        again = FunctionDescriptor.from_dict(p.to_dict())
        assert again(0.3) == p(0.3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FunctionDescriptor("rational", {})


class TestProblemSpec:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            ProblemSpec(f=polynomial(-1.0, 2.0), u0=constant(1.0),
                        g=polynomial(1.0, 2.0), n_alpha=8)

    def test_rejects_vanishing_u0(self):
        with pytest.raises(ValueError):
            ProblemSpec(f=polynomial(-1.0, 2.0), u0=polynomial(1.0, -2.0),
                        g=polynomial(1.0, 2.0))

    def test_normalizes_u0_at_zero(self):
        with pytest.warns(UserWarning):
            spec = ProblemSpec(f=polynomial(-1.0, 2.0), u0=constant(2.0),
                               g=polynomial(1.0, 2.0))
        assert float(spec.u0(0.0)) == pytest.approx(1.0, rel=1e-14)
        # the rescale touches u0 only
        assert float(spec.f(1.0)) == pytest.approx(1.0, rel=1e-14)

    def test_normalizes_g_at_zero(self):
        with pytest.warns(UserWarning):
            spec = ProblemSpec(f=polynomial(-1.0, 2.0), u0=constant(1.0),
                               g=polynomial(2.0, 2.0))
        assert float(spec.g(0.0)) == pytest.approx(1.0, rel=1e-14)

    def test_rescales_singular_time_unit(self):
        with pytest.warns(UserWarning):
            spec = ProblemSpec(f=polynomial(-1.0, 2.0), u0=constant(1.0),
                               g=singular_boundary(1.0, t_b=2.0))
        assert spec.g.params["t_b"] == pytest.approx(1.0)
        assert float(spec.f(1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_alpha_grid_endpoints(self):
        spec = catalog.example_spec(2)
        grid = spec.alpha_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 513

    def test_hash_is_stable_and_distinguishes(self):
        s1, s2 = catalog.example_spec(1), catalog.example_spec(2)
        assert spec_hash(s1) == spec_hash(s1)
        assert spec_hash(s1) != spec_hash(s2)
        assert len(spec_hash(s1)) == 16

    def test_json_loader(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(catalog.example_spec_dict(2)))
        spec = load_problem_spec(path)
        assert spec.f(0.0) == 1.0 and spec.g(1.0) == 3.0

    def test_json_loader_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"f": {"kind": "constant"}}')
        with pytest.raises(ValueError):
            load_problem_spec(path)


class TestPsi0:
    def test_example2_closed_form(self, problem):
        _, profile, _ = problem(2)
        # f u0 = 1 - 2a integrates to a - a^2
        assert profile.value(0.5) == pytest.approx(0.25, abs=1e-15)
        assert profile.M0 == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(profile.argmax_set, [0.5], atol=1e-12)
        np.testing.assert_allclose(profile.omega, [0.0, 1.0], atol=1e-9)
        assert profile.alpha0 == pytest.approx(0.5, abs=1e-12)

    def test_example1_no_positive_part(self, problem):
        _, profile, _ = problem(1)
        assert profile.M0 == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(profile.omega, [0.0, 1.0], atol=1e-9)

    def test_quadrature_matches_antiderivative(self, problem):
        spec, exact, _ = problem(2)
        quad = build_psi0(spec, method="quadrature")
        diff = np.max(np.abs(quad.psi0.values - exact.psi0.values))
        assert diff <= 1e-12  # Simpson is exact on linear f*u0

    def test_offgrid_vertex_is_refined(self):
        # psi0 = 0.7a - a^2 peaks at 0.35, strictly between grid nodes
        spec = ProblemSpec(f=polynomial(0.7, -2.0), u0=constant(1.0),
                           g=polynomial(1.0, 2.0))
        profile = build_psi0(spec)
        assert profile.M0 == pytest.approx(0.1225, abs=1e-12)
        assert profile.argmax_set[0] == pytest.approx(0.35, abs=1e-10)

    def test_exact_psi0_for_any_f_when_u0_is_one(self):
        # psi0 is f's own closed-form integral: a table (trapezoids of
        # 1 - 2a are exact) and an exponential
        nodes = np.linspace(0.0, 1.0, 5)
        table = FunctionDescriptor("table", {"nodes": nodes.tolist(),
                                             "values": (1.0 - 2.0 * nodes).tolist()})
        for f, want in ((table, lambda a: a - a**2),
                        (exponential(1.0, -2.0), lambda a: -np.expm1(-2.0 * a) / 2.0)):
            spec = ProblemSpec(f=f, u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=65)
            profile = build_psi0(spec)
            assert profile.analytic is spec.f
            np.testing.assert_allclose(profile.psi0.values, want(spec.alpha_grid()),
                                       rtol=1e-14, atol=1e-16)
            assert profile.value(0.3) == pytest.approx(want(0.3), rel=1e-14)
        # u0 = 49 normalizes to 49 * (1/49) = 1 - 2^-53, still one descriptor
        with pytest.warns(UserWarning):
            spec = ProblemSpec(f=table, u0=constant(49.0), g=polynomial(1.0, 2.0), n_alpha=65)
        assert spec.u0.params["value"] != 1.0
        assert build_psi0(spec).analytic == table.scaled(spec.u0.params["value"])

    def test_quadrature_zero_positive_part_is_zero(self):
        # psi0 = -(1 - cos 2 pi a)/(2 pi) <= 0; Simpson's rounding left a
        # positive M0 of 7e-17 that used to count as a positive part
        spec = ProblemSpec(
            f=FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[-1.0, 1.0, 0.0]]}),
            u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=129)
        assert build_psi0(spec, method="quadrature").M0 == 0.0

    def test_trigonometric_profile(self):
        spec = ProblemSpec(
            f=FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[1.0, 1.0, 0.0]]}),
            u0=constant(1.0), g=polynomial(1.0, 2.0))
        profile = build_psi0(spec)
        # psi0 = (1 - cos(2 pi a)) / (2 pi), max 1/pi at a = 0.5
        assert profile.M0 == pytest.approx(1.0 / math.pi, rel=1e-9)
        assert profile.argmax_set[0] == pytest.approx(0.5, abs=1e-9)

    # f = cos(2 pi a + 0.3) crosses from + to - at a* = (pi/2 - 0.3)/(2 pi),
    # off every grid below; with u0 = 1, psi0(a*) = (1 - sin 0.3)/(2 pi)
    COS_F = FunctionDescriptor("trigonometric", {"offset": 0.0,
                                                 "terms": [[1.0, 1.0, 0.3 + math.pi / 2]]})
    COS_CREST = (math.pi / 2 - 0.3) / (2.0 * math.pi)

    @pytest.mark.parametrize("n", [32, 33, 64, 65, 129, 513, 2049])
    def test_maximum_at_the_down_crossing_whatever_n_alpha(self, n):
        spec = ProblemSpec(f=self.COS_F, u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=n)
        profile = build_psi0(spec)
        assert profile.M0 == pytest.approx((1.0 - math.sin(0.3)) / (2.0 * math.pi), abs=1e-14)
        np.testing.assert_allclose(profile.argmax_set, [self.COS_CREST], rtol=0, atol=1e-12)

    def test_maximum_when_f_u0_is_not_one_descriptor(self):
        import mpmath

        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.3, 1.0, 0.0]]})
        spec = ProblemSpec(f=self.COS_F, u0=u0, g=polynomial(1.0, 2.0), n_alpha=129)
        with mpmath.workdps(30):
            want = float(mpmath.quad(
                lambda z: mpmath.cos(2 * mpmath.pi * z + mpmath.mpf("0.3"))
                * (1 + mpmath.mpf("0.3") * mpmath.sin(2 * mpmath.pi * z)),
                [0, (mpmath.pi / 2 - mpmath.mpf("0.3")) / (2 * mpmath.pi)]))
        profile = build_psi0(spec)
        assert profile.analytic is None
        assert profile.M0 == pytest.approx(want, abs=5e-9)
        np.testing.assert_allclose(profile.argmax_set, [self.COS_CREST], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_equal_maxima_at_every_down_crossing(self, method):
        # f = sin 4 pi a: psi0 = (1 - cos 4 pi a)/(4 pi) peaks at 1/4 and 3/4,
        # both mid-cell on 64 nodes
        f = FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[1.0, 2.0, 0.0]]})
        spec = ProblemSpec(f=f, u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=64)
        profile = build_psi0(spec, method=method)
        np.testing.assert_allclose(profile.argmax_set, [0.25, 0.75], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 65, 101])
    def test_flat_top_is_one_location(self, n):
        # f is + on [0, 0.3), 0 on [0.3, 0.5] and - after: psi0 is flat on
        # [0.3, 0.5], reported once, at the first zero node
        f = FunctionDescriptor("table", {"nodes": [0.0, 0.3, 0.5, 1.0],
                                         "values": [1.0, 0.0, 0.0, -0.6]})
        spec = ProblemSpec(f=f, u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=n)
        for method in ("auto", "quadrature"):
            profile = build_psi0(spec, method=method)
            assert profile.argmax_set.size == 1
            assert 0.3 <= profile.argmax_set[0] <= 0.5
            assert profile.alpha0 == profile.argmax_set[0]


class TestBoundaryIntegral:
    def test_polynomial_closed_form(self, problem):
        _, _, B = problem(1)
        assert B.value(1.0) == pytest.approx(2.0, abs=1e-14)  # t^2 + t
        assert B.value(10.0) == pytest.approx(110.0, rel=1e-14)
        assert math.isinf(B.G_infinity)
        assert not B.estimated

    def test_singular_closed_form(self):
        B = build_G(singular_boundary(1.0), t_max=0.999)
        assert B.value(0.75) == pytest.approx(3.0, rel=1e-12)  # 1/(1-t) - 1
        assert math.isinf(B.G_infinity)

    def test_exponential_limit(self):
        B = build_G(exponential(1.0, -1.0), t_max=20.0)
        assert B.G_infinity == pytest.approx(1.0, rel=1e-14)
        assert invert_G(B, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)
        with pytest.raises(NoFiniteTime):
            invert_G(B, 1.0)

    def test_invert_polynomial(self, problem):
        _, _, B = problem(1)
        assert invert_G(B, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_invert_singular(self):
        B = build_G(singular_boundary(1.0), t_max=0.999)
        assert invert_G(B, 3.0) == pytest.approx(0.75, rel=1e-12)

    def test_invert_quadrature(self, problem):
        spec, _, _ = problem(1)
        B = build_G(spec, t_max=3.0, method="quadrature")
        assert invert_G(B, 2.0) == pytest.approx(1.0, rel=1e-6)

    def test_quadrature_beyond_samples_rejected(self):
        # a table has no data past its last node, so G cannot be continued there
        table = FunctionDescriptor(
            "table", {"nodes": [0.0, 1.0, 2.0], "values": [1.0, 2.0, 3.0]})
        B = build_G(table, t_max=2.0, method="quadrature")
        with pytest.raises(ValueError):
            invert_G(B, B.value(2.0) + 1.0)
        with pytest.raises(ValueError):
            B.value(2.5)

    def test_quadrature_continues_past_samples(self, problem):
        # G = t^2 + t: past t_max the samples continue by the closed form
        spec, _, _ = problem(1)
        B = build_G(spec, t_max=2.0, method="quadrature")
        assert B.value(3.0) == pytest.approx(12.0, rel=1e-13)
        assert invert_G(B, 12.0) == pytest.approx(3.0, rel=1e-13)

    def test_rejects_t_max_past_boundary(self):
        with pytest.raises(ValueError):
            build_G(singular_boundary(1.0), t_max=1.0)

    def test_data_horizon(self):
        table = FunctionDescriptor("table", {"nodes": [0.0, 1.0, 5.0], "values": [1.0, 2.0, 6.0]})
        assert pm.data_horizon(table, 10.0) == 5.0
        assert pm.data_horizon(table, 2.0) == 2.0
        assert pm.data_horizon(singular_boundary(1.0, t_b=2.0), 10.0) == 2.0 * (1.0 - 1e-9)
        assert pm.data_horizon(polynomial(1.0, 2.0), 1e6) == 1e6
        with pytest.raises(ValueError, match="last time table g has data"):
            build_G(table, t_max=10.0)

    def test_rejects_nonpositive_g(self):
        table = FunctionDescriptor(
            "table", {"nodes": [0.0, 1.0, 2.0], "values": [1.0, 0.5, -0.5]})
        with pytest.raises(ValueError):
            build_G(table, t_max=2.0)

    def test_tail_estimate_is_flagged(self):
        nodes = np.linspace(0.0, 20.0, 2001)
        table = FunctionDescriptor(
            "table", {"nodes": nodes.tolist(), "values": np.exp(-nodes).tolist()})
        B = build_G(table, t_max=20.0)
        assert B.estimated
        assert B.G_infinity == pytest.approx(1.0, rel=1e-2)


    def test_trigonometric_closed_form_matches_simpson(self):
        # the k = 0 term is the constant 0.3 sin(0.7)
        g = FunctionDescriptor("trigonometric", {
            "offset": 1.0, "terms": [[0.5, 0.25, 1.0], [-0.2, 1.5, 0.3], [0.3, 0.0, 0.7]]})
        B = build_G(g, t_max=7.0)
        assert not B.estimated and math.isinf(B.G_infinity)
        for t in (0.3, 2.5, 7.0, 40.0):
            s = np.linspace(0.0, t, 200001)
            want = simpson(g(s), x=s)
            assert B.value(t) == pytest.approx(want, rel=1e-12)


_TRIG_G = {"offset": 1.0, "terms": [[0.5, 0.25, 1.0], [-0.2, 1.5, 0.3], [0.3, 0.0, 0.7]]}
_TABLE_G = {"nodes": [0.0, 0.4, 1.1, 1.7, 3.0, 5.0], "values": [1.0, 2.5, 0.7, 1.9, 1.2, 3.0]}


def _trig_mp(s):
    return 1 + sum(a * mpmath.sin(2 * mpmath.pi * k * s + ph) for a, k, ph in _TRIG_G["terms"])


def _table_mp(s):
    nodes, values = _TABLE_G["nodes"], _TABLE_G["values"]
    i = min(int(np.searchsorted(nodes, float(s), side="right")) - 1, len(nodes) - 2)
    a, b = mpmath.mpf(nodes[i]), mpmath.mpf(nodes[i + 1])
    return values[i] + (values[i + 1] - values[i]) * (s - a) / (b - a)


class TestDenseFallback:
    """int_0^t g^p for the kinds and powers without a closed form, against
    30-digit quadrature split at the table nodes."""

    @pytest.mark.parametrize("g, power, g_mp, ts, rtol", [
        (FunctionDescriptor("trigonometric", _TRIG_G), 2.0, _trig_mp, (0.3, 2.5, 7.0), 3.7e-11),
        (polynomial(1.0, 2.0), 1.5, lambda s: 1 + 2 * s, (0.5, 1.0, 2.0), 1.6e-15),
        (FunctionDescriptor("table", _TABLE_G), 2.0, _table_mp, (0.3, 1.0, 2.9, 5.0), 4.0e-6),
    ], ids=["trigonometric", "polynomial", "table"])
    def test_matches_mpmath(self, g, power, g_mp, ts, rtol):
        # rtol is ten times the error of composite Simpson on the same 4097
        # samples (3.7e-12, 1.6e-16 and 4.0e-7); the table's kinks inside
        # Simpson cells set its error
        with mpmath.workdps(30):
            want = np.array([
                float(mpmath.quad(lambda s: g_mp(s) ** power,
                                  [0.0, *(x for x in _TABLE_G["nodes"] if 0.0 < x < t), t]))
                for t in ts])
        got = pm.power_integral(g, power, np.array(ts))
        assert np.max(np.abs(got - want) / want) <= rtol
        assert [float(pm.power_integral(g, power, t)) for t in ts] == got.tolist()


class _CountingDescriptor:
    """A descriptor that counts its derivative calls."""

    def __init__(self, desc):
        self.desc, self.slopes = desc, 0

    def __call__(self, x):
        return self.desc(x)

    def derivative(self, x):
        self.slopes += 1
        return self.desc.derivative(x)


class TestInverter:
    @pytest.mark.parametrize("n", [257, 513, 1025])
    def test_first_zero_from_the_crossing_cell(self, n):
        # the zero 0.9622837... sits mid-cell; Newton from the cell's chord
        # point converges in a few steps at every grid size
        f = _CountingDescriptor(polynomial(-1.8, 2.65, -0.81))
        exact = (2.65 - math.sqrt(2.65**2 - 4.0 * 1.8 * 0.81)) / (2.0 * 0.81)
        zeros, _ = pm.interior_zeros(f, np.linspace(0.0, 1.0, n))
        assert zeros[0] == pytest.approx(exact, rel=4e-16)
        assert f.slopes <= 4

    def test_interior_zeros_in_order_with_their_crossings(self):
        # f = (a - 1/4)(a - 1/2)(a - 3/4) goes up, down, up: mid-cell on 12
        # nodes, and exactly at the nodes on 9 (the zero samples are exact)
        f = polynomial(*np.polynomial.polynomial.polyfromroots([0.25, 0.5, 0.75]))
        zeros, down = pm.interior_zeros(f, np.linspace(0.0, 1.0, 12))
        np.testing.assert_allclose(zeros, [0.25, 0.5, 0.75], rtol=0, atol=1e-15)
        assert down.tolist() == [False, True, False]
        zeros, down = pm.interior_zeros(f, np.linspace(0.0, 1.0, 9))
        assert zeros.tolist() == [0.25, 0.5, 0.75] and down.tolist() == [False, True, False]
        # a run of zero nodes counts once, and f = 0 has no zeros to report
        table = FunctionDescriptor("table", {"nodes": [0.0, 0.3, 0.5, 1.0],
                                             "values": [1.0, 0.0, 0.0, 1.0]})
        zeros, down = pm.interior_zeros(table, np.linspace(0.0, 1.0, 11))
        assert zeros.tolist() == [0.30000000000000004] and down.tolist() == [False]
        assert pm.interior_zeros(constant(0.0), np.linspace(0.0, 1.0, 11))[0].size == 0

    @pytest.mark.parametrize("g, t_max", [(exponential(1.0, 0.7), 5.0),
                                          (exponential(1.0, -0.4), 5.0),
                                          (singular_boundary(1.0), 0.99),
                                          (singular_boundary(0.5), 0.999)])
    def test_node_values_round_trip(self, g, t_max):
        # the bracket comes from the sampled G, whose array evaluation can
        # differ from the scalar closed form by an ulp; the copies nudged one
        # ulp either way have that mismatch at every node
        B = build_G(g, t_max=t_max, n_t=257)
        for nudge in (None, math.inf, -math.inf):
            vals = B.G.values.copy() if nudge is None else np.nextafter(B.G.values, nudge)
            vals[0] = 0.0   # G(0) = 0 stays exact
            C = BoundaryIntegral(G=GridFunction(B.G.nodes, vals), G_infinity=B.G_infinity,
                                 g_desc=g)
            ts = C.invert(vals)
            assert np.all(np.abs(C.value(ts) - vals) <= pm.INVERT_RTOL * (1.0 + vals))
            np.testing.assert_array_equal(ts, [invert_G(C, y) for y in vals])


class TestCompatibility:
    def test_examples_are_compatible(self, problem):
        for k in (1, 2, 3, 4):
            spec, _, _ = problem(k)
            report = check_compatibility(spec)
            assert report.ok
            assert report.defect <= 1e-12
            assert report.sign_change

    def test_one_signed_f_fails(self):
        spec = ProblemSpec(f=constant(1.0), u0=constant(1.0), g=polynomial(1.0, 2.0))
        report = check_compatibility(spec)
        assert not report.ok
        assert not report.sign_change


class TestScipyParity:
    """The numpy kernels against scipy, which the test extra keeps as the reference."""

    @pytest.mark.parametrize("n", [3, 4, 257, 258, 513, 2049])
    def test_cumulative_simpson_is_bitwise_scipy(self, n):
        rng = np.random.default_rng(n)
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        h = 1.0 / (n - 1)
        out = np.empty(n)
        assert pm.cumulative_simpson(y, h, out=out) is out
        np.testing.assert_array_equal(out, sp_integrate.cumulative_simpson(y, dx=h, initial=0.0))

    def test_exprel_matches_scipy(self):
        x = np.array([0.0, 1e-310, -1e-310, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0,
                      700.0, -700.0, np.inf, -np.inf, np.nan])
        np.testing.assert_allclose(pm.exprel(x), sp_special.exprel(x), rtol=4 * np.finfo(float).eps)
        assert pm.exprel(0.0) == 1.0 and pm.exprel(np.inf) == np.inf

    @pytest.mark.parametrize("q", [0.6, 1.0, 2.0, 5.0])
    def test_math_gamma_matches_scipy(self, q):
        for z in (1.0 + 1.0 / q, 2.0 - 1.0 / q):
            assert math.gamma(z) == pytest.approx(float(sp_special.gamma(z)),
                                                  rel=4 * np.finfo(float).eps)


def test_write_csv_matches_per_row_formatting(tmp_path):
    # enough rows for several formatting blocks
    vals = np.tile([0.0, -0.0, 1.5e-300, -2.5e300, np.inf, -np.inf, np.nan, 1.0 / 3.0], 300)
    flags = vals > 0
    labels = [f"r{i}" for i in range(vals.size)]
    path = tmp_path / "rows.csv"
    pm.write_csv(path, "note", "v,flag,label", "%.12e,%d,%s", (vals, flags, labels))
    want = "# note\nv,flag,label\n" + "".join(
        f"{v:.12e},{int(b)},{s}\n" for v, b, s in zip(vals, flags, labels))
    assert path.read_text() == want
