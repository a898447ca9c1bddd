import dataclasses
import json
import math
import os
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import integrate as sp_integrate
from scipy import special as sp_special
from scipy.integrate import simpson

from liouville_workbench import (
    BoundaryIntegral,
    FunctionDescriptor,
    GridFunction,
    NoFiniteTime,
    Nonlinearity,
    ProblemSpec,
    build_G,
    build_psi0,
    catalog,
    check_compatibility,
    constant,
    exponential,
    identity_F,
    invert_G,
    load_problem_spec,
    polynomial,
    power_F,
    singular_boundary,
    spec_hash,
    table_F,
)
from liouville_workbench import problem_model as pm
from liouville_workbench.closed_form_solver import singular_curve


_COS = FunctionDescriptor("trigonometric", {"terms": [[1.0, 1.0, math.pi / 2]]})   # cos 2 pi a
_ONE_OF_EACH_KIND = [   # (descriptor, a range it has data on)
    (constant(2.0), 0.0, 1.0),
    (polynomial(1.0, -2.0, 0.5, 3.0), -1.0, 2.0),
    (FunctionDescriptor("trigonometric", {"offset": 2.0, "terms": [[0.7, 1.0, 0.2], [0.3, 3.0]]}), 0.0, 3.0),
    (singular_boundary(0.7, t_b=2.0), 0.0, 1.99),
    (FunctionDescriptor("table", {"nodes": [0.0, 1.0, 2.5, 4.0], "values": [1.0, 3.0, 0.5, 2.0]}), 0.0, 4.0),
    (exponential(1.7, -0.3), 0.0, 10.0),
]


class TestGridFunction:
    def test_linear_interpolation(self):
        gf = GridFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 6.0]))
        assert gf(0.5) == 1.0
        assert gf(1.5) == 4.0
        np.testing.assert_allclose(gf([0.0, 2.0]), [0.0, 6.0])

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_slope_of_the_cell_holding_x(self):
        gf = GridFunction(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 6.0]))
        # a node takes the cell it starts; past the ends, the end cells
        np.testing.assert_array_equal(gf.slope([-1.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                                      [2.0, 2.0, 4.0, 4.0, 4.0, 4.0])
        assert gf.slope(0.25) == 2.0

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

    @pytest.mark.parametrize("kind, params, missing", [
        ("constant", {}, "value"),
        ("polynomial", {}, "coeffs"),
        ("trigonometric", {"offset": 1.0}, "terms"),
        ("singular_boundary", {"t_b": 1.0}, "beta"),
        ("table", {"nodes": [0.0, 1.0]}, "values"),
        ("exponential", {"amplitude": 1.0}, "rate"),
    ])
    def test_missing_param_key_is_malformed(self, kind, params, missing):
        with pytest.raises(ValueError, match=f"malformed {kind} params: '{missing}'"):
            FunctionDescriptor(kind, params)

    @pytest.mark.parametrize("desc, lo, hi", _ONE_OF_EACH_KIND, ids=lambda v: getattr(v, "kind", None))
    def test_bound_float_read_is_the_descriptor_read(self, desc, lo, hi):
        # the integrator reads g through the bound kind on floats, the rest of
        # the code through the descriptor, which reads a 0-d array
        ts = [lo, hi] + np.random.default_rng(3).uniform(lo, hi, 200).tolist()
        for t in ts:
            assert float(desc.bound.value(t)) == desc(np.array(t)) == desc(t)
            assert float(desc.bound.derivative(t)) == desc.derivative(np.array(t)) == desc.derivative(t)

    @pytest.mark.parametrize("desc, lo, hi", _ONE_OF_EACH_KIND, ids=lambda v: getattr(v, "kind", None))
    def test_scaled_is_the_pointwise_product(self, desc, lo, hi):
        ts, before = np.linspace(lo, hi, 101), desc.to_dict()
        if desc.kind == "singular_boundary":
            with pytest.raises(ValueError, match="cannot rescale"):
                desc.scaled(2.5)
            return
        for k in (2.5, -0.75, 1.0 / 3.0):
            want = k * desc(ts)
            np.testing.assert_allclose(desc.scaled(k)(ts), want, rtol=1e-15, atol=1e-15 * np.max(np.abs(want)))
        assert desc.scaled(1.0) == desc and desc.to_dict() == before


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

    def test_rejects_u0_that_differs_at_the_ends(self):
        # u(0, t) = u(1, t) = g(t) meets u0 at t = 0 at both ends
        with pytest.raises(ValueError, match=r"u0\(1\) = 1.5 must equal u0\(0\) = 1"):
            ProblemSpec(f=_COS, u0=polynomial(1.0, 0.5), g=polynomial(1.0, 2.0))

    def test_accepts_periodic_u0(self):
        # u0(1) = 1 + 0.3 sin 2 pi is 1 to rounding
        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.3, 1.0, 0.0]]})
        spec = ProblemSpec(f=_COS, u0=u0, g=polynomial(1.0, 2.0))
        assert spec.u0 == u0

    def test_alpha_grid_endpoints(self):
        spec = catalog.example_spec(2)
        grid = spec.alpha_grid()
        assert grid[0] == 0.0 and grid[-1] == 1.0 and len(grid) == 513

    def test_hash_is_stable_and_distinguishes(self):
        s1, s2 = catalog.example_spec(1), catalog.example_spec(2)
        assert spec_hash(s1) == spec_hash(s1)
        assert spec_hash(s1) != spec_hash(s2)
        assert len(spec_hash(s1)) == 16

    def test_hash_covers_F_and_keeps_the_F_u_hash(self):
        # F = u writes no "general" block: its hash covers f, u0, g and n_alpha alone
        spec = catalog.example_spec(2, n_alpha=129)
        assert spec.F == identity_F() and "general" not in spec.to_dict()
        assert spec_hash(spec) == "9ccba7a331656475"
        table = table_F([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 1.0, 1.0)
        hashes = [spec_hash(dataclasses.replace(spec, F=F)) for F in (identity_F(), power_F(2.0), table)]
        assert hashes[0] == spec_hash(spec) and len(set(hashes)) == 3

    def test_json_loader_reads_F(self, tmp_path):
        # the general block's F, a table read from JSON lists equal to the one table_F builds
        block = {"kind": "table", "nodes": [0.5, 1, 2], "values": [0.5, 1, 2], "c": 1, "d": 1}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**catalog.example_spec(2).to_dict(), "general": {"F": block}}))
        spec = load_problem_spec(path)
        assert spec.F == table_F([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 1.0, 1.0) == Nonlinearity.from_dict(block)
        assert spec.F.params["nodes"] == (0.5, 1.0, 2.0)
        assert spec.to_dict()["general"] == {"F": {**block, "nodes": (0.5, 1.0, 2.0),
                                                   "values": (0.5, 1.0, 2.0), "c": 1.0, "d": 1.0}}
        for general in ({}, {"F": {}}):   # an object without F, or an F without kind, is F = u
            path.write_text(json.dumps({**catalog.example_spec(2).to_dict(), "general": general}))
            assert load_problem_spec(path) == catalog.example_spec(2)

    def test_json_loader(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(catalog.example_spec(2).to_dict()))
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
        assert diff <= 1e-12  # the cell rule is exact on linear f*u0

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

    def test_value_between_nodes_without_a_closed_form(self):
        # f u0 = cos(2 pi a) (1 + 0.3 sin 2 pi a) is not one descriptor: value
        # is the node sample plus the cell rule on the partial cell, not a
        # chord (5.8e-5 off mid-cell), and below 0 it integrates back from
        # the first node instead of wrapping to the last cell
        import mpmath

        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.3, 1.0, 0.0]]})
        spec = ProblemSpec(f=_COS, u0=u0, g=polynomial(1.0, 2.0), n_alpha=129)
        profile = build_psi0(spec)
        assert profile.analytic is None

        def want(a):
            with mpmath.workdps(30):
                return float(mpmath.quad(lambda z: mpmath.cos(2 * mpmath.pi * z)
                                         * (1 + mpmath.mpf("0.3") * mpmath.sin(2 * mpmath.pi * z)),
                                         [0, a]))
        grid = spec.alpha_grid()
        mid = 0.5 * (grid[:-1] + grid[1:])[::8]
        np.testing.assert_allclose(profile.value(mid), [want(a) for a in mid], rtol=0, atol=1e-8)
        assert [profile.value(a) for a in mid.tolist()] == profile.value(mid).tolist()
        for a in (-0.05, 1.05):
            assert profile.value(a) == pytest.approx(want(a), abs=1e-6)
        assert profile.value(grid).tobytes() == profile.psi0.values.tobytes()
        # on a node the partial cell has zero width: the sample, and no integrand call
        calls = []
        counted = dataclasses.replace(
            profile, integrand=lambda x, w=profile.integrand: calls.append(x) or w(x))
        assert counted.value(grid).tobytes() == profile.psi0.values.tobytes()
        assert counted.value(float(grid[7])) == profile.psi0.values[7]
        assert calls == []

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

    @pytest.mark.parametrize("n_t", [257, 1025])
    def test_quadrature_t_star_exponential(self, n_t):
        # G = 2 (e^(t/2) - 1) reaches 8 at t = 2 ln 5; reading G between its
        # samples by linear interpolation missed it by 4.9e-7 and 1.2e-7
        B = build_G(exponential(1.0, 0.5), t_max=4.0, n_t=n_t, method="quadrature")
        assert abs(invert_G(B, 8.0) - 2.0 * math.log(5.0)) <= 1e-10

    def test_quadrature_t_star_example2(self):
        # G = t^2 + t is exact at the nodes and off them; linear interpolation missed by 1.2e-6
        spec = catalog.example_spec(2)
        B = build_G(spec, t_max=10.0, method="quadrature")
        M0 = build_psi0(spec, method="quadrature").M0
        assert abs(invert_G(B, 2.0 / M0) - (math.sqrt(33.0) - 1.0) / 2.0) <= 1e-12

    def test_quadrature_continuous_across_t_max(self):
        # one ulp of t either side of t_max moves G by about 2 ulps of G
        B = build_G(exponential(1.0, 0.5), t_max=4.0, n_t=257, method="quadrature")
        G_end = B.G.values[-1]
        ts = [np.nextafter(4.0, 0.0), 4.0, np.nextafter(4.0, 5.0)]
        assert np.all(np.abs(B.value(ts) - G_end) <= 8.0 * pm._EPS * G_end)

    @pytest.mark.parametrize("t_max", [0.999, 1.0 - 1e-9])
    def test_quadrature_newton_steps_on_the_offset_slope(self, t_max, monkeypatch):
        # example 4's curve: Newton on the slope g takes the quadrature G in as
        # few evaluations of G as the closed form (under Simpson's rule, whose
        # offset has a slope, g alone took 8 against 5 at t_max = 0.999, and 7
        # against 4 at 1 - 1e-9)
        spec = catalog.example_spec(4)
        profile = build_psi0(spec)
        value, counts = BoundaryIntegral.value, []
        monkeypatch.setattr(BoundaryIntegral, "value",
                            lambda self, t: counts.append(1) or value(self, t))
        for method in ("auto", "quadrature"):
            B = build_G(spec, t_max=t_max, method=method)
            counts.clear()
            singular_curve(profile, B)
            if method == "auto":
                auto = len(counts)
        assert len(counts) <= auto

    def test_quadrature_G_increases_in_every_cell(self):
        # example 4 up to 1 - 1e-9: the last cell's rule errs upward, so the offset
        # G - I rises across it and G increases everywhere (4-point Gauss-Legendre,
        # which never samples the end, made the offset fall by 1e9 in that cell)
        spec = catalog.example_spec(4)
        B = build_G(spec, t_max=1.0 - 1e-9, method="quadrature")
        nodes = B.G.nodes
        s = np.linspace(0.0, 1.0, 33)
        for lo, hi in zip(nodes[:-1], nodes[1:]):
            assert np.all(np.diff(B.value(lo + s * (hi - lo))) > 0), (lo, hi)

    def test_quadrature_G_has_slope_g(self):
        # g matches the quadrature G's centred difference inside a cell, and
        # at and past t_max, where the offset is held at its last value
        g = exponential(1.0, 0.5)
        B = build_G(g, t_max=4.0, n_t=9, method="quadrature")
        for t in (0.3, 1.7, 3.9, 4.0, 5.0):
            d = 1e-6
            assert float(g(np.array(t))) == pytest.approx(
                (B.value(t + d) - B.value(t - d)) / (2.0 * d), rel=1e-8)

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
        (FunctionDescriptor("trigonometric", _TRIG_G), 2.0, _trig_mp, (0.3, 2.5, 7.0), 1.7e-15),
        (polynomial(1.0, 2.0), 1.5, lambda s: 1 + 2 * s, (0.5, 1.0, 2.0), 1.6e-15),
        (FunctionDescriptor("table", _TABLE_G), 2.0, _table_mp, (0.3, 1.0, 2.9, 5.0), 2.1e-15),
    ], ids=["trigonometric", "polynomial", "table"])
    def test_matches_mpmath(self, g, power, g_mp, ts, rtol):
        # rtol is ten times the error measured with 256 Gauss-Lobatto cells for
        # the trigonometric and polynomial g (1.7e-16 and 1.5e-16) and with the
        # table's exact segment integrals (2.1e-16); Simpson's 2048 cells were
        # off by 3.7e-12, 1.6e-16 and 4.0e-7, the table's kinks inside its cells
        with mpmath.workdps(30):
            want = np.array([
                float(mpmath.quad(lambda s: g_mp(s) ** power,
                                  [0.0, *(x for x in _TABLE_G["nodes"] if 0.0 < x < t), t]))
                for t in ts])
        got = pm.power_integral(g, power, np.array(ts))
        assert np.max(np.abs(got - want) / want) <= rtol
        assert [float(pm.power_integral(g, power, t)) for t in ts] == got.tolist()

    @pytest.mark.parametrize("power", [0.5, 2.0])
    def test_table_with_zero_values(self, power):
        # one segment ends at 0 and the next is 0 at both ends: exact and finite
        nodes, values = [0.0, 1.0, 2.0, 3.0, 4.5], [1.0, 0.0, 0.0, 2.5, 1.5]
        g = FunctionDescriptor("table", {"nodes": nodes, "values": values})
        ts = (0.5, 1.0, 1.5, 2.7, 4.5)
        with mpmath.workdps(30):
            def line(s):   # the segment is chosen in 30 digits, so no end reads below 0
                i = max(k for k in range(len(nodes) - 1) if nodes[k] <= s)
                return values[i] + (values[i + 1] - values[i]) * (s - nodes[i]) / (nodes[i + 1] - nodes[i])
            want = np.array([float(mpmath.quad(lambda s: line(s) ** power,
                                               [0.0, *(x for x in nodes if 0.0 < x < t), t]))
                             for t in ts])
        got = pm.power_integral(g, power, np.array(ts))
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want) / want) <= 1e-14

    def test_table_changing_sign_at_integer_powers(self):
        # 1, -1, 2 at unit steps: int (1 - 2s)^2 + (3s - 1)^2 = 1/3 + 1 and the
        # cubes 0 + 5/4; the ends of each segment differ in sign
        g = FunctionDescriptor("table", {"nodes": [0.0, 1.0, 2.0], "values": [1.0, -1.0, 2.0]})
        assert pm.power_integral(g, 2.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert pm.power_integral(g, 3.0, 2.0) == pytest.approx(1.25, rel=1e-15)

    def test_sum_of_cells_matches_the_cumulative_table(self):
        # the fallback sums the cells pairwise where the cumulative table's last
        # row adds them in order; both are the same 256-cell Gauss-Lobatto rule
        g = FunctionDescriptor("trigonometric", _TRIG_G)
        ts = np.linspace(0.1, 5.0, 257)
        table = pm.lobatto_to_nodes(lambda x: np.asarray(g(x)) ** 2.0,
                                    np.multiply.outer(np.linspace(0.0, 1.0, 257), ts))
        got = pm.power_integral(g, 2.0, ts)
        assert np.max(np.abs(got - table[-1]) / table[-1]) <= 1e-14

    def test_pairwise_sum_stays_at_rounding(self):
        # int_0^t (1 + 2s)^1.5 = ((1 + 2t)^2.5 - 1) / 5; adding the 2048 cells in
        # order left 2.2e-15 of rounding here, summing them pairwise leaves 5.9e-16
        ts = np.linspace(0.1, 5.0, 50)
        with mpmath.workdps(30):
            want = np.array([float(((1 + 2 * mpmath.mpf(t)) ** 2.5 - 1) / 5) for t in ts])
        got = pm.power_integral(polynomial(1.0, 2.0), 1.5, ts)
        assert np.max(np.abs(got - want) / want) <= 1e-15


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
            C = BoundaryIntegral(G=GridFunction(B.G.nodes, vals), g_desc=g)
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

    def test_one_signed_f_fails(self):
        spec = ProblemSpec(f=constant(1.0), u0=constant(1.0), g=polynomial(1.0, 2.0))
        report = check_compatibility(spec)
        assert not report.ok


class TestNumpyParity:
    """_horner, the one polynomial evaluator, against npoly.polyval, which the
    tests keep as the reference the way TestScipyParity keeps scipy."""

    doubles = st.floats(allow_nan=False, allow_infinity=False)
    probes = st.one_of(doubles, st.sampled_from([0.0, -0.0, -1.0, 1e154, -1e300]))

    @given(coeffs=st.lists(probes, min_size=1, max_size=8),
           x=st.one_of(probes, st.lists(probes, min_size=1, max_size=6)))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_horner_is_polyval_bit_for_bit(self, coeffs, x):
        # degree 0-7, on a Python float and on an array; overflow gives inf and nan alike
        c, x = tuple(coeffs), (x if isinstance(x, float) else np.array(x))
        with np.errstate(all="ignore"):
            got, want = np.asarray(pm._horner(c, x)), npoly.polyval(x, c)
        assert got.shape == np.shape(want)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        same = ~np.isnan(want)   # every other value, and the sign of a zero, bit for bit
        assert np.array_equal(got[same].view(np.int64), np.asarray(want)[same].view(np.int64))

    def test_descriptor_calls_are_polyval(self):
        g = polynomial(1.0, -0.3, 0.2, 0.01)
        x = np.linspace(-3.0, 7.0, 513)
        assert np.array_equal(g(x), npoly.polyval(x, g.poly_coeffs()))
        assert g(2.5) == npoly.polyval(2.5, g.poly_coeffs())
        assert np.array_equal(g.derivative(x), npoly.polyval(x, npoly.polyder(g.poly_coeffs())))
        assert np.array_equal(pm.power_integral(g, 2.0, x), npoly.polyval(
            x, npoly.polyint(npoly.polypow(g.poly_coeffs(), 2))))


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

    @pytest.mark.parametrize("n", [3, 4, 128, 129, 2048, 2049])
    def test_reusable_form_is_bitwise_scipy_on_every_call(self, n):
        # one out, refilled by a new y, keeps no trace of the last one
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        out = np.empty(n)
        for _ in range(2):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert pm.cumulative_simpson(y, h, out=out) is out
            want = sp_integrate.cumulative_simpson(y, dx=h, initial=0.0)
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 4, 64, 65, 128, 129, 2048, 2049])
    def test_running_simpson_is_r_plus_cumulative_simpson(self, n):
        # one product cannot sum a pair's second increment from the far end as
        # scipy does, so equal up to rounding: the worst of 1000 draws a size
        # read 38.3 eps (|r| + int |w|) at n = 2048; the bound is ten times that
        rng = np.random.default_rng(n)
        h = 1.0 / (n - 1)
        w = np.empty(n)
        running = pm.running_simpson(w, h)
        for _ in range(100):
            w[:] = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            r = rng.standard_normal() * 10.0 ** rng.uniform(-3.0, 3.0)
            got = running(r)
            assert got[0] == r
            scale = abs(r) + h * np.sum(np.abs(w))
            assert np.max(np.abs(got - (r + pm.cumulative_simpson(w, h)))) <= 383 * np.finfo(float).eps * scale

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
    # enough rows for two formatting blocks; %s of floats keeps -0.0 apart from 0.0
    vals = np.tile([0.0, -0.0, 1.5e-300, -2.5e300, np.inf, -np.inf, np.nan, 1.0 / 3.0], 600)
    flags = vals > 0
    labels = [f"r{i}" for i in range(vals.size)]
    zeros = np.tile([0.0, -0.0, 2.5], 1600)
    path = tmp_path / "rows.csv"
    pm.write_csv(path, "note", "v,flag,label,z", "%.12e,%d,%s,%s", (vals, flags, labels, zeros))
    want = "# note\nv,flag,label,z\n" + "".join(
        f"{v:.12e},{int(b)},{s},{z}\n" for v, b, s, z in zip(vals, flags, labels, zeros))
    assert vals.size > pm._CSV_BLOCK
    assert path.read_text() == want


def _writers():
    from liouville_workbench.closed_form_solver import SingularCurve, SolutionField
    from liouville_workbench.generalized_integrator import Trajectory

    rng = np.random.default_rng(17)
    nt, na = 61, 97                 # 5917 rows: more than one block, a partial last block
    alpha = np.linspace(0.0, 1.0, na)
    t = np.concatenate(([0.0, -0.0], np.linspace(1e-3, 3.0, nt - 2)))
    u = rng.standard_normal((nt, na)) * 10.0 ** rng.uniform(-14, 40, (nt, na))
    mask = rng.random((nt, na)) < 0.2
    u[mask] = np.nan
    u[3, :6] = [0.0, -0.0, 5e-324, np.inf, -np.inf, 9.9999999999995]
    n = 5000
    curve_t = rng.uniform(0.5, 4.0, n)
    sign = rng.choice([-1, 0, 1], n)
    rows = lambda *cols: "".join(",".join(cols_i) + "\n" for cols_i in zip(*cols))
    e12 = lambda xs: [f"{x:.12e}" for x in xs]
    grid_t, grid_a = np.repeat(t, na), np.tile(alpha, nt)
    traj = Trajectory(alpha, t, u, t, t, t, t, "t_end", 1e8, 1.0)
    return {
        "field": (SolutionField(alpha, t, u, mask, 0.0), "alpha,t,u,masked",
                  rows(e12(grid_a), e12(grid_t), e12(u.ravel()), [str(int(m)) for m in mask.ravel()])),
        "curve": (SingularCurve(curve_t / 4.0, curve_t, sign), "alpha,t_tilde,slope_sign",
                  rows(e12(curve_t / 4.0), e12(curve_t), [str(s) for s in sign])),
        "trajectory": (traj, "t,alpha,u", rows(e12(grid_t), e12(grid_a), e12(u.ravel()))),
        "grid": (GridFunction(np.cumsum(rng.uniform(0.1, 1.0, n)), rng.standard_normal(n)),
                 "node,value", None),
    }


@pytest.mark.parametrize("name", ["field", "curve", "trajectory", "grid"])
def test_to_csv_writers_match_per_row_formatting(name, tmp_path):
    obj, header, body = _writers()[name]
    path = tmp_path / f"{name}.csv"
    if name == "grid":
        obj.to_csv(path)
        body = "".join(f"{x:.12e},{y:.12e}\n" for x, y in zip(obj.nodes, obj.values))
        assert path.read_text() == f"{header}\n{body}"
    else:
        obj.to_csv(path, comment="c")
        assert path.read_text() == f"# c\n{header}\n{body}"
    assert body.count("\n") > pm._CSV_BLOCK


def test_field_write_memory_stays_per_block(tmp_path):
    import tracemalloc

    from liouville_workbench.closed_form_solver import SolutionField

    nt, na = 257, 513
    rng = np.random.default_rng(3)
    fld = SolutionField(np.linspace(0.0, 1.0, na), np.linspace(0.0, 2.0, nt),
                        rng.uniform(0.5, 5.0, (nt, na)), np.zeros((nt, na), bool), 0.5)
    tracemalloc.start()
    try:
        fld.to_csv(tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "field.csv").stat().st_size > 7_000_000
    assert peak < 4e6


def _e12_lines(x, tmp_dir):
    path = os.path.join(tmp_dir, "x.csv")
    pm.write_csv(path, None, "x", "%.12e", (np.asarray(x, dtype=float),))
    with open(path) as fh:
        return fh.read().splitlines()[1:]


class TestE12Exactness:
    """write_csv's %.12e kernel against Python's own formatting, byte for byte."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_double(self, xs):
        with tempfile.TemporaryDirectory() as d:
            assert _e12_lines(xs, d) == ["%.12e" % x for x in xs]

    def test_near_ties_and_the_half_band(self, tmp_path):
        # (m + 1/2) 10^(e-12) rounded to a double, and its neighbours, sit within
        # an ulp of a 13-digit tie; the offsets put the scaled value just inside
        # and just outside the 1e-3 band around the half
        rng = np.random.default_rng(11)
        m = rng.integers(10**12, 10**13, 2000).astype(float)
        scale = 10.0 ** rng.integers(-23, 24, 2000).astype(float)   # exponents -11..35
        near = [(m + 0.5 + off) * scale for off in (0.0, -1.1e-3, -0.9e-3, 0.9e-3, 1.1e-3)]
        ties = near[0]
        xs = np.concatenate(near + [np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf), -ties])
        assert _e12_lines(xs, tmp_path) == ["%.12e" % x for x in xs.tolist()]

    def test_edges(self, tmp_path):
        xs = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              9.9999999999995, 9.99999999999949, -9.9999999999995, 999999999999.95,
              1e-10, 9.99999999999999e-11, 1e35, 9.99999999999999e34, 1e100, -2.5e-100,
              1.234e-250, -7.5e250, np.inf, -np.inf, np.nan, -np.nan]
        assert _e12_lines(xs, tmp_path) == ["%.12e" % x for x in xs]
