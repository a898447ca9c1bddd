import math

import numpy as np
import pytest

from liouville_workbench import (
    FunctionDescriptor,
    NearSingular,
    ProblemSpec,
    build_G,
    build_psi0,
    catalog,
    classify,
    constant,
    evaluate_field,
    exponential,
    fit_cusp,
    lp_asymptotic_constant,
    lp_blowup_fit,
    lp_norm,
    polynomial,
    singular_boundary_report,
)

T_STAR_2 = 0.5 * (math.sqrt(33.0) - 1.0)


class TestClassify:
    def test_example1_global(self, problem):
        spec, profile, B = problem(1)
        report = classify(profile, B, spec)
        assert report.verdict == "Global"
        assert report.t_star is None
        assert report.sufficient_global  # f u0' + f' u0 = 2 > 0
        assert not report.sufficient_blowup

    def test_example2_finite_blowup(self, problem):
        spec, profile, B = problem(2)
        report = classify(profile, B, spec)
        assert report.verdict == "FiniteBlowup"
        assert report.t_star == pytest.approx(T_STAR_2, rel=1e-12)
        np.testing.assert_allclose(report.blowup_locations, [0.5], atol=1e-10)
        # the sign conditions are sufficient, not necessary: neither fires here
        assert not report.sufficient_global
        assert not report.sufficient_blowup

    def test_example2_final_profile(self, problem):
        spec, profile, B = problem(2)
        report = classify(profile, B, spec)
        # C(alpha) = sqrt(33) / (1 - 2 alpha)^4 away from alpha = 0.5
        for alpha in (0.25, 0.125, 0.75):
            want = math.sqrt(33.0) / (1.0 - 2.0 * alpha) ** 4
            assert report.final_profile(alpha) == pytest.approx(want, rel=1e-10)
        tags = dict(zip(profile.psi0.nodes, report.profile_limits))
        assert tags[0.5] == "infinite"
        assert tags[0.25] == "finite"

    def test_sufficient_blowup_condition_fires(self):
        spec = ProblemSpec(
            f=FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[1.0, 1.0, 0.0]]}),
            u0=constant(1.0), g=polynomial(1.0, 2.0))
        profile = build_psi0(spec)
        B = build_G(spec, t_max=4.0)
        report = classify(profile, B, spec)
        assert report.verdict == "FiniteBlowup"
        assert report.sufficient_blowup
        # M0 = 1/pi, G = t^2 + t: t* solves t^2 + t = 2 pi
        want = 0.5 * (math.sqrt(1.0 + 8.0 * math.pi) - 1.0)
        assert report.t_star == pytest.approx(want, rel=1e-7)

    def test_global_when_G_limit_is_too_small(self):
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                           g=exponential(1.0, -1.0))
        profile = build_psi0(spec)
        B = build_G(spec, t_max=30.0)
        report = classify(profile, B, spec)
        assert report.verdict == "Global"  # G_inf = 1 < 2/M0 = 8

    def test_borderline_G_limit_is_global(self):
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                           g=exponential(1.0, -0.125))
        profile = build_psi0(spec)
        B = build_G(spec, t_max=50.0)
        report = classify(profile, B, spec)
        assert report.verdict == "Global"  # G_inf = 8 = 2/M0 exactly
        assert any("borderline" in n or "equals" in n for n in report.notes)

    @pytest.mark.parametrize("rel, verdict", [(1e-14, "Global"), (-1e-14, "Global"),
                                              (1e-9, "FiniteBlowup")])
    def test_borderline_is_global_within_invert_rtol(self, rel, verdict):
        # G_inf = 8 (1 + rel) against 2/M0 = 8: within INVERT_RTOL (1 + 8) of
        # it counts as equal, a relative 1e-9 above it blows up
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                           g=exponential(1.0, -1.0 / (8.0 * (1.0 + rel))))
        B = build_G(spec, t_max=50.0)
        assert B.G_infinity == pytest.approx(8.0 * (1.0 + rel), rel=1e-15)
        report = classify(build_psi0(spec), B, spec)
        assert report.verdict == verdict
        assert any("equals" in n for n in report.notes) == (verdict == "Global")


    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    @pytest.mark.parametrize("t_max", [10.0, 12.0, 100.0])
    def test_periodic_g_blows_up_whatever_the_horizon(self, method, t_max):
        # g = (1 + 0.9 cos(pi t / 2)) / 1.9 after normalization, so
        # G(t) = (t + (1.8/pi) sin(pi t / 2)) / 1.9 reaches 2/M0 = 80 at t = 152
        with pytest.warns(UserWarning):
            spec = ProblemSpec(f=polynomial(0.1, -0.2), u0=constant(1.0),
                               g=FunctionDescriptor("trigonometric", {
                                   "offset": 1.0, "terms": [[0.9, 0.25, math.pi / 2]]}))
        report = classify(build_psi0(spec, method=method),
                          build_G(spec, t_max=t_max, method=method), spec)
        assert report.verdict == "FiniteBlowup"
        assert report.t_star == pytest.approx(152.0, rel=1e-9 if method == "auto" else 3e-6)
        assert not report.g_infinity_estimated


    @pytest.mark.parametrize("n_alpha", [64, 65])
    def test_nonpositive_psi0_is_global_at_either_parity(self, n_alpha):
        # f = -sin 2 pi a, u0 = 1: psi0 = -(1 - cos 2 pi a)/(2 pi) <= 0, so
        # M0 = 0; Simpson on 64 nodes once made M0 = 6.5e-7 and FiniteBlowup
        spec = ProblemSpec(
            f=FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[-1.0, 1.0, 0.0]]}),
            u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=n_alpha)
        profile = build_psi0(spec)
        assert profile.M0 == 0.0
        assert classify(profile, build_G(spec, t_max=10.0), spec).verdict == "Global"

    def test_verdict_independent_of_n_alpha_parity(self):
        # f = -sin 2 pi a, u0 = 1 + cos(2 pi a)/2: psi0 <= 0 exactly, so Global
        f = FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[-1.0, 1.0, 0.0]]})
        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0,
                                                  "terms": [[0.5, 1.0, math.pi / 2]]})
        verdicts = {}
        for n in (32, 48, 64, 65, 96):
            with pytest.warns(UserWarning):  # u0 is rescaled to u0(0) = 1
                spec = ProblemSpec(f=f, u0=u0, g=polynomial(1.0, 2.0), n_alpha=n)
            verdicts[n] = classify(build_psi0(spec), build_G(spec, t_max=10.0), spec).verdict
        assert set(verdicts.values()) == {"Global"}, verdicts


class TestSingularBoundaryReport:
    def test_example4_interior_blowup_first(self, problem):
        spec, profile, _ = problem(4)
        report = singular_boundary_report(profile, spec)
        assert report.verdict == "FiniteBlowup"
        assert report.t_star == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert report.t_star < 1.0
        np.testing.assert_allclose(report.blowup_locations, [0.5], atol=1e-10)
        # g(t*) = (2 beta + M0)^2 / M0^2 = 81 for beta = 1, M0 = 1/4
        want = 81.0 / (1.0 - 2.0 * 0.25) ** 4
        assert report.final_profile(0.25) == pytest.approx(want, rel=1e-10)

    def test_example3_boundary_induced(self, problem):
        spec, profile, _ = problem(3)
        report = singular_boundary_report(profile, spec)
        assert report.verdict == "BoundaryInducedBlowup"
        assert report.t_star == pytest.approx(1.0)
        assert report.beta_case == "beta=1"
        np.testing.assert_allclose(sorted(report.blowup_locations), [0.0, 1.0], atol=1e-9)
        # interior limit 4 u0 / psi0^2 = 4/(a^2 - a)^2
        for alpha in (0.25, 0.5, 0.75):
            want = 4.0 / (alpha**2 - alpha) ** 2
            assert report.final_profile(alpha) == pytest.approx(want, rel=1e-9)

    def test_beta_below_one_interior_escapes(self, problem):
        spec, _, _ = problem(3)
        slow = catalog.with_beta(spec, 0.5)
        report = singular_boundary_report(build_psi0(slow), slow)
        assert report.verdict == "BoundaryInducedBlowup"
        assert report.beta_case == "beta<1"
        interior = report.profile_limits[1:-1]
        assert set(interior) == {"infinite"}
        assert report.final_profile is None

    def test_beta_above_one_interior_dies(self, problem):
        spec, _, _ = problem(3)
        fast = catalog.with_beta(spec, 1.5)
        report = singular_boundary_report(build_psi0(fast), fast)
        assert report.beta_case == "beta>1"
        interior = report.profile_limits[1:-1]
        assert set(interior) == {"zero"}
        assert np.all(report.final_profile.values == 0.0)

    def test_rejects_regular_boundary(self, problem):
        spec, profile, _ = problem(2)
        with pytest.raises(ValueError):
            singular_boundary_report(profile, spec)


@pytest.fixture(scope="module")
def field2(problem):
    """Example 2's field on 4097 and on 4096 alpha nodes; the even count takes
    cumulative_simpson's last-interval rule.  Every TestLpNorm case checks
    both, so each keeps one test id."""
    spec, profile, B = problem(2)
    return [evaluate_field(profile, B, spec, np.linspace(0.0, 1.0, n),
                           np.array([0.0, 1.0, 3.0])) for n in (4097, 4096)]


class TestLpNorm:
    def test_l1_frozen_quadrature_value(self, field2):
        # integral of 3 (1 - a + a^2)^-2 on [0,1], 50-digit quadrature
        for fld in field2:
            assert lp_norm(fld, 1, 1.0) == pytest.approx(4.4183991523122905, rel=1e-9)

    def test_l2_frozen_quadrature_value(self, field2):
        for fld in field2:
            assert lp_norm(fld, 2, 1.0) == pytest.approx(4.4789876655007251, rel=1e-9)

    def test_sup_norm_with_vertex_refinement(self, field2):
        for fld in field2:
            assert lp_norm(fld, math.inf, 1.0) == pytest.approx(16.0 / 3.0, rel=1e-10)

    def test_norms_are_ordered(self, field2):
        for fld in field2:
            assert lp_norm(fld, 1, 1.0) < lp_norm(fld, 2, 1.0) < lp_norm(fld, math.inf, 1.0)

    def test_masked_row_refuses(self, field2):
        for fld in field2:
            with pytest.raises(NearSingular):
                lp_norm(fld, 1, 3.0)

    def test_rejects_p_below_one(self, field2):
        for fld in field2:
            with pytest.raises(ValueError):
                lp_norm(fld, 0.5, 1.0)


class TestLpAsymptotics:
    def test_constant_for_quadratic_cusp(self):
        # q = 2, M0 = 1/4, C1 = -1 gives C = 4 sqrt(2) pi
        out = lp_asymptotic_constant(0.25, -1.0, 2.0)
        assert out["C"] == pytest.approx(4.0 * math.sqrt(2.0) * math.pi, rel=1e-12)
        assert out["exponent"] == pytest.approx(1.5)

    def test_exponent_window(self):
        with pytest.raises(ValueError):
            lp_asymptotic_constant(0.25, -1.0, 0.5)

    def test_fit_cusp_recovers_quadratic(self, problem):
        _, profile, _ = problem(2)
        (model,) = fit_cusp(profile)
        assert model.q == pytest.approx(2.0, abs=1e-6)
        assert model.C1 == pytest.approx(-1.0, rel=1e-5)
        assert model.alpha_bar == pytest.approx(0.5, abs=1e-10)
        assert model.residual <= 1e-2

    def test_fit_cusp_needs_positive_part(self, problem):
        _, profile, _ = problem(1)
        with pytest.raises(ValueError):
            fit_cusp(profile)

    def test_blowup_fit_matches_theory(self, problem):
        spec, profile, B = problem(2)
        out = lp_blowup_fit(profile, B, spec)
        assert out["slope"] == pytest.approx(-1.5, abs=0.05)
        assert out["prefactor"] == pytest.approx(out["C"], rel=0.1)
        assert out["C"] == pytest.approx(4.0 * math.sqrt(2.0) * math.pi, rel=1e-6)
