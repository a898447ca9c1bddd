import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from liouville_workbench import (
    BoundaryIntegral,
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
    invert_G,
    lp_asymptotic_constant,
    lp_blowup_fit,
    lp_norm,
    polynomial,
    singular_boundary_report,
)
from liouville_workbench import regularity_analyzer as ra
from liouville_workbench.closed_form_solver import SolutionField
from liouville_workbench.problem_model import simpson_weights

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

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_t_star_without_a_closed_psi0_does_not_move_with_n_alpha(self, method):
        # f = cos 2 pi a, u0 = 1 + 0.3 sin 2 pi a (psi0 has no closed form), g = 1 + 2t:
        # M0 = 1/(2 pi) + 0.3/(4 pi) and G = t + t^2 reach 2/M0 at
        # t* = (sqrt(1 + 8/M0) - 1)/2; Simpson's cells put t* 8.8e-7 (33 nodes)
        # and 3.4e-9 (129) below it
        f = FunctionDescriptor("trigonometric", {"terms": [[1.0, 1.0, math.pi / 2]]})
        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.3, 1.0, 0.0]]})
        with mpmath.workdps(30):
            M0 = 1 / (2 * mpmath.pi) + mpmath.mpf("0.3") / (4 * mpmath.pi)
            t_star = (mpmath.sqrt(1 + 8 / M0) - 1) / 2
        for n_alpha in (33, 64, 65, 129, 513, 2049):
            spec = ProblemSpec(f=f, u0=u0, g=polynomial(1.0, 2.0), n_alpha=n_alpha)
            report = classify(build_psi0(spec, method=method),
                              build_G(spec, t_max=10.0, method=method), spec)
            assert report.verdict == "FiniteBlowup"
            tol = 1e-13 * float(t_star) if n_alpha == 33 else 2.0 * math.ulp(float(t_star))
            with mpmath.workdps(30):
                assert abs(report.t_star - t_star) <= tol, n_alpha

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


def _sin(amplitude):
    return FunctionDescriptor("trigonometric", {"offset": 0.0, "terms": [[amplitude, 1.0, 0.0]]})


class TestSufficientConditions:
    """One hand-built case per branch of the derivative-sign conditions, read
    off classify's report at n_alpha = 129 (h = 1/128): a = f u0', b = (f u0)'."""

    @pytest.mark.parametrize("f, u0, flags", [
        # a(0) = f(0) u0'(0) = 1/8 > 0: no prefix at all
        (polynomial(0.25, -1.25, 1.0), polynomial(1.0, 0.5, -0.5), (False, False)),
        # u0 = 1 so a = 0, but b = f' = -2 pi cos(2 pi a) < 0 at alpha = 1
        (_sin(-1.0), constant(1.0), (False, False)),
        # a <= 0 up to alpha = 1/4 only, short of alpha0 = 1/2; b > 0 everywhere
        (polynomial(-1.0, 2.0),
         FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.1, 1.0, 0.0]]}),
         (True, False)),
        # f = (a - 1/4)(a - 1): the late zero is the node alpha = 1, no sign change
        (polynomial(0.25, -1.25, 1.0), constant(1.0), (False, True)),
        # f = (a - 1/4)(a - 7/10): the late zero lies between nodes
        (polynomial(0.175, -0.95, 1.0), constant(1.0), (False, True)),
        # f = a vanishes at alpha = 0 only: no alpha0
        (polynomial(0.0, 1.0), constant(1.0), (True, False)),
        # alpha0 = 1/2 - 5e-15 and f(1/2) = 1e-14 is within the zero tolerance,
        # but the node of alpha0 itself is no later zero
        (polynomial(-1.0 + 1e-14, 2.0), constant(1.0), (True, False)),
    ], ids=["prefix-fails-at-node-0", "suffix-fails-at-last-node", "window-ends-before-alpha0",
            "late-zero-on-a-node", "late-zero-as-sign-change", "no-alpha0",
            "alpha0-node-excluded"])
    def test_flags(self, f, u0, flags):
        spec = ProblemSpec(f=f, u0=u0, g=polynomial(1.0, 2.0), n_alpha=129)
        report = classify(build_psi0(spec), build_G(spec, t_max=10.0), spec)
        assert (report.sufficient_global, report.sufficient_blowup) == flags


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
    scipy.integrate.cumulative_simpson's last-interval rule.  Every TestLpNorm
    case checks both, so each keeps one test id."""
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

    def test_sup_norm_is_a_float_from_numpy_arithmetic(self, field2):
        # the peak is taken on Python floats; it equals the parabola on numpy
        # scalars (whose ** 2 is libm pow, not d * d: 1 ulp apart on about
        # 1 in 20000 of these triples), and lp_norm returns a float
        def numpy_peak(ym, y0, yp):
            denom = ym - 2.0 * y0 + yp
            if abs(denom) < 1e-300 or denom >= 0:
                return y0
            return max(y0 - 0.125 * (ym - yp) ** 2 / denom, y0)

        rng = np.random.default_rng(0)
        triples = rng.standard_normal((20000, 3)) * 10.0 ** rng.uniform(-5, 5, (20000, 1))
        triples[:, 1] = 3.0 * np.abs(triples[:, 1])
        assert [ra._parabolic_peak(*r) for r in triples.tolist()] == [
            float(numpy_peak(*r)) for r in triples]
        for fld in field2:
            for t in fld.t_nodes[~fld.masked_rows].tolist():
                row = fld.row(t, fld.node(t))
                j = int(np.argmax(row))
                want = numpy_peak(*row[j - 1:j + 2]) if 0 < j < row.size - 1 else row[j]
                got = lp_norm(fld, math.inf, t)
                assert type(got) is float and got == float(want)

    @pytest.mark.parametrize("p", [math.inf, "inf", "INF", "Infinity"])
    def test_every_spelling_of_inf(self, field2, p):
        for fld in field2:
            assert lp_norm(fld, p, 1.0) == lp_norm(fld, math.inf, 1.0)

    def test_norms_are_ordered(self, field2):
        for fld in field2:
            assert lp_norm(fld, 1, 1.0) < lp_norm(fld, 2, 1.0) < lp_norm(fld, math.inf, 1.0)

    def test_masked_row_refuses(self, field2):
        # the point is the row's first masked alpha node and the row's t node
        for fld in field2:
            j = int(np.flatnonzero(fld.singular_mask[2])[0])
            with pytest.raises(NearSingular) as got:
                lp_norm(fld, 1, 3.0)
            assert (got.value.alpha, got.value.t) == (fld.alpha_nodes[j], 3.0)
            assert got.value.denominator == 0.0

    @pytest.mark.parametrize("n", [3, 4, 5, 128, 129, 1024, 1025])
    def test_weighted_rule_is_cumulative_simpson(self, n):
        # one dot product against the last value of the running sum: the
        # same rule, to rounding, on either parity
        rng = np.random.default_rng(n)
        row = np.exp(rng.normal(size=n))
        fld = SolutionField(np.linspace(0.0, 1.0, n), np.array([0.0, 1.0]),
                            np.vstack([row, row]), np.zeros((2, n), dtype=bool), 1.0)
        h = fld.alpha_step
        for p in (1.0, 2.0, 3.5):
            want = cumulative_simpson(row ** p, dx=h)[-1] ** (1.0 / p)
            assert lp_norm(fld, p, 1.0) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_weights_are_read_only(self):
        for n in (5, 6):
            w = simpson_weights(n)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 2.0
            assert simpson_weights(n) is w

    def test_rejects_p_below_one(self, field2):
        for fld in field2:
            with pytest.raises(ValueError):
                lp_norm(fld, 0.5, 1.0)

    def test_rejects_non_uniform_grid(self, problem):
        # a uniform-step rule on these nodes gave L1 = 0.00804 against 4.41840
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, np.linspace(0.0, 1.0, 513) ** 2,
                             np.array([1.0]))
        for p in (1, 2, math.inf):
            with pytest.raises(ValueError, match="alpha grid must be uniform"):
                lp_norm(fld, p, 1.0)


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

    def test_blowup_fit_needs_positive_M0(self, problem):
        spec, profile, B = problem(1)   # M0 = 0: global existence
        with pytest.raises(ValueError, match=r"^Lp blow-up asymptotics need M0 > 0$"):
            lp_blowup_fit(profile, B, spec)

    def test_blowup_fit_inverts_in_one_call(self, problem, monkeypatch):
        # one array call to B.invert gives the scalar inverter's samples, bit for bit
        spec, profile, B = problem(2)
        want = [invert_G(B, 2.0 / profile.M0 - d) for d in np.geomspace(1e-4, 1e-2, 9)]
        calls, fields = [], []
        invert = BoundaryIntegral.invert
        monkeypatch.setattr(BoundaryIntegral, "invert",
                            lambda self, y: calls.append(y) or invert(self, y))
        monkeypatch.setattr(ra, "evaluate_field",
                            lambda *args: fields.append(evaluate_field(*args)) or fields[-1])
        lp_blowup_fit(profile, B, spec)
        assert len(calls) == 1
        np.testing.assert_array_equal(fields[0].t_nodes, want)

    def test_blowup_fit_unreachable_target(self):
        # tabulated g = 1 + t on [0, 1]: G(1) = 1.5 never reaches 2/M0 - delta
        # near 8, and the fit raises what invert_G raises
        g = FunctionDescriptor("table", {"nodes": [0.0, 1.0], "values": [1.0, 2.0]})
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=g)
        profile, B = build_psi0(spec), build_G(spec, t_max=1.0)
        with pytest.raises(ValueError, match="G does not reach") as got:
            lp_blowup_fit(profile, B, spec)
        with pytest.raises(ValueError) as want:
            invert_G(B, 2.0 / profile.M0 - 1e-4)
        assert str(got.value) == str(want.value)

    def test_blowup_fit_matches_theory(self, problem):
        spec, profile, B = problem(2)
        out = lp_blowup_fit(profile, B, spec)
        assert out["slope"] == pytest.approx(-1.5, abs=0.05)
        assert out["prefactor"] == pytest.approx(out["C"], rel=0.1)
        assert out["C"] == pytest.approx(4.0 * math.sqrt(2.0) * math.pi, rel=1e-6)
