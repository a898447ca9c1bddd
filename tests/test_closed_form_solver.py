import math
import tracemalloc

import numpy as np
import pytest

from liouville_workbench import (
    EmptyCurve,
    FunctionDescriptor,
    NearSingular,
    ProblemSpec,
    build_G,
    build_psi0,
    constant,
    evaluate_field,
    evaluate_u,
    jump_transport,
    polynomial,
    representation,
    singular_curve,
)
from liouville_workbench.closed_form_solver import SINGULAR_ATOL, SolutionField

T_STAR_2 = 0.5 * (math.sqrt(33.0) - 1.0)


def u2_exact(alpha, t):
    # f = 1 - 2a, u0 = 1, g = 2t + 1: psi0 = a - a^2, G = t^2 + t
    D = 1.0 - 0.5 * (alpha - alpha**2) * (t**2 + t)
    return (2.0 * t + 1.0) / D**2


class TestEvaluateU:
    def test_matches_closed_form(self, problem):
        _, profile, B = problem(2)
        spec, _, _ = problem(2)
        for alpha, t in [(0.5, 1.0), (0.25, 0.5), (0.9, 2.0), (0.0, 3.0)]:
            got = evaluate_u(profile, B, spec, alpha, t)
            assert got == pytest.approx(u2_exact(alpha, t), rel=1e-13)

    def test_initial_and_lateral_data(self, problem):
        spec, profile, B = problem(2)
        alphas = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(evaluate_u(profile, B, spec, alphas, 0.0),
                                   np.ones(11), rtol=1e-13)
        np.testing.assert_allclose(evaluate_u(profile, B, spec, 0.0, 4.0),
                                   9.0, rtol=1e-13)

    def test_broadcasts(self, problem):
        spec, profile, B = problem(2)
        out = evaluate_u(profile, B, spec, np.linspace(0, 1, 7), 1.0)
        assert out.shape == (7,)

    def test_near_singular_raises_with_context(self, problem):
        spec, profile, B = problem(2)
        with pytest.raises(NearSingular) as err:
            evaluate_u(profile, B, spec, 0.5, T_STAR_2)
        assert err.value.alpha == pytest.approx(0.5)
        assert err.value.t == pytest.approx(T_STAR_2)
        assert abs(err.value.denominator) <= 1e-8

    def test_denominator(self, problem):
        # D = 1 - psi0 G / 2 is the bracket that representation() returns with u
        _, profile, B = problem(2)
        _, D = representation(1.0, 1.0, profile.value(0.5), B.value(1.0))
        assert D == pytest.approx(0.75, rel=1e-13)


class TestEvaluateField:
    def test_rows_match_pointwise_evaluation(self, problem):
        spec, profile, B = problem(2)
        t_nodes = np.linspace(0.0, 2.0, 9)
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_nodes)
        row = fld.row(1.0)
        np.testing.assert_allclose(row, u2_exact(spec.alpha_grid(), 1.0), rtol=1e-13)
        assert fld.values.shape == (9, 513)

    def test_masks_beyond_blowup(self, problem):
        spec, profile, B = problem(2)
        t_nodes = np.array([0.0, 1.0, 3.0])  # t* ~ 2.37 < 3
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_nodes)
        late = fld.singular_mask[fld.node(3.0)]
        assert np.any(late)
        assert np.all(np.isnan(fld.values[-1, late]))
        assert not np.any(fld.singular_mask[fld.node(1.0)])
        # closest sample to the curve, always reported as a distance
        assert 0.0 <= fld.denominator_min <= 0.01

    def test_mask_is_signed(self, problem):
        # past the curve D < -atol: still masked even though |D| is large
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, np.array([0.5]), np.array([10.0]))
        assert fld.singular_mask.all()

    def test_global_field_unmasked(self, problem):
        spec, profile, B = problem(1)
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(),
                             np.linspace(0.0, 10.0, 41))
        assert not fld.singular_mask.any()
        assert np.all(fld.values > 0)

    def test_row_requires_sampled_time(self, problem):
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            fld.row(0.37)

    @pytest.mark.parametrize("t_nodes", [
        [0.5, 0.0, 1.0, 0.25, 2.0],            # unsorted
        [0.0, 0.5, 0.5, 1.0, 0.0, -0.0],       # repeated t, and -0.0 equal to 0.0
        [0.0, 0.5, math.nan, 1.0, 0.5],        # argmin picks the NaN node for every t
    ])
    def test_node_is_argmin(self, t_nodes):
        t_nodes = np.array(t_nodes)
        n = len(t_nodes)
        fld = SolutionField(np.linspace(0.0, 1.0, 3), t_nodes, np.ones((n, 3)),
                            np.zeros((n, 3), dtype=bool), 1.0)
        probes = t_nodes.tolist() + [-0.0, 0.3, 0.375, 0.75, 1.5, -1.0, 3.0, math.inf]
        for t in probes + [np.float64(t) for t in probes]:
            assert fld.node(t) == int(np.argmin(np.abs(t_nodes - t)))

    def test_masked_rows(self, problem):
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(), np.array([0.0, 3.0, 1.0]))
        assert fld.masked_rows.tolist() == [False, True, False]

    def test_csv_contains_comment(self, problem, tmp_path):
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 5), np.array([0.0, 1.0]))
        path = tmp_path / "field.csv"
        fld.to_csv(path, comment="probe=1")
        text = path.read_text()
        assert text.startswith("# probe=1")
        assert "alpha,t,u,masked" in text


class TestRepresentation:
    """evaluate_field, evaluate_u and jump_transport are representation() at e = 1."""

    @pytest.mark.parametrize("method", ["auto", "quadrature"])
    def test_callers_agree_bitwise_with_the_kernel(self, problem, method):
        spec, profile, B = problem(2, n_alpha=129, method=method)
        alpha, t = spec.alpha_grid(), np.linspace(0.0, 3.0, 31)   # t* ~ 2.37
        u, D = representation(spec.g(t)[:, None], spec.u0(alpha)[None, :],
                              profile.value(alpha)[None, :], B.value(t)[:, None])
        fld = evaluate_field(profile, B, spec, alpha, t)
        assert np.array_equal(fld.values, np.where(D <= SINGULAR_ATOL, np.nan, u), equal_nan=True)
        assert fld.denominator_min == np.min(np.abs(D))
        early = t < 2.0
        grid_u = evaluate_u(profile, B, spec, alpha[None, :], t[early][:, None])
        assert grid_u.tobytes() == u[early].tobytes()
        # a single point gets the bits of the field
        assert all(evaluate_u(profile, B, spec, alpha[j], t[i]) == u[i, j]
                   for i, j in [(3, 5), (10, 64), (19, 100)])
        for a, tt in [(0.3, 0.5), (0.71, 1.3), (0.05, 1.9)]:
            psi, G = np.asarray(profile.value(a)), np.asarray(B.value(tt))
            want, _ = representation(np.float64(0.37), np.float64(spec.g(tt)), psi, G)
            assert jump_transport(profile, B, spec, a, 0.37, "alpha", t=tt) == want
            want, _ = representation(np.float64(0.37), np.float64(spec.u0(a)), psi, G)
            assert jump_transport(profile, B, spec, tt, 0.37, "t", alpha=a) == want

    def test_envelope_exponent(self):
        # e = 2: g u0 / (1 - psi G), the envelope of F = u^2
        u, D = representation(3.0, 2.0, 0.5, 1.0, e=2.0)
        assert (u, D) == (12.0, 0.5)

    def test_field_peak_memory(self, problem):
        # u and D are the only n_t x n_alpha float arrays left at once: the mask
        # goes into u and |D| into D in place (about 3.05 MiB at 129 x 1025)
        spec, profile, B = problem(2, n_alpha=1025)
        t = np.linspace(0.0, 3.0, 129)
        evaluate_field(profile, B, spec, spec.alpha_grid(), t)
        tracemalloc.start()
        try:
            evaluate_field(profile, B, spec, spec.alpha_grid(), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.3 * 2**20


class TestSingularCurve:
    def test_curve_satisfies_invariant(self, problem):
        spec, profile, B = problem(2)
        curve = singular_curve(profile, B)
        psi = profile.value(curve.alpha_samples)
        G = B.value(curve.t_samples)
        assert np.max(np.abs(psi * G - 2.0)) <= 1e-8
        assert curve.slope_mismatches == 0

    def test_curve_minimum_is_t_star(self, problem):
        _, profile, B = problem(2)
        curve = singular_curve(profile, B)
        j = int(np.argmin(curve.t_samples))
        assert curve.t_samples[j] == pytest.approx(T_STAR_2, rel=1e-9)
        assert curve.alpha_samples[j] == pytest.approx(0.5, abs=2e-3)

    def test_slope_sign_flips_at_the_minimum(self, problem):
        _, profile, B = problem(2)
        curve = singular_curve(profile, B)
        assert curve.slope_sign[0] == -1  # psi0 rising, t-tilde falling
        assert curve.slope_sign[-1] == 1

    def test_no_curve_without_positive_part(self, problem):
        _, profile, B = problem(1)
        with pytest.raises(EmptyCurve):
            singular_curve(profile, B)

    def test_no_curve_where_psi0_is_positive_only_between_nodes(self):
        # psi0 = sin(32 pi alpha) is 1 at its crests, but 0 to rounding at
        # every node j/32 of 33
        f = FunctionDescriptor("trigonometric", {"terms": [[32.0 * math.pi, 16.0, math.pi / 2]]})
        spec = ProblemSpec(f=f, u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=33)
        profile = build_psi0(spec)
        assert profile.M0 == pytest.approx(1.0)
        with pytest.raises(EmptyCurve, match="^no grid point clears the curve threshold$"):
            singular_curve(profile, build_G(spec, t_max=10.0))

    def test_no_curve_that_G_reaches(self, problem):
        # tabulated g = 1 + t on [0, 1]: G(1) = 1.5 never reaches 2/psi0 >= 2/M0 = 8
        _, profile, _ = problem(2)
        g = FunctionDescriptor("table", {"nodes": [0.0, 1.0], "values": [1.0, 2.0]})
        with pytest.raises(EmptyCurve, match="^fewer than two curve samples reachable"):
            singular_curve(profile, build_G(g, t_max=1.0))

    def test_csv(self, problem, tmp_path):
        _, profile, B = problem(2)
        path = tmp_path / "curve.csv"
        singular_curve(profile, B).to_csv(path, comment="c")
        assert "alpha,t_tilde,slope_sign" in path.read_text()


class TestJumpTransport:
    def test_alpha_jump_scales_with_g_over_D_squared(self, problem):
        spec, profile, B = problem(2)
        for t in (0.5, 1.0, 2.0):
            got = jump_transport(profile, B, spec, jump_location=0.3,
                                 jump_size=0.1, axis="alpha", t=t)
            D = 1.0 - 0.5 * (0.3 - 0.09) * (t**2 + t)
            assert got == pytest.approx(0.1 * (2 * t + 1) / D**2, rel=1e-12)

    def test_alpha_jump_at_t0_is_the_jump(self, problem):
        spec, profile, B = problem(2)
        got = jump_transport(profile, B, spec, jump_location=0.3,
                             jump_size=0.25, axis="alpha", t=0.0)
        assert got == pytest.approx(0.25, rel=1e-13)

    def test_t_jump_scales_with_u0_over_D_squared(self, problem):
        spec, profile, B = problem(2)
        got = jump_transport(profile, B, spec, jump_location=1.0,
                             jump_size=0.2, axis="t", alpha=0.3)
        D = 1.0 - 0.5 * 0.21 * 2.0
        assert got == pytest.approx(0.2 / D**2, rel=1e-12)

    def test_jump_linear_in_size(self, problem):
        spec, profile, B = problem(2)
        one = jump_transport(profile, B, spec, 0.3, 1.0, "alpha", t=1.5)
        three = jump_transport(profile, B, spec, 0.3, 3.0, "alpha", t=1.5)
        assert three == pytest.approx(3.0 * one, rel=1e-13)

    def test_near_singular_on_the_curve(self, problem):
        spec, profile, B = problem(2)
        with pytest.raises(NearSingular):
            jump_transport(profile, B, spec, 0.5, 0.1, "alpha", t=T_STAR_2)

    def test_rejects_unknown_axis(self, problem):
        spec, profile, B = problem(2)
        with pytest.raises(ValueError):
            jump_transport(profile, B, spec, 0.3, 0.1, "beta", t=1.0)

    def test_each_axis_needs_its_query_coordinate(self, problem):
        spec, profile, B = problem(2)
        with pytest.raises(ValueError, match="^axis 'alpha' transports in time; pass t=$"):
            jump_transport(profile, B, spec, 0.3, 0.1, "alpha", alpha=0.5)
        with pytest.raises(ValueError, match="^axis 't' transports in space; pass alpha=$"):
            jump_transport(profile, B, spec, 1.0, 0.1, "t", t=0.5)
