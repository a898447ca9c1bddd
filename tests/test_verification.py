import math

import numpy as np
import pytest

from liouville_workbench import (
    GridFunction,
    build_G,
    evaluate_field,
    gamma_identity,
    pde_residual,
    r_invariance,
    schwarzian,
    singular_boundary,
)


def sampled(fun, lo, hi, n):
    t = np.linspace(lo, hi, n)
    return GridFunction(t, fun(t))


class TestPdeResidual:
    def test_example2_second_order(self, problem):
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 129),
                             np.linspace(0.0, 1.0, 129))
        report = pde_residual(fld, spec)
        assert 1.8 <= report.convergence_order <= 2.2
        assert report.max_abs_residual <= 1e-2
        assert len(report.levels) >= 3

    def test_masked_field_rejected(self, problem):
        spec, profile, B = problem(2)
        fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 65),
                             np.linspace(0.0, 3.0, 65))
        with pytest.raises(ValueError):
            pde_residual(fld, spec)

    def test_needs_uniform_grids(self, problem):
        spec, profile, B = problem(2)
        t_nodes = np.array([0.0, 0.1, 0.5, 1.0])
        fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 65), t_nodes)
        with pytest.raises(ValueError):
            pde_residual(fld, spec)


class TestRInvariance:
    def test_discrepancy_shrinks_quadratically(self, problem):
        spec, profile, B = problem(2)
        disc = []
        for n_t in (129, 257):
            fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 129),
                                 np.linspace(0.5, 1.5, n_t))
            disc.append(r_invariance(fld, spec))
        assert disc[1] <= disc[0] / 3.0


class TestSchwarzian:
    def test_moebius_maps_to_zero(self):
        G = sampled(lambda t: t / (1.0 - t), 0.0, 0.9, 129)
        S = schwarzian(G)
        assert np.max(np.abs(S.values)) <= 1e-6

    def test_quadratic_matches_closed_form(self):
        # interior windows are centered; the 3 edge nodes are one-sided and
        # only first-order accurate, so they stay out of the tight comparison
        G = sampled(lambda t: t**2 + t, 0.0, 1.0, 257)
        S = schwarzian(G)
        want = -6.0 / (2.0 * S.nodes + 1.0) ** 2
        assert np.max(np.abs(S.values - want)[3:-3]) <= 1e-6
        assert S(0.0) == pytest.approx(-6.0, abs=0.5)

    def test_singular_beta_two(self):
        B = build_G(singular_boundary(2.0), t_max=0.6)
        t = np.linspace(0.0, 0.5, 129)
        S = schwarzian(GridFunction(t, B.value(t)))
        want = -1.5 / (1.0 - S.nodes) ** 2
        rel = np.max((np.abs(S.values - want) / np.abs(want))[3:-3])
        assert rel <= 1e-6

    def test_needs_five_samples(self):
        with pytest.raises(ValueError):
            schwarzian(GridFunction(np.linspace(0, 1, 4), np.linspace(0, 1, 4)))

    def test_five_samples_refused_six_accepted(self):
        # on 5 samples node 2 has no 4-point window inside the grid
        with pytest.raises(ValueError, match="at least 6 samples"):
            schwarzian(sampled(lambda t: t / (1.0 - t), 0.0, 0.5, 5))
        S = schwarzian(sampled(lambda t: t / (1.0 - t), 0.0, 0.5, 6))
        assert len(S.nodes) == 6
        assert np.max(np.abs(S.values)) <= 1e-8

    def test_needs_increasing_values(self):
        t = np.linspace(0, 1, 9)
        with pytest.raises(ValueError):
            schwarzian(GridFunction(t, -t))


class TestGammaIdentity:
    @pytest.mark.parametrize("q", [0.6, 0.75, 1.0, 1.5, 2.0, 5.0])
    def test_identity_holds(self, q):
        out = gamma_identity(q)
        assert out["diff"] <= 1e-8

    def test_battery_is_float_accurate(self):
        # the verify battery's q; the tanh-sinh sum is within a few ulp of the gamma side
        worst = max(gamma_identity(q)["diff"] for q in (0.6, 0.75, 1.0, 1.5, 2.0, 5.0))
        assert worst <= 1e-14

    def test_q_two_is_half_pi(self):
        out = gamma_identity(2.0)
        assert out["lhs"] == pytest.approx(math.pi / 2.0, rel=1e-10)
        assert out["rhs"] == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_domain_edge_rejected(self):
        with pytest.raises(ValueError):
            gamma_identity(0.5)
