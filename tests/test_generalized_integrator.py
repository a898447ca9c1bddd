import math
import warnings

import numpy as np
import pytest

from liouville_workbench import (
    FunctionDescriptor,
    ProblemSpec,
    blowup_bounds,
    catalog,
    check_compatibility,
    compute_H0_alpha0,
    constant,
    detect_blowup,
    evaluate_u,
    exponential,
    identity_F,
    integrate_general,
    polynomial,
    power_F,
    power_integral,
    power_integral_limit,
    singular_boundary,
    table_F,
)
from liouville_workbench.generalized_integrator import _g_and_ratio
from liouville_workbench.problem_model import data_horizon


def quadratic_F_spec(g=None):
    # f = 1 - 2a, u0 = 1: H0(a) = a - a^2 for any F with F(1) = 1
    return ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                       g=g if g is not None else polynomial(1.0, 2.0))


def u_power2_exact(alpha, t):
    # F = u^2, g = 2t+1: u = g / (1 - H0 ((2t+1)^3 - 1)/6)
    H0 = alpha - alpha**2
    return (2.0 * t + 1.0) / (1.0 - H0 * ((2.0 * t + 1.0) ** 3 - 1.0) / 6.0)


class TestNonlinearity:
    def test_identity_exponents(self):
        F = identity_F()
        assert F.c == F.d == 1.0
        assert F(2.5) == 2.5

    def test_power_exponents(self):
        F = power_F(2.0)
        assert F.c == F.d == 2.0
        assert F(3.0) == 9.0

    def test_rejects_bad_exponent_order(self):
        with pytest.raises(ValueError):
            table_F([1e-3, 1e3], [1e-3, 1e3], c=2.0, d=1.0)

    def test_table_envelope_accepts_linear(self):
        nodes = np.geomspace(1e-3, 1e3, 200)
        F = table_F(nodes, nodes, c=1.0, d=1.0)
        assert F(1.0) == pytest.approx(1.0)

    def test_table_envelope_rejects_mismatched_exponents(self):
        nodes = np.geomspace(1e-3, 1e3, 200)
        with pytest.raises(ValueError):
            table_F(nodes, nodes**2, c=1.0, d=1.0)  # uF'/F = 2 outside [1,1]

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            power_F(0.0)


class TestIntegrateGeneral:
    def test_identity_matches_representation(self, problem):
        spec, profile, B = problem(2)
        traj = integrate_general(spec, identity_F(), t_end=1.0, dt=1e-3)
        final = traj.states[-1]
        want = evaluate_u(profile, B, spec, traj.alpha, final.t)
        rel = np.max(np.abs(final.u - want) / want)
        assert rel <= 1e-8

    def test_power_two_matches_exact_solution(self):
        spec = quadratic_F_spec()
        traj = integrate_general(spec, power_F(2.0), t_end=0.5, dt=1e-3)
        final = traj.states[-1]
        want = u_power2_exact(traj.alpha, final.t)
        rel = np.max(np.abs(final.u - want) / want)
        assert rel <= 1e-6

    def test_boundary_drift_stays_tiny(self, problem):
        spec, _, _ = problem(2)
        traj = integrate_general(spec, identity_F(), t_end=1.0, dt=2e-3)
        assert np.max(traj.drift_rel_dense) <= 1e-10

    def test_cap_stops_the_run(self):
        spec = quadratic_F_spec()
        traj = integrate_general(spec, identity_F(), t_end=5.0, dt=5e-3,
                                 blowup_cap=1e6)
        assert traj.stop_reason == "blowup_cap"
        assert traj.umax_dense[-1] >= 1e6
        assert traj.states[-1].t < 5.0

    def test_compatible_data_accepted_at_any_n_alpha(self):
        # int_0^1 f u0 = -1/4 + 1/2 int sin^2 = 0; Simpson on an even grid
        # misses that by about 4e-6, which once refused n_alpha = 64
        f = FunctionDescriptor("trigonometric", {
            "offset": -0.25, "terms": [[1.0, 1.0, 0.0], [0.7, 2.0, math.pi / 2]]})
        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.5, 1.0, 0.0]]})
        for n in range(32, 130):
            assert check_compatibility(ProblemSpec(f, u0, polynomial(1.0, 2.0), n_alpha=n)).ok
        spec = ProblemSpec(f, u0, polynomial(1.0, 2.0), n_alpha=64)
        traj = integrate_general(spec, identity_F(), t_end=0.05, dt=1e-2)
        assert traj.stop_reason == "t_end"

    def test_incompatible_data_rejected(self):
        spec = ProblemSpec(f=constant(1.0), u0=constant(1.0), g=polynomial(1.0, 2.0))
        with pytest.raises(ValueError):
            integrate_general(spec, identity_F(), t_end=1.0, dt=1e-2)

    def test_rejects_nonpositive_dt(self):
        spec = quadratic_F_spec()
        with pytest.raises(ValueError):
            integrate_general(spec, identity_F(), t_end=1.0, dt=0.0)

    def test_csv(self, tmp_path):
        spec = quadratic_F_spec()
        traj = integrate_general(spec, identity_F(), t_end=0.1, dt=0.01)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, comment="run")
        assert path.read_text().startswith("# run\nt,alpha,u\n")


class TestStepRule:
    T_STAR_2 = (math.sqrt(33.0) - 1.0) / 2.0

    @staticmethod
    def example2(dt):
        # n_alpha = 1025: at 513 the alpha grid alone puts t* off by 2.6e-7
        spec = catalog.example_spec(2, n_alpha=1025)
        return integrate_general(spec, identity_F(), t_end=3.0, dt=dt)

    def test_blowup_bound_sets_the_cost(self):
        traj = self.example2(1e-2)
        assert traj.stop_reason == "blowup_cap"
        assert traj.t_dense.size - 1 <= 400

    @pytest.mark.parametrize("dt", [1e-2, 1e-3])
    def test_blowup_time_from_either_start(self, dt):
        t_ex = detect_blowup(self.example2(dt))["t_extrapolated"]
        assert abs(t_ex - self.T_STAR_2) <= 1e-7

    def test_error_bound_follows_singular_g(self):
        # example 3 at simulate's defaults: g = (1 - t)^-2 up to 1 - 1e-9
        spec = catalog.example_spec(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the drift still exceeds DRIFT_RTOL
            traj = integrate_general(spec, identity_F(), t_end=data_horizon(spec.g, 1.0),
                                     dt=1e-3)
        assert traj.stop_reason == "blowup_cap"
        assert np.max(traj.drift_rel_dense) <= 2e-5

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_no_step_exceeds_dt(self, k):
        spec = catalog.example_spec(k, n_alpha=129)
        dt = 1e-2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = integrate_general(spec, identity_F(), t_end=data_horizon(spec.g, 3.0),
                                     dt=dt)
        steps = np.diff(traj.t_dense)
        assert np.all(steps <= dt + 4.0 * np.spacing(traj.t_dense[1:]))
        assert np.min(steps) < 1e-2 * dt   # the step rule did bind


def test_polynomial_g_and_ratio_is_npoly_bit_for_bit():
    # the integrator's (g, g'/g) against the descriptor's own calls: the
    # Horner loop against npoly.polyval, the kind table against the wrapper
    rng = np.random.default_rng(5)
    for degree in range(6):
        for _ in range(40):
            coeffs = rng.normal(size=degree + 1)
            coeffs[0] = 1.0 + abs(coeffs[0])
            g = polynomial(*coeffs)
            g_and_ratio = _g_and_ratio(g)
            for t in rng.uniform(0.0, 10.0, 10).tolist():
                assert g_and_ratio(t) == (g(t), g.derivative(t) / g(t))
    with pytest.raises(ValueError, match="non-finite"):
        _g_and_ratio(polynomial(1.0, 1e308))(10.0)

    others = [
        (exponential(1.7, -0.3), 0.0, 10.0),
        (exponential(0.4, 2.1), 0.0, 10.0),
        (singular_boundary(1.0), 0.0, 0.999),
        (singular_boundary(0.3, t_b=2.5), 0.0, 2.49),
        (FunctionDescriptor("trigonometric", {"offset": 2.0, "terms": [[0.7, 1.0, 0.2],
                                                                       [0.3, 3.0, 0.0]]}),
         0.0, 10.0),
        (FunctionDescriptor("table", {"nodes": [0.0, 1.0, 2.5, 4.0],
                                      "values": [1.0, 3.0, 0.5, 2.0]}), 0.0, 4.0),
    ]
    for g, lo, hi in others:
        g_and_ratio = _g_and_ratio(g)
        for t in rng.uniform(lo, hi, 200).tolist() + [lo, hi]:
            assert g_and_ratio(t) == (g(t), g.derivative(t) / g(t))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        _g_and_ratio(exponential(1.0, 1.0))(800.0)
    with pytest.raises(ValueError, match="finite only on"):
        _g_and_ratio(singular_boundary(1.0))(1.0)


class TestH0:
    def test_quadratic_H0(self):
        spec = quadratic_F_spec()
        out = compute_H0_alpha0(spec, power_F(2.0))
        assert out["alpha0"] == pytest.approx(0.5, abs=1e-12)
        assert out["H0_alpha0"] == pytest.approx(0.25, abs=1e-10)
        assert out["hypotheses_ok"]
        assert out["H0"](0.25) == pytest.approx(0.1875, abs=1e-10)

    @pytest.mark.parametrize("n_alpha", [64, 65])
    def test_H0_at_alpha0_from_the_partial_cell(self, n_alpha):
        # alpha0 = (pi/2 - 0.3)/(2 pi) is mid-cell; H0(alpha0) takes Simpson's
        # rule on the partial cell, not a chord between nodes
        import mpmath

        f = FunctionDescriptor("trigonometric", {"offset": 0.0,
                                                 "terms": [[1.0, 1.0, 0.3 + math.pi / 2]]})
        u0 = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.3, 1.0, 0.0]]})
        spec = ProblemSpec(f=f, u0=u0, g=polynomial(1.0, 2.0), n_alpha=n_alpha)
        out = compute_H0_alpha0(spec, power_F(2.0))
        with mpmath.workdps(30):
            c = mpmath.mpf("0.3")
            a0 = (mpmath.pi / 2 - c) / (2 * mpmath.pi)
            want = float(mpmath.quad(lambda z: mpmath.cos(2 * mpmath.pi * z + c)
                                     * (1 + c * mpmath.sin(2 * mpmath.pi * z)) ** 2, [0, a0]))
        assert out["alpha0"] == pytest.approx(float(a0), abs=1e-15)
        assert out["H0_alpha0"] == pytest.approx(want, abs=1e-7)


    def test_one_window_for_hypotheses_and_envelopes(self):
        # alpha0 = 0.4999999999995 sits a rounding below the node 0.5; H0 > 0
        # is asked on the same nodes the envelopes are sampled on
        spec = ProblemSpec(f=polynomial(1.0 - 1e-12, -2.0), u0=constant(1.0),
                           g=polynomial(1.0, 2.0), n_alpha=129)
        info = compute_H0_alpha0(spec, identity_F())
        assert info["alpha0"] == 0.4999999999995
        assert info["hypotheses_ok"]
        window_nodes = spec.alpha_grid()[info["window"]]
        assert window_nodes[0] > 0.0 and window_nodes[-1] == 0.5
        traj = integrate_general(spec, identity_F(), t_end=0.5, dt=0.05)
        report = blowup_bounds(spec, identity_F(), traj)
        assert np.array_equal(report.domain_nodes, window_nodes)


class TestPowerIntegral:
    def test_polynomial_power(self):
        # int (2s+1)^2 = ((2t+1)^3 - 1)/6
        got = power_integral(polynomial(1.0, 2.0), 2.0, 1.0)
        assert got == pytest.approx(26.0 / 6.0, rel=1e-12)

    def test_exponential_power(self):
        got = power_integral(exponential(1.0, -1.0), 3.0, 2.0)
        assert got == pytest.approx((1.0 - math.exp(-6.0)) / 3.0, rel=1e-12)

    def test_singular_power(self):
        from liouville_workbench import singular_boundary
        # beta = 1, power = 2: k = 4, int (1-s)^-4 = ((1-t)^-3 - 1)/3
        got = power_integral(singular_boundary(1.0), 2.0, 0.5)
        assert got == pytest.approx((8.0 - 1.0) / 3.0, rel=1e-12)

    def test_singular_log_case(self):
        from liouville_workbench import singular_boundary
        # beta = 1, power = 1/2: k = 1, integral is -ln(1-t)
        got = power_integral(singular_boundary(1.0), 0.5, 0.5)
        assert got == pytest.approx(math.log(2.0), rel=1e-10)

    def test_limit_exponential(self):
        value, estimated = power_integral_limit(exponential(1.0, -1.0), 3.0)
        assert value == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert not estimated

    def test_limit_polynomial_diverges(self):
        value, estimated = power_integral_limit(polynomial(1.0, 2.0), 1.0)
        assert math.isinf(value)
        assert not estimated


class TestBounds:
    def test_nondecreasing_g_lower_envelope(self):
        spec = quadratic_F_spec()
        traj = integrate_general(spec, power_F(2.0), t_end=1.2, dt=1e-3,
                                 blowup_cap=1e8)
        report = blowup_bounds(spec, power_F(2.0), traj)
        assert report.monotonicity == "nondecreasing"
        assert report.predicted == "FiniteBlowup"
        assert report.t_star_bound == pytest.approx(4.0, rel=1e-9)
        assert report.min_lower_margin >= -1e-6
        assert report.upper_envelope is None
        assert len(report.violations) == 0

    def test_nonincreasing_g_two_sided(self):
        spec = quadratic_F_spec(g=exponential(1.0, -1.0))
        traj = integrate_general(spec, identity_F(), t_end=30.0, dt=0.01)
        report = blowup_bounds(spec, identity_F(), traj)
        assert report.monotonicity == "nonincreasing"
        assert report.predicted == "Global"  # int g = 1 <= 2/(d H0) = 8
        assert report.int_gc_limit == pytest.approx(1.0, rel=1e-12)
        assert report.min_lower_margin >= -1e-6
        assert report.min_upper_margin >= -1e-6

    def test_slow_decay_blows_up_at_crossing(self):
        spec = quadratic_F_spec(g=exponential(1.0, -1.0 / 32.0))
        traj = integrate_general(spec, identity_F(), t_end=12.0, dt=5e-3,
                                 blowup_cap=1e8)
        report = blowup_bounds(spec, identity_F(), traj)
        assert report.predicted == "FiniteBlowup"  # int g = 32 > 8
        want = 32.0 * math.log(4.0 / 3.0)
        assert report.crossing_time == pytest.approx(want, rel=1e-9)
        assert traj.stop_reason == "blowup_cap"

    def test_crossing_past_table_data_is_absent(self):
        # int g^d reaches the threshold 2/(c H0(alpha0)) = 8 only past t = 8,
        # where the table has no data; the limit itself is a flagged estimate
        g = FunctionDescriptor("table", {"nodes": [0.0, 1.0, 2.0, 4.0, 8.0],
                                         "values": [1.0, 0.8, 0.6, 0.4, 0.3]})
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=g, n_alpha=65)
        traj = integrate_general(spec, identity_F(), t_end=1.0, dt=0.01)
        report = blowup_bounds(spec, identity_F(), traj)
        assert report.monotonicity == "nonincreasing"
        assert report.predicted == "FiniteBlowup"
        assert report.limits_estimated
        assert report.crossing_time is None

    @staticmethod
    def loop_reference(spec, F, traj, report):
        # the envelopes built row by row and the violations entry by entry,
        # as blowup_bounds once did
        info = compute_H0_alpha0(spec, F)
        domain = info["window"]
        times, dom_nodes = traj.state_times, traj.alpha[domain]
        g_t = np.asarray(spec.g(times))
        u0_dom = np.asarray(spec.u0(dom_nodes))
        H0_dom = info["H0"].values[domain]

        def envelope(I, e):
            env = np.empty((times.size, dom_nodes.size))
            for i in range(times.size):
                arg = 1.0 - 0.5 * e * H0_dom * I[i]
                with np.errstate(over="ignore", divide="ignore"):
                    env[i] = np.where(arg > 0,
                                      g_t[i] * u0_dom / np.maximum(arg, 1e-300) ** (2.0 / e),
                                      np.inf)
            return env

        if report.monotonicity == "nondecreasing":
            lower, upper = envelope(times, F.c), None
        else:
            lower = envelope(np.asarray(power_integral(spec.g, F.d, times)), F.c)
            upper = envelope(np.asarray(power_integral(spec.g, F.c, times)), F.d)
        u_states = np.array([s.u[domain] for s in traj.states])
        violations, min_margins = [], []
        for side, env in (("lower", lower), ("upper", upper)):
            if env is None:
                min_margins.append(None)
                continue
            finite = np.isfinite(env)
            sign = 1.0 if side == "lower" else -1.0
            margins = np.where(finite, sign * (u_states - env) / np.where(finite, env, 1.0),
                               np.nan)
            min_margins.append(float(np.nanmin(margins)) if np.any(finite) else None)
            for i, j in np.argwhere(margins < 0)[:1000]:
                violations.append((float(dom_nodes[j]), float(times[i]), float(margins[i, j]),
                                   side))
        return lower, upper, min_margins, tuple(violations)

    @pytest.mark.parametrize("case", ["decaying_identity", "increasing_cube", "table_c_below_d"])
    def test_whole_array_bounds_match_the_loops(self, case):
        if case == "decaying_identity":
            spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                               g=exponential(1.0, -0.5), n_alpha=129)
            F, t_end, dt, cap = identity_F(), 4.0, 0.04, 1e4
        elif case == "increasing_cube":
            spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                               g=polynomial(1.0, 2.0), n_alpha=129)
            F, t_end, dt, cap = power_F(3.0), 1.0, 1e-2, 1e6
        else:
            nodes = np.geomspace(1e-3, 1e3, 400)
            spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                               g=exponential(1.0, -1.0), n_alpha=129)
            F, t_end, dt, cap = table_F(nodes, nodes**1.5, c=1.0, d=2.0), 5.0, 0.05, 1e8
        traj = integrate_general(spec, F, t_end=t_end, dt=dt, blowup_cap=cap)
        report = blowup_bounds(spec, F, traj)
        lower, upper, (lo_min, up_min), violations = self.loop_reference(spec, F, traj, report)
        assert np.array_equal(report.lower_envelope, lower)
        if upper is None:
            assert report.upper_envelope is None
        else:
            assert np.array_equal(report.upper_envelope, upper)
        assert report.min_lower_margin == lo_min
        assert report.min_upper_margin == up_min
        assert report.violations == violations
        if case == "decaying_identity":   # c == d: one envelope, both sides capped
            assert report.lower_envelope is report.upper_envelope
            assert [v[3] for v in violations].count("lower") == 1000
            assert [v[3] for v in violations].count("upper") == 1000
        elif case == "increasing_cube":
            assert report.monotonicity == "nondecreasing"
        else:   # c < d: the envelopes differ
            assert report.monotonicity == "nonincreasing"
            assert not np.array_equal(lower, upper)

    def test_detect_blowup_times(self):
        spec = quadratic_F_spec(g=exponential(1.0, -1.0 / 32.0))
        traj = integrate_general(spec, identity_F(), t_end=12.0, dt=5e-3,
                                 blowup_cap=1e8)
        out = detect_blowup(traj)
        want = 32.0 * math.log(4.0 / 3.0)
        assert out["blew_up"]
        assert out["location"] == pytest.approx(0.5, abs=2e-3)
        assert out["t_numeric"] <= want
        assert out["t_numeric"] == pytest.approx(want, abs=0.05)
        assert out["t_extrapolated"] == pytest.approx(want, abs=0.05)

    def test_no_detection_on_bounded_run(self):
        spec = quadratic_F_spec(g=exponential(1.0, -1.0))
        traj = integrate_general(spec, identity_F(), t_end=5.0, dt=0.01)
        out = detect_blowup(traj)
        assert not out["blew_up"]
        assert out["t_numeric"] is None
