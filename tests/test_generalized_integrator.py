import dataclasses
import math
import warnings

import numpy as np
import pytest

from liouville_workbench import (
    FunctionDescriptor,
    Nonlinearity,
    ProblemSpec,
    blowup_bounds,
    build_psi0,
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
from liouville_workbench import generalized_integrator as gi
from liouville_workbench import problem_model as pm
from liouville_workbench.generalized_integrator import _g_and_ratio
from liouville_workbench.problem_model import data_horizon


_F_NODES = np.geomspace(1e-3, 1e3, 400)


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
        with pytest.raises(ValueError, match="^F: power p must be positive and finite, got 0.0"):
            power_F(0.0)

    def test_constants_come_from_the_kind(self):
        # c and d are no arguments: identity reads 1, power reads p
        F = identity_F()
        assert (F.c, F.d) == (1.0, 1.0)
        F = Nonlinearity("power", {"p": 3})
        assert F.c == F.d == 3.0 and F.params == {"p": 3.0}
        with pytest.raises(TypeError):
            Nonlinearity("identity", 2.0, 2.0, {})
        # so on example 2 the bound 2/(c H0(alpha0)) reads c = 1: 2/(1/4) = 8
        spec = catalog.example_spec(2, n_alpha=129)
        traj = integrate_general(spec, identity_F(), t_end=0.5, dt=0.05)
        assert blowup_bounds(spec, identity_F(), traj).t_star_bound == 8.0

    @pytest.mark.parametrize("p", [-1.0, math.nan, math.inf])
    def test_rejects_power_outside_zero_to_inf(self, p):
        with pytest.raises(ValueError, match="^F: power p must be positive and finite"):
            power_F(p)

    def test_from_dict_reads_a_general_F_block(self):
        assert Nonlinearity.from_dict({}) == identity_F()
        assert Nonlinearity.from_dict({"kind": "power", "p": 2}) == power_F(2.0)
        F = Nonlinearity.from_dict({"kind": "table", "nodes": [0.5, 1.0, 2.0],
                                    "values": [0.5, 1.0, 2.0], "c": 1, "d": 1})
        assert (F.c, F.d) == (1.0, 1.0) and F(1.5) == 1.5
        # JSON lists and table_F's arrays are both read as tuples of floats
        assert F == table_F(np.array([0.5, 1.0, 2.0]), [0.5, 1, 2], 1, 1)
        assert F.params["values"] == (0.5, 1.0, 2.0) and Nonlinearity.from_dict(F.to_dict()) == F
        for bad in ("x", None, {"kind": "cubic"}, {"kind": "table", "nodes": [1.0, 2.0]}):
            with pytest.raises(ValueError, match="^F: "):
                Nonlinearity.from_dict(bad)


class TestIntegrateGeneral:
    def test_identity_matches_representation(self, problem):
        spec, profile, B = problem(2)
        traj = integrate_general(spec, identity_F(), t_end=1.0, dt=1e-3)
        want = evaluate_u(profile, B, spec, traj.alpha, traj.times[-1])
        rel = np.max(np.abs(traj.u[-1] - want) / want)
        assert rel <= 1e-8

    def test_power_two_matches_exact_solution(self):
        spec = quadratic_F_spec()
        traj = integrate_general(spec, power_F(2.0), t_end=0.5, dt=1e-3)
        want = u_power2_exact(traj.alpha, traj.times[-1])
        rel = np.max(np.abs(traj.u[-1] - want) / want)
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
        assert traj.times[-1] < 5.0
        # the last row is the cap state
        assert traj.times[-1] == traj.t_dense[-1] and traj.u[-1].max() == traj.umax_dense[-1]

    def test_states_are_stored_every_store_every_th_step_and_at_the_end(self):
        # g = 1 and a slow u: no bound binds, so every step is dt, and u is
        # stored at t = 0, every store_every-th step and the end, each at its step's time
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=constant(1.0), n_alpha=65)
        t_end, dt = 1.003, 1e-3
        traj = integrate_general(spec, identity_F(), t_end=t_end, dt=dt)
        steps, every = traj.t_dense.size - 1, max(1, round(t_end / dt / 256))
        assert traj.stop_reason == "t_end" and np.allclose(np.diff(traj.t_dense), dt, rtol=1e-9)
        assert (steps, every) == (1003, 4)
        assert len(traj.times) == 1 + steps // every + (1 if steps % every else 0)
        stored = list(range(0, steps + 1, every)) + ([steps] if steps % every else [])
        assert traj.times.tolist() == traj.t_dense[stored].tolist()
        assert traj.u.shape == (len(traj.times), 65)
        assert traj.u.max(axis=1).tolist() == traj.umax_dense[stored].tolist()

    def test_a_step_that_cannot_pass_its_error_test_raises(self, monkeypatch):
        # g = 1 + 1.5 sin(2 pi 51.2 t) nears zero at t = 0.012034, where the
        # rounding of g alone is about the step tolerance: no step passes, and
        # accepting steps of dt 1e-12 anyway once stalled t there for the
        # whole step limit, storing states all the while
        monkeypatch.setattr(gi, "_MAX_STEPS", 1000)
        g = FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[1.5, 51.2, 0.0]]})
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=g, n_alpha=33)
        with pytest.raises(RuntimeError, match=r"^a step of .* at t=0\.01203\d*, g\(t\)=.*, fails: "
                                               r"error .*, tolerance 1e-10"):
            integrate_general(spec, identity_F(), t_end=1.0, dt=1e-3)

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

    def test_nan_u_is_a_numerical_failure(self):
        # u^80 overflows, and 0 * inf at f's zero alpha = 1/2 gives NaN, which
        # compares false against 0 and the growth and step-error tests alike
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="u became NaN at"):
            integrate_general(catalog.example_spec(2, n_alpha=129), power_F(80), t_end=0.05, dt=1e-3)

    def test_a_nonpositive_stage_input_raises_before_F_reads_it(self):
        # k1 = u psi = -50 a (1 - a) prices no step limit (max u at a = 0 has rate 0),
        # so stage 2 of the first step is u + 0.25 k1, -2.125 at a = 1/2; u^0.5
        # would raise FloatingPointError on it under errstate(all="raise")
        spec = ProblemSpec(f=polynomial(-50.0, 100.0), u0=constant(1.0), g=constant(1.0), n_alpha=129)
        with np.errstate(all="raise"), pytest.raises(RuntimeError) as info:
            integrate_general(spec, power_F(0.5), t_end=1.0, dt=0.5)
        assert str(info.value) == ("u became nonpositive at t=0.25, alpha=0.5 (u=-2.125e+00); "
                                   "reduce dt or the blow-up cap")

    def test_table_F_read_past_its_nodes_warns(self):
        # the README's table, F = u on [0.5, 2]: on example 2 u passes 2, where F
        # holds F(2) = 2, so the run reaches t = 2.5 with no blow-up (F = u blows up at 2.372)
        F = table_F([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 1.0, 1.0)
        with pytest.warns(UserWarning, match=r"^table F holds its end values outside its nodes "
                                             r"\[0\.5, 2\]; u reached \[1, 19\.8"):
            traj = integrate_general(catalog.example_spec(2, n_alpha=129), F, t_end=2.5, dt=1e-3)
        assert traj.stop_reason == "t_end"

    def test_table_F_inside_its_nodes_is_silent(self):
        # the tables on [1e-3, 1e3] the other tests integrate, with their data and
        # times: no warning, and envelope reports that keep their hypotheses and verdicts
        F = table_F(_F_NODES, _F_NODES ** 1.5, c=1.0, d=2.0)
        runs = [(ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=exponential(1.0, 0.3),
                             n_alpha=n), 2.0, 0.5, 1e8) for n in (64, 65)]
        runs += [(quadratic_F_spec(g=exponential(1.0, -1.0 / 8.0)), 1.0, 0.05, 1e8),
                 (ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=exponential(1.0, -1.0),
                              n_alpha=129), 5.0, 0.05, 1e8)]
        predicted = ["FiniteBlowup", "FiniteBlowup", "Indeterminate", "Global"]
        for (spec, t_end, dt, cap), want in zip(runs, predicted):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traj = integrate_general(spec, F, t_end=t_end, dt=dt, blowup_cap=cap)
            assert not [w for w in caught if "table F" in str(w.message)]
            report = blowup_bounds(spec, F, traj)
            assert report.hypotheses_ok and report.t_star_bound is not None
            assert report.predicted == want

    @pytest.mark.parametrize("n_alpha", [64, 65])
    @pytest.mark.parametrize("F", [identity_F(), power_F(2.0),
                                   table_F(_F_NODES, _F_NODES ** 1.5, c=1.0, d=2.0)],
                             ids=["u", "u^2", "table"])
    def test_reused_buffers_keep_runs_equal_and_states_apart(self, F, n_alpha, monkeypatch):
        # every stage runs on buffers allocated once per run: a second run on
        # the same spec is the first bit for bit, times and u included, and the
        # two runs' u share no memory
        spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0), g=exponential(1.0, 0.3),
                           n_alpha=n_alpha)
        calls = []
        bind = gi._g_and_ratio
        monkeypatch.setattr(gi, "_g_and_ratio",
                            lambda g: lambda t, pair=bind(g): calls.append(t) or pair(t))
        first = integrate_general(spec, F, t_end=2.0, dt=0.5)
        # one call at t = 0, then two per trial step: a step at dt = 0.5 was rejected
        assert (len(calls) - 1) // 2 > first.t_dense.size - 1
        second = integrate_general(spec, F, t_end=2.0, dt=0.5)
        for name in ("t_dense", "umax_dense", "argmax_dense", "drift_rel_dense", "alpha"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
        assert first.stop_reason == second.stop_reason
        assert first.times.tobytes() == second.times.tobytes()
        assert first.u.tobytes() == second.u.tobytes()
        assert first.u.shape == (first.times.size, n_alpha)
        assert not np.shares_memory(first.u, second.u)

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


def test_g_and_ratio_binds_a_table_once(monkeypatch):
    # the table's GridFunction and its power-1 node integrals are built once
    # per descriptor, not per read, and the domain check stays
    built = []
    grid_function = pm.GridFunction
    monkeypatch.setattr(pm, "GridFunction", lambda *args: built.append(args) or grid_function(*args))
    table = FunctionDescriptor("table", {"nodes": [0.0, 1.0, 2.5, 4.0],
                                         "values": [1.0, 3.0, 0.5, 2.0]})
    ts = np.linspace(0.0, 4.0, 17).tolist()
    want = [(table(t), table.derivative(t) / table(t)) for t in ts]
    g_and_ratio = _g_and_ratio(table)
    assert [g_and_ratio(t) for t in ts] == want
    area = power_integral(table, 1.0, 2.0)
    cum = table.bound.node_integrals[1.0]
    assert power_integral(table, 1.0, 2.0) == area and table.bound.node_integrals[1.0] is cum
    assert len(built) == 1
    with pytest.raises(ValueError, match="outside the table's declared domain"):
        g_and_ratio(4.0 + 1e-9)


def test_singular_g_on_a_float_and_on_arrays():
    # a float compare on a 0-d t, np.any on an array: the same values and the same error
    kind = singular_boundary(0.7).bound
    ts = np.array([0.0, 0.25, 0.5, 0.999])
    np.testing.assert_array_equal([kind.value(t) for t in ts.tolist()], kind.value(ts))
    for t in (1.0, np.float64(1.5), np.array(1.0), np.array([0.5, 1.0])):
        with pytest.raises(ValueError, match=r"finite only on \[0, t_b=1.0\)"):
            kind.value(t)
    # a table g too, with the error just past its 1e-12 slack at either end
    value = FunctionDescriptor("table", {"nodes": [0.0, 1.0, 2.0, 4.0],
                                         "values": [1.0, 1.5, 2.0, 3.0]}).bound.value
    ts = np.array([-1e-12, 0.0, 1.2345, 2.0, 4.0 + 1e-12])
    np.testing.assert_array_equal([value(t) for t in ts.tolist()], value(ts))
    for t in (-2e-12, 4.0 + 2e-12, np.float64(-2e-12), np.array(4.0 + 2e-12), np.array([1.0, 4.0 + 2e-12]),
              np.array([-2e-12, 1.0])):
        with pytest.raises(ValueError, match="outside the table's declared domain"):
            value(t)


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
        # alpha0 = (pi/2 - 0.3)/(2 pi) is mid-cell; H0(alpha0) takes the cell
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


    _COS_U0_ONE = ProblemSpec(f=FunctionDescriptor("trigonometric", {"terms": [[1.0, 1.0, math.pi / 2]]}),
                              u0=constant(1.0), g=polynomial(1.0, 2.0), n_alpha=129)

    @pytest.mark.parametrize("spec, F", [
        (ProblemSpec(f=polynomial(1.0, -2.0), u0=polynomial(1.0, 0.5, -0.5), g=polynomial(1.0, 2.0)),
         identity_F()),
        (ProblemSpec(f=FunctionDescriptor("trigonometric", {"terms": [[1.0, 1.0, math.pi / 2]]}),
                     u0=FunctionDescriptor("trigonometric", {"offset": 1.0, "terms": [[0.3, 1.0, 0.0]]}),
                     g=polynomial(1.0, 2.0), n_alpha=257), identity_F()),
        # f F(u0) = f = cos 2 pi a for every F with F(1) = 1: H0 is psi0's closed form
        (_COS_U0_ONE, identity_F()),
        (_COS_U0_ONE, power_F(2.0)),
        (_COS_U0_ONE, table_F([0.5, 1.0, 2.0], [0.5**1.5, 1.0, 2.0**1.5], 1.0, 2.0)),
    ], ids=["polynomial", "trigonometric", "cos-u0-one-u", "cos-u0-one-u^2", "cos-u0-one-table"])
    def test_identity_H0_is_the_quadrature_psi0(self, spec, F):
        # one builder: when f F(u0) is f u0 (F = u, or u0 = 1 and F(1) = 1)
        # H0 is psi0 bit for bit, closed form exactly when psi0 has one, and
        # the compatibility defect is psi0's
        info, psi0 = compute_H0_alpha0(spec, F), build_psi0(spec)
        assert info["H0"].values.tobytes() == psi0.psi0.values.tobytes()
        assert info["alpha0"] == psi0.alpha0
        assert info["H0_alpha0"] == psi0.value(psi0.alpha0)
        assert check_compatibility(spec, F).defect == check_compatibility(spec).defect

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

    def test_hypotheses_fail_not_applicable(self):
        # example 1: H0 = int (2a - 1) < 0 on (0, alpha0]
        spec = catalog.example_spec(1, n_alpha=129)
        traj = integrate_general(spec, identity_F(), t_end=0.5, dt=0.05)
        report = blowup_bounds(spec, identity_F(), traj)
        assert report.predicted == "NotApplicable"
        assert not report.hypotheses_ok and report.t_star_bound is None

    def test_u_past_a_table_F_is_not_applicable(self):
        # the README's table, F = u on [0.5, 2], held at F(2) = 2 past u = 2, where
        # u F' = 0 < c F: the run passes t_star_bound = 8 with no blow-up (max u
        # 1618), so the report, like one with H0 <= 0, makes no prediction
        spec, F = catalog.example_spec(2, n_alpha=129), table_F([0.5, 1.0, 2.0], [0.5, 1.0, 2.0], 1.0, 1.0)
        with pytest.warns(UserWarning, match=r"u reached \[1, 1618\.\d+\]"):
            traj = integrate_general(spec, F, t_end=9.0, dt=1e-3)
        assert traj.stop_reason == "t_end" and not detect_blowup(traj)["blew_up"]
        report = blowup_bounds(spec, F, traj)
        assert report.predicted == "NotApplicable"
        assert not report.hypotheses_ok and report.t_star_bound is None
        assert report.crossing_time is None and report.violations == ()

    def test_mixed_monotonicity_not_applicable(self):
        # g = 1 + 2t - t^2 rises until t = 1, then falls; the bound is still reported
        spec = dataclasses.replace(catalog.example_spec(2, n_alpha=129), g=polynomial(1.0, 2.0, -1.0))
        traj = integrate_general(spec, identity_F(), t_end=1.5, dt=0.05)
        report = blowup_bounds(spec, identity_F(), traj)
        assert report.predicted == "NotApplicable" and report.monotonicity == "mixed"
        assert report.hypotheses_ok and report.t_star_bound == 8.0
        assert report.lower_envelope is None and report.violations == ()

    def test_between_thresholds_indeterminate(self):
        # F = u^1.5 tabulated (c = 1, d = 2), g = e^(-t/8): int g^d = 4 is below
        # the blow-up threshold 2/(c H0(alpha0)) ~ 8, int g^c = 8 above the
        # global one 2/(d H0(alpha0)) ~ 4
        spec = quadratic_F_spec(g=exponential(1.0, -1.0 / 8.0))
        F = table_F(_F_NODES, _F_NODES ** 1.5, c=1.0, d=2.0)
        traj = integrate_general(spec, F, t_end=1.0, dt=0.05)
        report = blowup_bounds(spec, F, traj)
        assert report.monotonicity == "nonincreasing"
        assert report.predicted == "Indeterminate" and report.crossing_time is None
        assert report.int_gd_limit == pytest.approx(4.0, rel=1e-12)
        assert report.int_gc_limit == pytest.approx(8.0, rel=1e-12)
        assert report.int_gd_limit <= report.t_star_bound == pytest.approx(8.0, rel=1e-3)
        assert report.int_gc_limit > 2.0 / (F.d * report.H0_alpha0)

    @staticmethod
    def margin_reference(traj, domain, lower, upper):
        # margins with the finite-envelope masks, violations in 2-D np.nonzero
        # order cut to 1000 per side, as blowup_bounds once did; also the
        # uncut count of each side
        times, dom_nodes = traj.times, traj.alpha[domain]
        u_states = traj.u[:, domain]
        violations, min_margins, counts = [], [], []
        for side, env in (("lower", lower), ("upper", upper)):
            if env is None:
                min_margins.append(None)
                continue
            finite = np.isfinite(env)
            sign = 1.0 if side == "lower" else -1.0
            margins = np.where(finite, sign * (u_states - env) / np.where(finite, env, 1.0),
                               np.nan)
            min_margins.append(float(np.nanmin(margins)) if np.any(finite) else None)
            rows, cols = np.nonzero(margins < 0)
            counts.append(rows.size)
            for i, j in zip(rows[:1000], cols[:1000]):
                violations.append((float(dom_nodes[j]), float(times[i]), float(margins[i, j]),
                                   side))
        return min_margins, tuple(violations), counts

    @classmethod
    def loop_reference(cls, spec, F, traj, report):
        # the envelopes built row by row, as blowup_bounds once did
        info = compute_H0_alpha0(spec, F)
        domain = info["window"]
        times, dom_nodes = traj.times, traj.alpha[domain]
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
        return (lower, upper) + cls.margin_reference(traj, domain, lower, upper)[:2]

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
        # the margins again from the report's own envelopes and the whole states
        domain = compute_H0_alpha0(spec, F)["window"]
        mins, again, counts = self.margin_reference(traj, domain, report.lower_envelope,
                                                    report.upper_envelope)
        assert mins == [report.min_lower_margin, report.min_upper_margin]
        assert again == report.violations
        if case == "decaying_identity":   # c == d: one envelope, both sides past the cap
            assert report.lower_envelope is report.upper_envelope
            assert min(counts) > 1000
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
