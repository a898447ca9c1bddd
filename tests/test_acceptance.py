"""Acceptance suite: one test per headline capability, one verdict line each.

Each test prints (and records for the terminal summary) a single
"PASS criterion NN" or "FAIL criterion NN" line with the measured numbers,
then asserts.  Criterion 05 appears twice: the literal probe time is kept as
a strict expected failure because the beta = 1.5 interior decay is too slow
to pass at t = 1 - 1e-4 (u(0.5) ~ 1.44, far above the 1e-2 threshold; the
limit itself is still zero), and a second test checks the same taxonomy at
t = 1 - 1e-9 where both inequalities hold.
"""

import math

import numpy as np
import pytest

from liouville_workbench import (
    ProblemSpec,
    blowup_bounds,
    build_G,
    build_psi0,
    catalog,
    classify,
    constant,
    detect_blowup,
    evaluate_field,
    evaluate_u,
    exponential,
    gamma_identity,
    identity_F,
    integrate_general,
    jump_transport,
    lp_blowup_fit,
    pde_residual,
    polynomial,
    power_F,
    r_invariance,
    schwarzian,
    singular_boundary_report,
)
from liouville_workbench.problem_model import GridFunction

T_STAR_2 = 0.5 * (math.sqrt(33.0) - 1.0)

REPORT_LINES = []


def _report(ok: bool, label: str, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_example2_blowup_time(problem):
    spec, profile, B = problem(2)
    analytic = classify(profile, B, spec)
    err_analytic = abs(analytic.t_star - T_STAR_2)

    spec_q = catalog.example_spec(2, n_alpha=1025)
    profile_q = build_psi0(spec_q, method="quadrature")
    B_q = build_G(spec_q, t_max=3.0, method="quadrature")
    quad = classify(profile_q, B_q, spec_q)
    err_quad = abs(quad.t_star - T_STAR_2)
    cell = 1.0 / 1024.0
    loc_err = abs(quad.blowup_locations[0] - 0.5)

    ok = (err_analytic <= 1e-6 and err_quad <= 1e-3 and loc_err <= cell
          and analytic.verdict == "FiniteBlowup")
    _report(ok, "criterion 01 (example 2 blow-up time)",
            f"analytic err {err_analytic:.2e} (tol 1e-6), quadrature err "
            f"{err_quad:.2e} (tol 1e-3), location err {loc_err:.2e} (tol {cell:.2e})")


def test_criterion_02_example4_interior_before_boundary(problem):
    spec, profile, _ = problem(4)
    report = singular_boundary_report(profile, spec)
    err_t = abs(report.t_star - 8.0 / 9.0)

    idx = np.array([16 + 24 * i for i in range(10)] + [272 + 24 * i for i in range(10)])
    alphas = idx / 512.0
    want = (9.0 / (1.0 - 4.0 * alphas + 4.0 * alphas**2)) ** 2
    got = report.final_profile(alphas)
    rel = float(np.max(np.abs(got - want) / want))

    ok = err_t <= 1e-9 and report.t_star < 1.0 and rel <= 1e-6
    _report(ok, "criterion 02 (example 4 interior blow-up under singular g)",
            f"t* err {err_t:.2e} (tol 1e-9), t* {report.t_star:.9f} < 1, "
            f"profile rel err {rel:.2e} at 20 points (tol 1e-6)")


def test_criterion_03_example1_global_field(problem):
    spec, profile, B = problem(1)
    t_nodes = np.linspace(0.0, 10.0, 201)
    fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_nodes)
    unmasked = not fld.singular_mask.any()
    positive = bool(np.all(fld.values > 0))

    alphas = spec.alpha_grid()[1:-1]
    want = 21.0 / (1.0 - 55.0 * (alphas**2 - alphas)) ** 2
    rel = float(np.max(np.abs(fld.row(10.0)[1:-1] - want) / want))

    ok = unmasked and positive and rel <= 1e-10
    _report(ok, "criterion 03 (example 1 global field)",
            f"unmasked={unmasked}, positive={positive}, t=10 interior rel err "
            f"{rel:.2e} (tol 1e-10)")


def test_criterion_04_example3_boundary_dominant(problem):
    spec, profile, _ = problem(3)
    report = singular_boundary_report(profile, spec)
    locs = np.sort(np.atleast_1d(report.blowup_locations))
    at_omega = locs.size == 2 and abs(locs[0]) <= 1e-9 and abs(locs[1] - 1.0) <= 1e-9

    rels = []
    for alpha in (0.25, 0.5, 0.75):
        want = 4.0 / (alpha**2 - alpha) ** 2
        rels.append(abs(report.final_profile(alpha) - want) / want)
    rel = max(rels)

    ok = (report.verdict == "BoundaryInducedBlowup" and at_omega
          and report.t_star == pytest.approx(1.0) and rel <= 1e-6)
    _report(ok, "criterion 04 (example 3 boundary-dominant blow-up)",
            f"verdict {report.verdict}, divergence at {{0, 1}}={at_omega}, "
            f"interior limit rel err {rel:.2e} (tol 1e-6)")


def _beta_taxonomy_probe(t_probe: float):
    base = catalog.example_spec(3)
    results = {}
    for beta in (0.5, 1.5):
        spec = catalog.with_beta(base, beta)
        profile = build_psi0(spec)
        report = singular_boundary_report(profile, spec)
        interior = {str(tag) for tag in report.profile_limits[1:-1]}
        B = build_G(spec, t_max=0.5)
        u_mid = float(evaluate_u(profile, B, spec, 0.5, t_probe))
        results[beta] = (interior, u_mid)
    return results


@pytest.mark.xfail(strict=True, reason="interior decay for beta=1.5 is ~sqrt(1-t); "
                   "at t = 1-1e-4 the midpoint value is ~1.44, not yet below 1e-2")
def test_criterion_05_beta_taxonomy_literal():
    res = _beta_taxonomy_probe(1.0 - 1e-4)
    ok = (res[0.5][0] == {"infinite"} and res[1.5][0] == {"zero"}
          and res[0.5][1] > 1e3 and res[1.5][1] < 1e-2)
    _report(ok, "criterion 05 (beta taxonomy, literal probe t=1-1e-4)",
            f"limits beta=0.5 {sorted(res[0.5][0])}, beta=1.5 {sorted(res[1.5][0])}; "
            f"u(0.5) = {res[0.5][1]:.4g} (>1e3), {res[1.5][1]:.4g} (<1e-2)")


def test_criterion_05_beta_taxonomy_intent():
    res = _beta_taxonomy_probe(1.0 - 1e-9)
    ok = (res[0.5][0] == {"infinite"} and res[1.5][0] == {"zero"}
          and res[0.5][1] > 1e3 and res[1.5][1] < 1e-2)
    _report(ok, "criterion 05 (beta taxonomy, probe t=1-1e-9)",
            f"limits beta=0.5 {sorted(res[0.5][0])}, beta=1.5 {sorted(res[1.5][0])}; "
            f"u(0.5) = {res[0.5][1]:.4g} (>1e3), {res[1.5][1]:.4g} (<1e-2)")


def test_criterion_06_lp_asymptotic(problem):
    spec, profile, B = problem(2)
    out = lp_blowup_fit(profile, B, spec)
    slope_err = abs(out["slope"] + 1.5)
    pref_rel = abs(out["prefactor"] / out["C"] - 1.0)
    ok = slope_err <= 0.05 and pref_rel <= 0.10
    _report(ok, "criterion 06 (L1 blow-up asymptotics, q = 2)",
            f"slope {out['slope']:.4f} ({slope_err:.2e} from -1.5, tol 0.05), "
            f"prefactor {out['prefactor']:.4f} vs C {out['C']:.4f} "
            f"({pref_rel:.2%}, tol 10%)")


def test_criterion_07_oracle_equivalence(problem):
    windows = {1: 2.0, 2: 0.9 * T_STAR_2, 3: 0.9, 4: 0.9 * 8.0 / 9.0}
    worst = 0.0
    for k in (1, 2, 3, 4):
        spec, profile, B = problem(k)
        traj = integrate_general(spec, identity_F(), t_end=windows[k], dt=1e-3)
        final = traj.states[-1]
        want = evaluate_u(profile, B, spec, traj.alpha, final.t)
        worst = max(worst, float(np.max(np.abs(final.u - want) / want)))

    # dt pair chosen so neither bound of the step rule binds in either run
    # (max growth rate on [0, 1.6] is ~2.7/unit time, so the blow-up bound
    # 0.8 ln(1.1)/2.7 = 0.028 stays above dt = 0.02, and the local error of
    # g stays under its tolerance); a bound that binds shortens its run's
    # steps and spoils the convergence measurement
    spec, profile, B = problem(2)
    errs = []
    for dt in (0.02, 0.01):
        traj = integrate_general(spec, identity_F(), t_end=1.6, dt=dt)
        final = traj.states[-1]
        want = evaluate_u(profile, B, spec, traj.alpha, final.t)
        errs.append(float(np.max(np.abs(final.u - want))))
    ratio = errs[0] / errs[1]

    ok = worst <= 1e-4 and ratio >= 12.0
    _report(ok, "criterion 07 (generalized integrator oracle equivalence)",
            f"max rel err over 4 examples {worst:.2e} (tol 1e-4), "
            f"dt-halving error ratio {ratio:.1f} (needs >= 12)")


def test_criterion_08_lower_bound_power_two():
    spec = ProblemSpec(f=polynomial(1.0, -2.0), u0=constant(1.0),
                       g=polynomial(1.0, 2.0))
    F = power_F(2.0)
    traj = integrate_general(spec, F, t_end=1.2, dt=1e-3, blowup_cap=1e8)
    report = blowup_bounds(spec, F, traj)
    det = detect_blowup(traj)
    ok = (report.min_lower_margin >= -1e-3 and report.t_star_bound == pytest.approx(4.0)
          and det["blew_up"] and det["t_numeric"] <= 4.0)
    _report(ok, "criterion 08 (pointwise lower bound, F = u^2)",
            f"min margin {report.min_lower_margin:.2e} (>= -1e-3), numeric blow-up "
            f"{det['t_numeric']:.6f} <= bound {report.t_star_bound:.1f}")


def test_criterion_09_decaying_g_dichotomy():
    f, u0 = polynomial(1.0, -2.0), constant(1.0)

    spec1 = ProblemSpec(f=f, u0=u0, g=exponential(1.0, -1.0))
    traj1 = integrate_general(spec1, identity_F(), t_end=50.0, dt=0.01)
    rep1 = blowup_bounds(spec1, identity_F(), traj1)
    bounded = traj1.stop_reason == "t_end" and float(np.max(traj1.umax_dense)) <= 2.0
    side1 = rep1.int_gc_limit <= 2.0 / (rep1.d * rep1.H0_alpha0)  # 1 <= 8

    spec2 = ProblemSpec(f=f, u0=u0, g=exponential(1.0, -1.0 / 32.0))
    traj2 = integrate_general(spec2, identity_F(), t_end=12.0, dt=5e-3, blowup_cap=1e8)
    rep2 = blowup_bounds(spec2, identity_F(), traj2)
    det2 = detect_blowup(traj2)
    crossing = 32.0 * math.log(4.0 / 3.0)
    side2 = rep2.int_gd_limit > 2.0 / (rep2.c * rep2.H0_alpha0)  # 32 > 8
    in_window = (det2["blew_up"] and det2["t_numeric"] <= rep2.crossing_time
                 and rep2.crossing_time - det2["t_numeric"] <= 0.05)

    ok = (bounded and side1 and rep1.predicted == "Global"
          and side2 and rep2.predicted == "FiniteBlowup"
          and rep2.crossing_time == pytest.approx(crossing, rel=1e-9) and in_window)
    _report(ok, "criterion 09 (decaying boundary dichotomy)",
            f"k=1 bounded on [0,50] ({float(np.max(traj1.umax_dense)):.3f} max, 1 <= 8); "
            f"k=1/32 blows up at {det2['t_numeric']:.4f} inside crossing window "
            f"{rep2.crossing_time:.4f} (32 > 8)")


def test_criterion_10_verification_battery(problem):
    orders = []
    for k in (1, 2):
        spec, profile, B = problem(k)
        fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 129),
                             np.linspace(0.0, 1.0, 129))
        orders.append(pde_residual(fld, spec).convergence_order)
    orders_ok = all(1.8 <= o <= 2.2 for o in orders)

    ts = np.linspace(0.0, 0.9, 129)
    S = schwarzian(GridFunction(ts, ts / (1.0 - ts)))
    moebius_max = float(np.max(np.abs(S.values)))

    gamma_worst = max(gamma_identity(q)["diff"] for q in (0.6, 1.0, 2.0, 5.0))

    spec, profile, B = problem(2)
    disc = []
    for n_t in (129, 257):
        fld = evaluate_field(profile, B, spec, np.linspace(0, 1, 129),
                             np.linspace(0.5, 1.5, n_t))
        disc.append(r_invariance(fld, spec))
    second_order = disc[1] <= disc[0] / 3.0

    ok = orders_ok and moebius_max <= 1e-6 and gamma_worst <= 1e-8 and second_order
    _report(ok, "criterion 10 (verification battery)",
            f"residual orders {orders[0]:.2f}/{orders[1]:.2f} in [1.8, 2.2], "
            f"Moebius max|S| {moebius_max:.1e} (tol 1e-6), gamma diff {gamma_worst:.1e} "
            f"(tol 1e-8), R-invariance ratio {disc[1]/disc[0]:.2f} (<= 1/3)")


def test_criterion_11_jump_transport(problem):
    spec, profile, B = problem(2)
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        got = jump_transport(profile, B, spec, jump_location=0.3, jump_size=0.1,
                             axis="alpha", t=t)
        D = 1.0 - 0.5 * (0.3 - 0.09) * (t**2 + t)
        want = 0.1 * (2.0 * t + 1.0) / D**2
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-8
    _report(ok, "criterion 11 (jump transport along the alpha axis)",
            f"max abs deviation {worst:.2e} over t in {{0.5, 1, 2}} (tol 1e-8)")
