"""Command-line front end.

Subcommands map one-to-one onto the library layers: classify, solve,
singular-curve, lp-scan (representation formula); simulate (generalized
integrator); verify (identity checks); reproduce-examples (the four catalog
data sets and their figure surfaces).

All CSV artifacts start with a comment line recording the spec hash, grid
sizes, and the numerical tolerances in force, followed by a header row.
Numbers are always written with the %.12e format so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .closed_form_solver import SINGULAR_ATOL, evaluate_field, singular_curve
from .errors import EmptyCurve, NearSingular, NoFiniteTime
from .generalized_integrator import (
    DRIFT_RTOL,
    blowup_bounds,
    detect_blowup,
    identity_F,
    integrate_general,
    power_F,
    table_F,
)
from .problem_model import (
    COMPAT_RTOL,
    FEATURE_ATOL,
    GridFunction,
    INVERT_RTOL,
    ZERO_SET_RTOL,
    build_G,
    build_psi0,
    check_compatibility,
    data_horizon,
    load_problem_spec,
    spec_hash,
    write_csv,
)
from .regularity_analyzer import VERDICT_FINITE, classify, lp_norm
from .verification import gamma_identity, pde_residual, r_invariance, schwarzian

_TOL_BANNER = (
    f"singular_atol={SINGULAR_ATOL:.0e} invert_rtol={INVERT_RTOL:.0e} compat_rtol={COMPAT_RTOL:.0e} "
    f"zero_set_rtol={ZERO_SET_RTOL:.0e} feature_atol={FEATURE_ATOL:.0e} "
    f"drift_rtol={DRIFT_RTOL:.0e}"
)


def _comment(spec, **extra) -> str:
    parts = [f"spec_hash={spec_hash(spec)}", f"n_alpha={spec.n_alpha}"]
    parts += [f"{k}={v}" for k, v in extra.items()]
    parts.append(_TOL_BANNER)
    return " ".join(parts)


def _write_text(path, text, comment=None):
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(text)


def _load_spec(args):
    spec = load_problem_spec(args.spec)
    if getattr(args, "n_alpha", None) is not None:
        spec = dataclasses.replace(spec, n_alpha=args.n_alpha)
    if getattr(args, "beta", None) is not None:
        spec = catalog.with_beta(spec, args.beta)
    return spec


def _surface_script(csv_name: str, n_alpha: int, n_t: int) -> str:
    return "\n".join([
        f"# gnuplot surface script for {csv_name}",
        'set datafile separator ","',
        'set datafile missing "nan"',
        'set xlabel "alpha"',
        'set ylabel "t"',
        'set zlabel "u"',
        f"set dgrid3d {n_t},{n_alpha}",
        f'splot "{csv_name}" skip 2 using 1:2:3 with lines notitle',
        "",
    ])


def _curve_script(csv_name: str) -> str:
    return "\n".join([
        f"# gnuplot script for {csv_name}",
        'set datafile separator ","',
        'set xlabel "alpha"',
        'set ylabel "t"',
        f'plot "{csv_name}" skip 2 using 1:2 with lines notitle',
        "",
    ])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    spec = _load_spec(args)
    profile = build_psi0(spec, method=args.method)
    t_max = data_horizon(spec.g, args.t_max)
    B = build_G(spec, t_max=t_max, method=args.method)
    report = classify(profile, B, spec)
    compat = check_compatibility(spec)
    text = report.to_text() + f"compatibility_defect: {compat.defect:.6e}\n"
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "classify.txt"), text,
                    comment=_comment(spec, t_max=t_max, method=args.method))
    return 0


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    profile = build_psi0(spec)
    t_max = data_horizon(spec.g, args.t_max)
    B = build_G(spec, t_max=t_max)
    if args.dt:
        t_grid = np.arange(0.0, t_max + 0.5 * args.dt, args.dt)
    else:
        t_grid = np.linspace(0.0, t_max, 257)
    fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_grid)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "field.csv")
    fld.to_csv(csv_path, comment=_comment(spec, n_t=len(t_grid), t_max=t_max))
    masked = int(np.count_nonzero(fld.singular_mask))
    print(f"field: {len(t_grid)}x{spec.n_alpha} samples, {masked} masked, "
          f"min |D| = {fld.denominator_min:.3e}")
    if args.plot:
        _write_text(os.path.join(args.out, "field.gp"),
                    _surface_script("field.csv", spec.n_alpha, len(t_grid)))
    return 0


def _cmd_singular_curve(args) -> int:
    spec = _load_spec(args)
    profile = build_psi0(spec)
    t_max = data_horizon(spec.g, args.t_max)
    B = build_G(spec, t_max=t_max)
    curve = singular_curve(profile, B)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "singular_curve.csv")
    curve.to_csv(csv_path, comment=_comment(spec, t_max=t_max))
    print(f"singular curve: {len(curve.alpha_samples)} samples, "
          f"earliest t = {float(np.min(curve.t_samples)):.6e} at "
          f"alpha = {float(curve.alpha_samples[np.argmin(curve.t_samples)]):.6e}")
    if args.plot:
        _write_text(os.path.join(args.out, "singular_curve.gp"),
                    _curve_script("singular_curve.csv"))
    return 0


def _cmd_lp_scan(args) -> int:
    spec = _load_spec(args)
    ps = []
    for tok in args.p.split(","):
        tok = tok.strip()
        ps.append(math.inf if tok in ("inf", "Inf", "INF") else float(tok))
    profile = build_psi0(spec)
    t_max = data_horizon(spec.g, args.t_max)
    B = build_G(spec, t_max=t_max)
    report = classify(profile, B, spec)
    if report.t_star is not None:
        t_hi = min(t_max, 0.98 * report.t_star)
    else:
        t_hi = t_max
    t_grid = np.linspace(0.0, t_hi, 101)
    fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_grid)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "lp_scan.csv")
    p_txt = ["inf" if p == math.inf else f"{p:.12e}" for p in ps]
    write_csv(path, _comment(spec, t_max=t_max, p=args.p), "t,p,norm", "%.12e,%s,%.12e",
              (np.repeat(t_grid, len(ps)), p_txt * len(t_grid),
               [lp_norm(fld, p, float(t)) for t in t_grid for p in ps]))
    print(f"lp scan: {len(t_grid)} times x {len(ps)} exponents -> {path}")
    return 0


def _nonlinearity_from(general: dict):
    cfg = (general or {}).get("F", {"kind": "identity"})
    kind = cfg.get("kind", "identity")
    if kind == "identity":
        return identity_F()
    if kind == "power":
        return power_F(float(cfg["p"]))
    if kind == "table":
        return table_F(cfg["nodes"], cfg["values"], float(cfg["c"]), float(cfg["d"]))
    raise ValueError(f"unknown nonlinearity kind {kind!r} in spec 'general' block")


def _cmd_simulate(args) -> int:
    spec = _load_spec(args)
    with open(args.spec) as fh:
        general = json.load(fh).get("general", {})
    F = _nonlinearity_from(general)
    t_end = data_horizon(spec.g, args.t_max)
    traj = integrate_general(spec, F, t_end=t_end, dt=args.dt, blowup_cap=args.cap)
    bounds = blowup_bounds(spec, F, traj)
    det = detect_blowup(traj)
    os.makedirs(args.out, exist_ok=True)
    traj.to_csv(os.path.join(args.out, "trajectory.csv"),
                comment=_comment(spec, dt=args.dt, t_end=t_end, cap=args.cap,
                                 F=F.kind, c=F.c, d=F.d))
    summary = bounds.to_text() + "".join([
        f"stop_reason: {traj.stop_reason}\n",
        f"blew_up: {det['blew_up']}\n",
        f"t_numeric: {'' if det['t_numeric'] is None else format(det['t_numeric'], '.12e')}\n",
        f"location: {'' if det['location'] is None else format(det['location'], '.12e')}\n",
        f"t_extrapolated: {'' if det['t_extrapolated'] is None else format(det['t_extrapolated'], '.12e')}\n",
        f"max_drift_rel: {float(np.max(traj.drift_rel_dense)):.6e}\n",
    ])
    _write_text(os.path.join(args.out, "bounds.txt"), summary,
                comment=_comment(spec, dt=args.dt, t_end=t_end, cap=args.cap))
    sys.stdout.write(summary)
    return 0


def _cmd_verify(args) -> int:
    lines = []

    def check(name, ok, detail):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")

    for k in (1, 2):
        spec = catalog.example_spec(k, n_alpha=129)
        profile = build_psi0(spec)
        B = build_G(spec, t_max=1.5)
        t_grid = np.linspace(0.0, 1.0, 129)
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_grid)
        rep = pde_residual(fld, spec)
        check(f"residual_order_example{k}", 1.8 <= rep.convergence_order <= 2.2,
              f"order={rep.convergence_order:.3f} max_residual={rep.max_abs_residual:.3e}")

    spec2 = catalog.example_spec(2, n_alpha=129)
    profile2 = build_psi0(spec2)
    B2 = build_G(spec2, t_max=2.0)
    disc = []
    for n_t in (129, 257):
        t_grid = np.linspace(0.5, 1.5, n_t)
        fld = evaluate_field(profile2, B2, spec2, spec2.alpha_grid(), t_grid)
        disc.append(r_invariance(fld, spec2))
    check("r_invariance_refinement", disc[1] <= disc[0] / 3.0,
          f"disc(h)={disc[0]:.3e} disc(h/2)={disc[1]:.3e}")

    ts = np.linspace(0.0, 0.9, 129)
    moebius = schwarzian(_grid(ts, ts / (1.0 - ts)))
    check("schwarzian_moebius_zero", float(np.max(np.abs(moebius.values))) <= 1e-6,
          f"max|S|={float(np.max(np.abs(moebius.values))):.3e}")
    poly = schwarzian(_grid(ts, ts**2 + ts))
    s0 = float(poly.values[0])
    check("schwarzian_polynomial_nonzero", abs(s0) > 0.1, f"S(0)={s0:.4f}")
    ts2 = np.linspace(0.0, 0.5, 129)
    sing = schwarzian(_grid(ts2, (1.0 / (1.0 - ts2) ** 2 - 1.0) / 2.0))
    exact = -1.5 / (1.0 - ts2[3:-3]) ** 2
    rel = float(np.max(np.abs(sing.values[3:-3] - exact) / np.abs(exact)))
    check("schwarzian_singular_beta2", rel <= 2e-2, f"max_rel_err={rel:.3e}")

    worst = 0.0
    for q in (0.6, 0.75, 1.0, 1.5, 2.0, 5.0):
        worst = max(worst, gamma_identity(q)["diff"])
    check("gamma_identity_battery", worst <= 1e-8, f"max_diff={worst:.3e}")

    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text(os.path.join(args.out, "verify_summary.txt"), text)
    return 0


def _grid(nodes, values):
    return GridFunction(np.asarray(nodes, dtype=float), np.asarray(values, dtype=float))


def _cmd_reproduce(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    n = 129
    for k in (1, 2, 3, 4):
        spec = catalog.example_spec(k, n_alpha=n)
        profile = build_psi0(spec)
        B = build_G(spec, t_max=data_horizon(spec.g, 10.0))
        report = classify(profile, B, spec)
        if report.verdict == VERDICT_FINITE:
            t_hi = 0.98 * report.t_star
        elif report.t_star is not None:
            t_hi = 0.95 * report.t_star
        else:
            t_hi = 10.0
        t_grid = np.linspace(0.0, t_hi, n)
        fld = evaluate_field(profile, B, spec, spec.alpha_grid(), t_grid)
        base = f"example{k}"
        _write_text(os.path.join(args.out, f"{base}_report.txt"), report.to_text(),
                    comment=_comment(spec))
        fld.to_csv(os.path.join(args.out, f"{base}_field.csv"),
                   comment=_comment(spec, n_t=n, t_max=f"{t_hi:.12e}"))
        if report.final_profile is not None:
            report.final_profile.to_csv(os.path.join(args.out, f"{base}_final_profile.csv"),
                                        header=("alpha", "C"))
        if args.plot:
            _write_text(os.path.join(args.out, f"{base}_field.gp"),
                        _surface_script(f"{base}_field.csv", n, n))
        t_txt = "" if report.t_star is None else f" t*={report.t_star:.6f}"
        locs = np.atleast_1d(report.blowup_locations)
        loc_txt = "" if locs.size == 0 else f" at alpha={', '.join(f'{a:.4f}' for a in locs)}"
        print(f"example {k}: {report.verdict}{t_txt}{loc_txt}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouville",
        description="Workbench for the periodic sign-changing Liouville-type equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_required, with_spec=True, plot=False):
        if with_spec:
            p.add_argument("--spec", required=True, help="path to a JSON problem spec")
            p.add_argument("--n-alpha", type=int, default=None, help="override alpha resolution")
            p.add_argument("--beta", type=float, default=None,
                           help="replace g with the singular family of this exponent")
        p.add_argument("--out", required=out_required, default=None, help="output directory")
        if plot:
            p.add_argument("--plot", action="store_true", help="emit gnuplot scripts")

    p = sub.add_parser("classify", help="global existence vs blow-up report")
    add_common(p, out_required=False)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--method", choices=("auto", "quadrature"), default="auto")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("solve", help="evaluate the solution field to CSV")
    add_common(p, out_required=True, plot=True)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=None, help="time sampling step")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("singular-curve", help="sample the denominator zero set")
    add_common(p, out_required=True, plot=True)
    p.add_argument("--t-max", type=float, default=10.0)
    p.set_defaults(fn=_cmd_singular_curve)

    p = sub.add_parser("lp-scan", help="Lp norms against time")
    add_common(p, out_required=True)
    p.add_argument("--t-max", type=float, default=2.0)
    p.add_argument("--p", default="1,2,inf", help="comma-separated exponents, inf allowed")
    p.set_defaults(fn=_cmd_lp_scan)

    p = sub.add_parser("simulate", help="generalized integrator with envelope bounds")
    add_common(p, out_required=True)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--cap", type=float, default=1e8)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify", help="run the identity checks with pass/fail lines")
    add_common(p, out_required=False, with_spec=False)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reproduce-examples", help="regenerate the four catalog examples")
    add_common(p, out_required=True, with_spec=False, plot=True)
    p.set_defaults(fn=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, NoFiniteTime, EmptyCurve, NearSingular, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
