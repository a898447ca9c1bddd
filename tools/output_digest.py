"""Digest every output of the liouville CLI over a fixed set of specs.

Writes the spec files into a temporary directory, runs each subcommand in a
fresh `python -m liouville_workbench.cli` process, and prints one sha256
for each file written and each stdout, the exit code, and stderr with the
file:line locations of warnings stripped.  Two checkouts whose digests are
equal print the same bytes, so a refactor that must keep every output can be
checked by running

    python tools/output_digest.py --against OTHER_CHECKOUT/src

which runs the same specs through both source trees, prints only the lines
that differ ("-" for OTHER_CHECKOUT, "+" for this one) and exits 1 when any
do.  The optional positional argument is the package's source directory
(default: the src/ next to this script); the example specs are read from its
catalog.  Bytes can differ with the platform's libm, so compare digests made
on one machine; this is not a test.
"""

import argparse
import difflib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

def poly(*coeffs):
    return {"kind": "polynomial", "params": {"coeffs": list(coeffs)}}


def trig(offset, *terms):
    return {"kind": "trigonometric", "params": {"offset": offset, "terms": [list(t) for t in terms]}}


COS = trig(0.0, (1.0, 1.0, math.pi / 2))          # cos 2 pi a
U0_SIN = trig(1.0, (0.3, 1.0, 0.0))               # 1 + 0.3 sin 2 pi a
SAMPLED = {
    "sampled-linear-g": (COS, U0_SIN, poly(1.0, 2.0)),
    "sampled-exp-g": (COS, U0_SIN, {"kind": "exponential", "params": {"amplitude": 1.0, "rate": -0.3}}),
    "sampled-table-g": (COS, U0_SIN, {"kind": "table", "params": {
        "nodes": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0], "values": [1.0, 1.4, 1.6, 2.5, 3.0, 4.0]}}),
    "sampled-trig-g": (COS, U0_SIN, trig(1.0, (0.5, 1.0, 0.0))),
    "sampled-polynomial-u0": (COS, poly(1.0, 0.5), poly(1.0, 2.0)),
    "polynomial-u0": (poly(1.0, -2.0), poly(1.0, 1.0, -1.0), poly(1.0, 2.0)),
    # f F(u0) = f for every F below: H0 takes psi0's closed form, H0(alpha0) = 1/(2 pi)
    "cos-f-u0-one": (COS, {"kind": "constant", "params": {"value": 1.0}}, poly(1.0, 2.0)),
    # g(0), u0(0) or t_b is not 1: ProblemSpec rescales g or u0 by its kind's scale, or time and f
    "rescaled-trig-g": (COS, U0_SIN, trig(2.0, (0.5, 1.0, 0.0))),
    "rescaled-exp-g": (COS, U0_SIN, {"kind": "exponential", "params": {"amplitude": 3.0, "rate": -0.3}}),
    "rescaled-table-g": (COS, U0_SIN, {"kind": "table", "params": {
        "nodes": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0], "values": [2.0, 2.8, 3.2, 5.0, 6.0, 8.0]}}),
    "rescaled-polynomial-g": (COS, U0_SIN, poly(2.0, 4.0)),
    "rescaled-constant-u0": (COS, {"kind": "constant", "params": {"value": 2.0}}, poly(1.0, 2.0)),
    "rescaled-singular-g": (COS, U0_SIN, {"kind": "singular_boundary", "params": {"beta": 1.0, "t_b": 2.0}}),
}

_F_NODES = [10.0 ** (k / 2) for k in range(-6, 7)]
NONLINEARITIES = {
    "F=u": None,
    "F=u^2": {"F": {"kind": "power", "p": 2.0}},
    # the same two F in other spellings a spec may use: no kind, and an integer p
    "F=u-no-kind": {"F": {}},
    "F=u^2-integer-p": {"F": {"kind": "power", "p": 2}},
    "F=table": {"F": {"kind": "table", "nodes": _F_NODES, "values": [x ** 1.5 for x in _F_NODES],
                      "c": 1.0, "d": 2.0}},
    # a general block that is no object is an error: only a missing block means F = u
    "general-list": [],
}
RUNS = {
    "classify": ["classify"],
    "classify-quadrature": ["classify", "--method", "quadrature"],
    "solve": ["solve", "--plot"],
    "solve-dt": ["solve", "--dt", "0.01"],
    "singular-curve": ["singular-curve", "--plot"],
    "lp-scan": ["lp-scan"],
}

_WARNING = re.compile(r"^.*?:\d+: (\w*Warning: )")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(src, label, argv, tmp):
    """The digest lines of one CLI run in the directory tmp."""
    out = Path(tmp) / "out" / label.replace(" ", "_")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "liouville_workbench.cli", *argv, "--out", str(out)],
                          cwd=tmp, env=env, capture_output=True)
    lines = [f"{label} exit {proc.returncode}",
             f"{label} stdout {digest(proc.stdout.replace(tmp.encode(), b'<tmp>'))}"]
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{label} file {path.relative_to(out)} {digest(path.read_bytes())}")
    echo = False   # the source line a warning prints under its location
    for line in proc.stderr.decode(errors="replace").replace(tmp, "<tmp>").splitlines():
        if echo and line.startswith("  "):
            continue
        echo = bool(_WARNING.match(line))
        lines.append(f"{label} stderr | " + _WARNING.sub(r"\1", line))
    return lines


def listing(src, specs):
    """The digest lines of every run over specs with the package in src, one
    list a run, as each run ends."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in specs.items():
            for F_name, general in NONLINEARITIES.items():
                path = Path(tmp) / f"{name}-{F_name}.json"
                path.write_text(json.dumps(spec if general is None else {**spec, "general": general}))
                yield run(src, f"{name} simulate {F_name}", ["simulate", "--spec", str(path)], tmp)
            for run_name, argv in RUNS.items():
                yield run(src, f"{name} {run_name}",
                          [*argv, "--spec", str(Path(tmp) / f"{name}-F=u.json")], tmp)
            # classify solves F = u only, and refuses another F
            yield run(src, f"{name} classify F=u^2",
                      ["classify", "--spec", str(Path(tmp) / f"{name}-F=u^2.json")], tmp)
        yield run(src, "verify", ["verify"], tmp)
        yield run(src, "reproduce-examples", ["reproduce-examples", "--plot"], tmp)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=Path(__file__).resolve().parents[1] / "src",
                        help="the package's source directory (default: the src/ next to this script)")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="also run OTHER_SRC and print only the lines that differ")
    args = parser.parse_args()
    src = str(Path(args.src).resolve())
    sys.path.insert(0, src)
    from liouville_workbench import catalog

    specs = {f"example{k}": catalog.example_spec(k).to_dict() for k in (1, 2, 3, 4)}
    specs.update({name: {"f": f, "u0": u0, "g": g, "n_alpha": 129}
                  for name, (f, u0, g) in SAMPLED.items()})
    # an even n_alpha: lp-scan's norms take Simpson's last-interval rule
    specs["sampled-linear-g-n128"] = {**specs["sampled-linear-g"], "n_alpha": 128}
    if args.against is None:
        for lines in listing(src, specs):
            print("\n".join(lines), flush=True)
        return 0
    before, after = ([line for lines in listing(tree, specs) for line in lines]
                     for tree in (str(Path(args.against).resolve()), src))
    diff = [line for line in difflib.unified_diff(before, after, n=0, lineterm="")
            if not line.startswith(("---", "+++", "@@"))]
    if diff:
        print("\n".join(diff))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
