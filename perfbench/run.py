#!/usr/bin/env python3
"""Benchmark of liouville_workbench: three workloads, one command.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; it imports the package from `src/`.
The workloads (closed_form, integrate, cli) are described in workloads.py and
README.md.  Load is one closed loop: the next operation starts when the
previous one has ended, and a run attempts whole rounds until --seconds have
passed.  Every operation's result is checked against closed forms.

--trace 0 prints the end-to-end metrics: setup_s, ops_per_s, op_p50_ms and
peak_rss_mb.  --trace 1 runs the workload's ops alternately traced and
untraced (the ratio is the tracing overhead), adds one traced round of the
other two workloads so that every layer is covered, writes the spans to
perfbench/out/, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys

# one thread per BLAS pool, set before numpy loads and inherited by children
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("closed_form", "integrate", "cli")
SETUP_REPEATS = 3        # setup_s is the median of this many complete set-ups
PROBE_REPEATS = 3        # fresh processes per cold-start probe in the traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all three in turn with a summary table")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this process, print it, and exit")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup(workload, seed, workdir, in_process=False):
    """Package import, input generation and one warm-up op of each kind.

    Returns (seconds, workloads module, ops).  Nothing before this imports
    numpy or the package, so the import is part of the time.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads as W
    ops = W.make_ops(workload, seed, workdir, child_env(), in_process)
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            result = op.run()
            try:
                op.check(result)
            except W.CheckFailed:
                pass          # the measured ops report it
    return time.perf_counter() - t0, W, ops


def setup_in_child(workload, seed):
    """One complete set-up in a fresh process (the parent waits for it)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        env=child_env(), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Outcomes:
    """Attempted, failed and wrong operations of one workload."""

    def __init__(self, W):
        self.W = W
        self.attempted = self.failed = 0
        self.correct = True

    def run(self, op, tracer=None, workload=None):
        """Run one op (timed) and check it (untimed); returns (seconds, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op(workload, op.kind) as attrs:
                    result = op.run()
                    if isinstance(result, dict) and "bytes" in result:
                        attrs["bytes"] = result["bytes"]
        except Exception:
            elapsed = time.perf_counter() - t0
            self._wrong(op)
            return elapsed, None
        elapsed = time.perf_counter() - t0
        try:
            op.check(result)
        except self.W.KnownFault:
            self.failed += 1
        except Exception:
            self._wrong(op)
        if tracer is not None and op.probe is not None:
            with tracer.op(workload, op.kind, name="probe"):
                op.probe(result)
        return elapsed, result

    def _wrong(self, op):
        self.failed += 1
        self.correct = False
        sys.stderr.write(f"{op.label}: ")
        traceback.print_exc()


def closed_loop(ops, seconds, outcomes):
    """Whole rounds until `seconds` have passed.

    Returns each op's (kind, seconds) and the largest peak RSS (KiB) that a
    cli op reported for its child process.  Results are dropped as soon as
    they are checked, so one op's data is live at a time.
    """
    times, child_peak = [], 0
    t_end = time.perf_counter() + seconds
    while True:
        for op in ops:
            elapsed, result = outcomes.run(op)
            times.append((op.kind, elapsed))
            if isinstance(result, dict) and result.get("rss_kib"):
                child_peak = max(child_peak, result["rss_kib"])
        if time.perf_counter() >= t_end:
            return times, child_peak


def timed_run(args, workdir):
    setups = []
    seconds, W, ops = setup(args.workload, args.seed, workdir)
    setups.append(seconds)
    for _ in range(SETUP_REPEATS - 1):
        setups.append(setup_in_child(args.workload, args.seed))
    outcomes = Outcomes(W)
    times, child_peak = closed_loop(ops, args.seconds, outcomes)
    if args.workload == "cli":
        peak_kib = child_peak
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    op_s = [t for _, t in times]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "op_p50_ms": (statistics.median(op_s) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"run-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "setups_s": setups,
                   "op_ms": [[kind, t * 1e3] for kind, t in times],
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, fh)
    return outcomes, metrics


def cold_probes():
    """Bare interpreter start and package import, each in fresh processes."""
    env = child_env()
    interp, imports = [], []
    code = ("import time; t = time.perf_counter(); import liouville_workbench; "
            "print(time.perf_counter() - t)")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, text=True)
        imports.append(float(proc.stdout))
    return {"interpreter_ms": statistics.median(interp) * 1e3,
            "import_ms": statistics.median(imports) * 1e3}


def traced_run(args, workdir):
    _, W, ops = setup(args.workload, args.seed, workdir, in_process=True)
    import tracing
    tracer = tracing.Tracer()
    outcomes = Outcomes(W)
    busy = {True: [], False: []}
    t_end = time.perf_counter() + args.seconds
    traced = False
    while True:
        # alternate untraced and traced rounds, so host noise hits both alike
        if traced:
            with tracer.installed():
                busy[True] += [outcomes.run(op, tracer, args.workload)[0] for op in ops]
        else:
            busy[False] += [outcomes.run(op)[0] for op in ops]
        traced = not traced
        if not traced and time.perf_counter() >= t_end:
            break
    # one traced round of each other workload, so that every layer is covered
    others = Outcomes(W)
    for other in WORKLOADS:
        if other != args.workload:
            other_ops = W.make_ops(other, args.seed, workdir, child_env(), in_process=True)
            with tracer.installed():
                for op in other_ops:
                    others.run(op, tracer, other)
    overhead = {"untraced_ops_per_s": len(busy[False]) / sum(busy[False]),
                "traced_ops_per_s": len(busy[True]) / sum(busy[True])}
    metrics = tracing.layer_metrics(tracer, cold_probes(), overhead, W.SUBCOMMANDS)
    outcomes.correct = outcomes.correct and others.correct
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                 {"workload": args.workload, "seed": args.seed,
                  "metrics": {k: v for k, (v, _) in metrics.items()}})
    return outcomes, metrics


def run_all(args):
    """Each workload in its own process, one after another, then a table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, r in results.items():
        print(f"{workload}: attempted {r['attempted']}, failed {r['failed']}, "
              f"correct {r['correct']}")
        for name, m in r["metrics"].items():
            print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "liouville_workbench" / "__init__.py").is_file():
        print(f"error: no liouville_workbench package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            seconds = setup(args.workload, args.seed, workdir)[0]
            print(json.dumps({"setup_s": seconds}))
            return 0
        run = traced_run if args.trace else timed_run
        outcomes, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
