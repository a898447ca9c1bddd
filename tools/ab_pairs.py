#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark: a parent checkout against this one.

    mkdir /tmp/parent && git archive PARENT | tar -x -C /tmp/parent
    python3 tools/ab_pairs.py /tmp/parent --workload integrate --pairs 10 --seconds 20 --seed0 101

Pair k runs seed seed0 + k on both sides, each side with its own
perfbench/run.py in a fresh process from its own checkout; the parent goes
first on even k and second on odd k, so a drift in host load falls on both
sides alike.  Each pair's metrics go to standard error as they arrive.  Then
each metric gets the median and quartiles of either side and the number of
pairs the change wins, with "better" read from BENCHMARK.json (end_to_end
and per_layer).  Each end-to-end metric also gets the change of the median
as a share of the parent's median, the parent's interquartile range as a
share of its median, its bound from BENCHMARK.json and a verdict:
"unresolved" when the parent's IQR share is wider than the bound, unless
every change run beats every parent run; else "worse than bound" when the
median moved the wrong way by more than the bound; else "inside".
--trace 1 passes on to run.py and so compares the per-layer metrics.
--json prints the summary, with the same fields, as the `workloads` block
of a BENCH_*.json file instead of the table.  BENCHMARK.json is only read,
and nothing under perfbench/ is written, apart from run.py's own records in
perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_side(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(xs):
    """Inclusive q1, median and q3 of the runs xs; one run is all three."""
    return xs * 3 if len(xs) == 1 else statistics.quantiles(xs, n=4, method="inclusive")


def median_q1_q3(xs):
    q1, _, q3 = quartiles(xs)
    return [round(statistics.median(xs), 4), round(q1, 4), round(q3, 4)]


def verdict(p, c, better, bound):
    """The end-to-end fields of one metric from its parent runs p and change
    runs c: median change and parent IQR as shares of the parent median, the
    bound and the verdict."""
    (q1, pm, q3), cm = quartiles(p), statistics.median(c)
    change, iqr = (cm - pm) / pm, (q3 - q1) / pm
    worse = change if better == "lower" else -change
    beats_all = max(c) < min(p) if better == "lower" else min(c) > max(p)
    if beats_all:
        word = "inside"
    elif iqr > bound:
        word = "unresolved"
    else:
        word = "worse than bound" if worse > bound else "inside"
    return {"median_change_share": round(change, 4), "parent_iqr_share": round(iqr, 4),
            "bound": bound, "verdict": word}


def summarize(runs, seeds, better, bounds):
    """The `workloads` entry: runs[side] is one run.py record per pair;
    bounds maps each end-to-end metric to its bound."""
    names = [m for m in runs["change"][0]["metrics"] if m in runs["parent"][0]["metrics"]]
    metrics = {}
    for name in names:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        metrics[name] = {
            "better": better.get(name, "lower"),
            "parent_runs": [round(x, 4) for x in p],
            "change_runs": [round(x, 4) for x in c],
            "parent_median_q1_q3": median_q1_q3(p),
            "change_median_q1_q3": median_q1_q3(c),
            "change_better_pairs": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
        }
        if name in bounds:
            metrics[name].update(verdict(p, c, better.get(name, "lower"), bounds[name]))
    return {"pairs": len(seeds), "seeds": seeds,
            "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "all_correct": all(r["correct"] for s in runs for r in runs[s]),
            "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--workload", required=True, choices=("closed_form", "integrate", "cli"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--seed0", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", action="store_true", help="print the workloads block as JSON")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs, seeds = {"parent": [], "change": []}, []
    for k in range(args.pairs):
        seed = args.seed0 + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, seed, args.seconds, args.trace))
        seeds.append(seed)
        line = "  ".join(f"{m} {runs['parent'][-1]['metrics'][m]['value']:.4g}->"
                         f"{runs['change'][-1]['metrics'][m]['value']:.4g}"
                         for m in runs["change"][-1]["metrics"] if m in runs["parent"][-1]["metrics"])
        print(f"pair {k} seed {seed} ({order[0]} first): {line}", file=sys.stderr, flush=True)
    summary = summarize(runs, seeds, better, bounds)
    if args.json:
        print(json.dumps({args.workload: summary}, indent=1))
        return
    print(f"{args.workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, failed ops "
          f"{summary['failed_ops']['parent']} -> {summary['failed_ops']['change']}, "
          f"all correct: {summary['all_correct']}")
    print(f"{'metric':48s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}  wins"
          f"  {'change':>7s} {'IQR':>6s} {'bound':>6s}  verdict")
    for name, m in summary["metrics"].items():
        pm, cm = m["parent_median_q1_q3"], m["change_median_q1_q3"]
        line = (f"{name:48s} {pm[0]:>12.4g} [{pm[1]:.4g}, {pm[2]:.4g}] "
                f"{cm[0]:>12.4g} [{cm[1]:.4g}, {cm[2]:.4g}]  {m['change_better_pairs']}/{len(seeds)}")
        if "verdict" in m:
            line += (f"  {m['median_change_share']:>+7.1%} {m['parent_iqr_share']:>6.1%} "
                     f"{m['bound']:>6.0%}  {m['verdict']}")
        print(line)


if __name__ == "__main__":
    main()
