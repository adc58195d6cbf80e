#!/usr/bin/env python3
"""Steadiness check of the HYMV benchmark.

Runs each workload once per seed (sequentially, --trace 0) through
perfbench/run.py and prints, per end-to-end metric, the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A spread
above a third of its bound is flagged. --compare reads two batches saved
with --json and prints, per workload and metric, how far the second batch's
median moved from the first's, flagging a move worse than the bound.
Usage, from the checkout root:

    python3 perfbench/steadiness.py --seeds 10 [--workloads a,b] \\
        [--seconds 20] [--json out.json]
    python3 perfbench/steadiness.py --compare first.json second.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.compare:
        compare(bench, *args.compare)
        return
    results = {}
    for w in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 w, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
                text=True)
            if out.returncode != 0:
                sys.exit("run failed: %s seed %d" % (w, seed))
            last = json.loads(out.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                sys.exit("incorrect run: %s seed %d" % (w, seed))
            runs.append({k: v["value"] for k, v in last["metrics"].items()})
            print("%s seed %d: %s" % (w, seed, json.dumps(runs[-1])),
                  flush=True)
        results[w] = runs

    print()
    print("| workload | metric | median | Q1 | Q3 | spread | bound/3 |")
    print("|---|---|---|---|---|---|---|")
    for w, runs in results.items():
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 or name == "setup_s" else " !"
            print("| %s | %s | %.5g | %.5g | %.5g | %.4f%s | %.4f |" % (
                w, name, med, q1, q3, spread, flag, bound / 3))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)


def compare(bench, first, second):
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    a = json.load(open(first))
    b = json.load(open(second))
    print("| workload | metric | median 1 | median 2 | change | bound |")
    print("|---|---|---|---|---|---|")
    worst = 0.0
    for w in a:
        if w not in b:
            continue
        for name, bound in bounds.items():
            m1 = statistics.median(r[name] for r in a[w])
            m2 = statistics.median(r[name] for r in b[w])
            change = m2 / m1 - 1.0
            worse = change if better[name] == "lower" else -change
            worst = max(worst, worse / bound)
            print("| %s | %s | %.5g | %.5g | %+.3f%s | %.2f |" % (
                w, name, m1, m2, change, " !" if worse > bound else "",
                bound))
    print("\nlargest worsening as a share of its bound: %.2f" % worst)


if __name__ == "__main__":
    main()
