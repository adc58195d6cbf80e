#!/usr/bin/env python3
"""Self-test of the HYMV benchmark at a tiny size.

For every workload it checks, through perfbench/run.py:
  * the result line has exactly the keys correct/attempted/failed/metrics,
    the run is correct with zero failed operations, and every end-to-end
    (--trace 0) and per-layer (--trace 1) metric of BENCHMARK.json appears
    with its unit;
  * counts repeat exactly across two runs of one seed;
  * another seed changes the inputs (the report's input hash) but not the
    metric set.
It also checks that BENCHMARK.json and run.py name the same metrics. Usage,
from the checkout root:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

# Counts that must repeat exactly for one seed.
COUNTS = ["pla.cg_iterations", "core.applies_per_solve",
          "simmpi.messages_per_apply", "simmpi.bytes_per_apply",
          "core.apply_flops", "core.apply_bytes_computed",
          "core.updated_elements"]

errors = []


def check(cond, msg):
    if not cond:
        errors.append(msg)
        print("FAIL " + msg, flush=True)


def bench_run(workload, seed, trace):
    """Returns (result line, full program report) of one tiny run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", "--steps", "2"], cwd=ROOT, stdout=subprocess.PIPE,
        text=True)
    if out.returncode != 0:
        sys.exit("run.py failed: %s seed %d trace %d" % (workload, seed, trace))
    line = json.loads(out.stdout.strip().splitlines()[-1])
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    with open(os.path.join(run.build_dir(), "report-%s.json" % tag)) as f:
        report = json.load(f)
    return line, report


def check_line(line, wanted, what):
    check(sorted(line) == ["attempted", "correct", "failed", "metrics"],
          what + ": result keys " + str(sorted(line)))
    check(line["correct"] is True and line["failed"] == 0
          and line["attempted"] >= 1, what + ": not correct " + str(
              {k: line[k] for k in ("correct", "attempted", "failed")}))
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    check(got == wanted, what + ": metric set/units differ: " + str(
        set(got.items()) ^ set(wanted.items())))


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end != run.py")
    check(layer == run.PER_LAYER, "BENCHMARK.json per_layer != run.py")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(
        run.WORKLOADS), "BENCHMARK.json workloads != run.py")

    for w in sorted(run.WORKLOADS):
        line0, _ = bench_run(w, 1, 0)
        check_line(line0, e2e, w + " trace 0")
        a, rep_a = bench_run(w, 1, 1)
        check_line(a, layer, w + " trace 1 seed 1")
        b, _ = bench_run(w, 1, 1)
        for c in COUNTS:
            va = a["metrics"][c]["value"]
            vb = b["metrics"][c]["value"]
            check(va == vb, "%s: count %s differs across runs of one seed: "
                  "%r vs %r" % (w, c, va, vb))
        c2, rep_c = bench_run(w, 2, 1)
        check_line(c2, layer, w + " trace 1 seed 2")
        check(rep_a["inputs_hash"] != rep_c["inputs_hash"],
              w + ": seed 2 did not change the inputs")
        print("%s: ok" % w if not errors else "%s: checked" % w, flush=True)

    if errors:
        print("%d self-test failure(s)" % len(errors))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
