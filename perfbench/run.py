#!/usr/bin/env python3
"""HYMV benchmark runner.

Builds the benchmark program from the checkout's sources (perfbench/ plus
../src), runs one workload in its own process with a clean environment and
the workload's OpenMP thread budget, prints every metric by name with its
unit, and ends with one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end set, with --trace 1 the
per-layer set (a separate, span-recorded run). Usage, from the checkout root:

    python3 perfbench/run.py --workload hex8_crack_2r1t --seed 1 \\
        --seconds 25 --trace 0

--tiny and --steps N (self-test only) shrink the problems and fix the number
of timed steps so counts repeat exactly across runs of one seed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload -> OpenMP threads per simmpi rank. libgomp reads OMP_NUM_THREADS
# once at process start; simmpi rank threads and svc worker jobs inherit it.
WORKLOADS = {
    "hex8_crack_2r1t": 1,   # 2 ranks x 1 thread
    "hex20_mg_1r2t": 2,     # 1 rank x 2 threads
    "svc_loadcases_c4": 1,  # 2 workers x 1 rank x 1 thread
}

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "update_s": "s",
    "spmv_ms": "ms",
    "peak_rss_mb": "MB",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}

PER_LAYER = {
    # setup chain
    "mesh.build_s": "s",
    "driver.context_s": "s",
    "fem.emat_s": "s",
    "core.store_s": "s",
    "core.maps_s": "s",
    "core.schedule_s": "s",
    "driver.rhs_s": "s",
    "pla.precond_setup_s": "s",
    "core.store_mb": "MB",
    # in-place update
    "core.update_s": "s",
    "core.updated_elements": "count",
    "pla.precond_rebuild_s": "s",
    # CG solve
    "pla.cg_iterations": "count",
    "core.applies_per_solve": "count",
    "core.apply_s": "s",
    "core.apply.emv_s": "s",
    "core.apply.lnsm_s": "s",
    "core.apply.gngm_s": "s",
    "pla.precond_apply_s": "s",
    "pla.cg_other_s": "s",
    # warm SPMV block
    "spmv.emv_ms": "ms",
    "spmv.lnsm_ms": "ms",
    "spmv.gngm_ms": "ms",
    "simmpi.messages_per_apply": "count",
    "simmpi.bytes_per_apply": "B",
    "core.apply_bytes_computed": "B",
    "core.apply_flops": "flop",
    "core.apply_gbps_computed": "GB/s",
    "core.apply_gflops": "GFLOP/s",
    "host.triad_gbps": "GB/s",
    "core.spmv_1t_ms": "ms",
    "core.thread_speedup": "ratio",
    # requests
    "svc.queue_ms_p50": "ms",
    "svc.exec_ms_p50": "ms",
    # the trace itself
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    "trace.max_unaccounted_pct": "%",
    "run.threads_total": "count",
}

PROGRAM_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build; returns the program path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("HYMV sources (src/) not found next to perfbench/", 2)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j3"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                die("build failed:\n" + tail, 3)
    return os.path.join(bdir, "hymv_perfbench")


def clean_env(omp_threads):
    env = {k: v for k, v in os.environ.items()
           if not (k.startswith("HYMV_") or k.startswith("OMP_")
                   or k.startswith("GOMP_"))}
    env["OMP_NUM_THREADS"] = str(omp_threads)
    return env


def fmt(v):
    return "%.6g" % v if isinstance(v, (int, float)) else str(v)


def print_report(rep):
    print("workload %s  correct=%s attempted=%d failed=%d" % (
        rep["workload"], rep["correct"], rep["attempted"], rep["failed"]))
    for k in sorted(rep["info"]):
        print("  info   %-32s %s" % (k, rep["info"][k]))
    for section in ("end_to_end", "per_layer"):
        for name in sorted(rep[section]):
            m = rep[section][name]
            print("  %-6s %-32s %14s %s" % (
                section[:6], name, fmt(m["value"]), m["unit"]))
    for d in rep["decompositions"]:
        print("  decomposition of %s = %s %s (%s)" % (
            d["parent"], fmt(d["value"]), d["unit"],
            "exact: " + d["exact_because"] if d["exact_because"]
            else "checked"))
        for row, v in d["rows"].items():
            share = 100.0 * v / d["value"] if d["value"] else 0.0
            print("      %-30s %14s %6.1f%%" % (row, fmt(v), share))
        un = d["unaccounted"]
        share = 100.0 * un / d["value"] if d["value"] else 0.0
        print("      %-30s %14s %6.1f%%" % ("unaccounted", fmt(un), share))
    for f in rep["failures"]:
        print("  FAILURE " + f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--steps", type=int, default=0)
    args = ap.parse_args()

    bdir = build_dir()
    prog = build(bdir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [prog, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(bdir, "trace-%s.json" % tag)]
    if args.tiny:
        cmd.append("--tiny")
    if args.steps:
        cmd += ["--steps", str(args.steps)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(
            WORKLOADS[args.workload]), stdout=subprocess.PIPE,
            timeout=PROGRAM_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("workload exceeded %d s" % PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        die("workload program exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("workload program printed no report")
    rep = json.loads(lines[-1])
    with open(os.path.join(bdir, "report-%s.json" % tag), "w") as f:
        json.dump(rep, f, indent=1, sort_keys=True)

    print_report(rep)

    wanted = PER_LAYER if args.trace else END_TO_END
    section = rep["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, unit in wanted.items():
        m = section.get(name)
        if m is None or m["unit"] != unit or m["value"] is None:
            die("metric %s missing or not in %s" % (name, unit))
        if not args.trace and not (math.isfinite(m["value"])
                                   and m["value"] > 0):
            die("end-to-end metric %s is not positive: %r" % (name, m["value"]))
        metrics[name] = {"value": m["value"], "unit": unit}
    print(json.dumps({"correct": bool(rep["correct"]) and rep["failed"] == 0,
                      "attempted": int(rep["attempted"]),
                      "failed": int(rep["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
