#!/usr/bin/env python3
"""Benchmark entry point: builds the harness from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness is built under .bench_build/
with CMake. Untraced runs (--trace 0) report the end-to-end metrics, traced
runs (--trace 1) the per-layer metrics. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
it report the host context, the percentile rule and each layer's self time.
The exit code is non-zero when an output check failed or the run could not
be made.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ["fig8b-batch", "pubmed-sharded", "serve-mixed"]
BUILD_TYPE = "RelWithDebInfo"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path or
    None when the build fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return None
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log("build failed: %s" % " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def git_rev():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
        rev = proc.stdout.decode().strip()
        return rev if proc.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def report(raw, trace, self_ms):
    ctx = dict(raw["context"])
    ctx["git_rev"] = git_rev()
    print("context " + json.dumps(ctx, sort_keys=True))
    if raw.get("errors"):
        print("errors " + json.dumps(raw["errors"][:20]))
    rows = raw["queries"]
    if not trace:
        cpu = metrics.cpu_samples(raw)
        n = len(cpu)
        best = metrics.highest_supported_percentile(n)
        line = {"samples": n, "sample": "epoch" if "epoch_cpu_ms" in raw else "query",
                "p90_supported": metrics.p90_supported(n),
                "highest_supported_percentile": best}
        if best is not None:
            line["cpu_ms_at_highest"] = metrics.percentile(cpu, best)
        print("percentiles " + json.dumps(line))
        if not metrics.p90_supported(n):
            log("warning: cpu_ms_p90 rests on %d samples (< 100)" % n)
        print("wall " + json.dumps(metrics.wall(raw)))
    else:
        queries = max(1, sum(1 for t in rows["traced"] if t))
        for name in sorted(self_ms):
            s = self_ms[name]
            print("self_time %-36s spans %7d  total %10.3f ms  per traced query %9.4f ms"
                  % (name, s["count"], s["self_ms_total"], s["self_ms_total"] / queries))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.join(ROOT, ".bench_build")
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 2

    tag = "%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid())
    out_dir = os.path.join(build_root, "perfbench-out")
    scratch = os.path.join(out_dir, tag + ".tmp")
    out_path = os.path.join(out_dir, tag + ".json")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_path, "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=170)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        log("harness timed out")
        code = -1
    try:
        if code != 0:
            log("harness failed with exit code %d" % code)
            return 3
        with open(out_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if os.path.exists(out_path):
            os.remove(out_path)

    attempted, failed = metrics.counts(raw)
    if args.trace:
        values, self_ms = metrics.per_layer(raw)
        spec = metrics.PER_LAYER
    else:
        values, self_ms = metrics.end_to_end(raw), {}
        spec = metrics.END_TO_END
    report(raw, args.trace, self_ms)
    result = {
        "correct": failed == 0 and not raw.get("errors"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
