#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, Release) into .bench_build/perfbench;
later runs rebuild incrementally. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json for --trace 0 and its per-layer metrics for
--trace 1. The exit code is 0 only when every output was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# The benchmark's own spans (spans.h) every traced run must contain,
# by workload; trace_check requires each of them.
COMMON_SPANS = ["updlrm.calibrate", "serve.run"]
SPANS = {
    "clo-dlrm": ["trace.profile", "cache.mine", "updlrm.create",
                 "pipeline.tune"],
    "read2-burst": ["trace.profile", "cache.mine", "updlrm.create"],
    "clo-fleet16": ["scaleout.create"],
}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; run from a "
             "checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_benchmark(args):
    """Runs the benchmark binary; returns (exit code, its result object)."""
    cmd = [os.path.join(BUILD, "perfbench")] + args
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result (exit %d)" % done.returncode)
    return done.returncode, json.loads(lines[-1])


def check_trace(path, workload):
    spans = COMMON_SPANS + SPANS[workload]
    done = subprocess.run(
        [os.path.join(BUILD, "trace_check"), "--min-events=10",
         "--require=" + ",".join(spans), path],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
        timeout=RUN_TIMEOUT_S)
    return done.returncode == 0


def measure(opts):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + opts.workload)
    build(["perfbench", "trace_check"])
    args = ["--workload=" + opts.workload, "--seed=%d" % opts.seed,
            "--seconds=%d" % opts.seconds, "--trace=%d" % opts.trace]
    trace_path = None
    if opts.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, "%s-%d.json" % (opts.workload, opts.seed))
        args.append("--trace-out=" + trace_path)
    code, result = run_benchmark(args)
    correct = code == 0 and result["correct"]
    if trace_path is not None:
        correct = check_trace(trace_path, opts.workload) and correct
        os.remove(trace_path)
    values = result["layers"] if opts.trace else result["e2e"]
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("the benchmark did not report " + m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for message in result["messages"]:
        print("gate: " + message, file=sys.stderr)
    print("info: " + json.dumps(result["info"]), file=sys.stderr)
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def self_test():
    """The benchmark's own tests: the C++ unit tests, then the benchmark's
    width invariance and its failure on a forced wrong output."""
    build(["perfbench", "perfbench_test"])
    if subprocess.run([os.path.join(BUILD, "perfbench_test")],
                      cwd=ROOT).returncode != 0:
        return 1
    base = ["--workload=clo-fleet16", "--seed=3", "--seconds=1", "--trace=0"]
    runs = [run_benchmark(base + ["--threads=%d" % n]) for n in (1, 2)]
    host = {"setup_s", "sim_req_per_s", "peak_rss_mb"}
    sims = [{k: v for k, v in r["e2e"].items() if k not in host}
            for _, r in runs]
    if any(code != 0 for code, _ in runs) or sims[0] != sims[1]:
        print("self-test: simulated metrics differ across host widths: "
              "%s vs %s" % (sims[0], sims[1]), file=sys.stderr)
        return 1
    code, result = run_benchmark(base + ["--fault=wrong-output"])
    if code == 0 or result["correct"] or result["failed"] == 0:
        print("self-test: a forced wrong output passed the gate",
              file=sys.stderr)
        return 1
    print("self-test: ok", file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if opts.self_test:
        return self_test()
    if not opts.workload:
        parser.error("--workload is required")
    return measure(opts)


if __name__ == "__main__":
    sys.exit(main())
