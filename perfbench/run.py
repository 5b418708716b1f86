#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload large-mul|serve-mixed|ft-recovery \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

Configures and builds perfbench/ (which compiles the libraries in src/) into
$CARGO_TARGET_DIR or .bench_build, runs the benchmark program, and passes its
output through. The last line of standard output is its JSON result; this
script checks that it names exactly the metrics BENCHMARK.json lists for the
mode (end_to_end for --trace 0, per_layer for --trace 1) with their units.
Build output goes to standard error. Exits nonzero, without a result line,
when the build fails or the result is missing or malformed. --all runs the
harness tests and then every workload untraced and traced.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["large-mul", "serve-mixed", "ft-recovery"]
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir, targets):
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", *targets, "-j", "3"],
    ]
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")


def check_result(line, bench_json, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has the wrong keys")
    with open(bench_json) as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and got[k] != want[k])}")


def run_one(build_dir, bench_json, workload, seed, seconds, trace):
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{workload}-{seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"the benchmark program failed to run: {e}")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail(f"the benchmark program exited with status {run.returncode}")
    check_result(lines[-1], bench_json, trace)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    bench_json = os.path.join(root, "BENCHMARK.json")
    if not args.all:
        build(bench_dir, build_dir, ["perfbench"])
        run_one(build_dir, bench_json, args.workload, args.seed, args.seconds,
                args.trace)
        return
    build(bench_dir, build_dir, ["perfbench", "perfbench_tests"])
    tests = subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                           stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    if tests.returncode != 0:
        fail("harness tests failed")
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            run_one(build_dir, bench_json, workload, args.seed, args.seconds,
                    trace)


if __name__ == "__main__":
    main()
