#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload solve|serve|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark are built
into .bench_build/perfbench (Release). The last line of standard output
is the JSON result; build logs and progress go to standard error.

With --trace 1 the workload runs twice, each in its own process: first
untraced, then traced. The traced result carries the per-layer metrics
plus the tracing overhead: each traced whole-call span minus the same
call's untraced time from the first process, both at the reference machine
speed (README.md).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "slp_perfbench"
RUN_TIMEOUT_S = 170

# Overhead metric -> (traced whole-call span, workloads whose untraced run
# times the same call).
OVERHEAD = {
    "trace.overhead.run_slp_s": ("core.run_slp_s", ["solve"]),
    "trace.overhead.simulate_s": ("sim.simulate_s", ["solve", "serve"]),
    "trace.overhead.replay_s": ("sim.replay_s", ["churn"]),
}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    # Keep the compiler's temporary files inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("build failed")


def run(args, trace, trace_out=None):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def untraced_seconds(span, e2e, layer):
    """The untraced run's time, at the reference speed, for the call the
    traced span covers."""
    if span == "core.run_slp_s":
        return e2e["assign_cpu_s"]
    return layer["sim.stream_events"] / e2e["events_per_cpu_s"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["solve", "serve", "churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    untraced = run(args, 0)
    if args.trace == 0:
        print(json.dumps(untraced))
        return

    trace_dir = BUILD / "traces"
    trace_dir.mkdir(exist_ok=True)
    traced = run(args, 1, trace_dir / f"{args.workload}-seed{args.seed}.json")
    e2e, layer = values(untraced), values(traced)
    for metric, (span, workloads) in OVERHEAD.items():
        overhead = 0.0
        if args.workload in workloads:
            # Per-layer spans are raw CPU seconds; scale to the reference
            # speed like the untraced run's end-to-end times.
            overhead = (layer[span] * layer["bench.speed"]
                        - untraced_seconds(span, e2e, layer))
        traced["metrics"][metric] = {"value": overhead, "unit": "s"}
    traced["correct"] = traced["correct"] and untraced["correct"]
    print(json.dumps(traced))


if __name__ == "__main__":
    main()
