#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, reported per metric.

    scripts/perf_pairs.py --run serve:211-220 --run churn:221-230 \\
        [--base REF] [--trace]

Run from the root of a checkout: that working tree is the *change*. The
*parent* is the commit --base names (default HEAD, which compares an
uncommitted change with its parent; compare a committed one with
--base HEAD~1, a branch with --base $(git merge-base main HEAD)). It is
checked out detached into a git worktree at .bench_build/perf_pairs_parent
(ignored, like the rest of .bench_build/) and removed on exit.

perfbench is built in both trees first (perfbench/run.py's own build, into
each tree's .bench_build/). Then, for each --run WORKLOAD:SEEDS, every seed
is one pair: the parent and the change each run perfbench/run.py once on
that seed for BENCHMARK.json's run_seconds, the parent first on even pairs
and the change first on odd ones, so slow drift of the machine falls on
both sides alike. With --trace each side also makes a traced run after its
untraced one, and the report adds the traced run's per-layer metrics.

For each metric the report prints, per side, the median, the quartiles and
IQR / median; the change's median relative to the parent's; the pairs the
change won; and whether the medians differ by more than the parent's
interquartile range. It gates nothing on timings. It exits nonzero if a run
fails or is not `correct`, or if `qt`, `lbf`, `attempted` or `failed`
differ between the two sides on any seed; those come from the untraced
runs.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

IDENTICAL_METRICS = ("qt", "lbf")
IDENTICAL_FIELDS = ("attempted", "failed")


def fail(message):
    print(f"perf_pairs.py: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args, cwd):
    out = subprocess.run(["git", *args], cwd=cwd, stdout=subprocess.PIPE,
                         text=True, check=True)
    return out.stdout.strip()


def parse_run(spec):
    workload, _, seeds = spec.partition(":")
    if workload not in ("solve", "serve", "churn") or not seeds:
        fail(f"bad --run {spec!r}; expected WORKLOAD:SEEDS, e.g. serve:211-220")
    out = []
    for part in seeds.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return workload, out


def build(tree):
    """Builds perfbench in `tree` with that tree's own perfbench/run.py."""
    code = ("import importlib.util as u; "
            "s = u.spec_from_file_location('run', 'perfbench/run.py'); "
            "m = u.module_from_spec(s); s.loader.exec_module(m); m.build()")
    if subprocess.run([sys.executable, "-c", code], cwd=tree).returncode:
        fail(f"perfbench build failed in {tree}")


def perfbench(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"{workload} seed {seed} failed in {tree}")
    return json.loads(lines[-1])


def run_once(tree, workload, seed, seconds, trace):
    """One side of a pair: the untraced result, plus the traced run's
    per-layer metrics when `trace`."""
    result = perfbench(tree, workload, seed, seconds, False)
    if trace:
        traced = perfbench(tree, workload, seed, seconds, True)
        for name, metric in traced["metrics"].items():
            result["metrics"].setdefault(name, metric)
        result["correct"] = result["correct"] and traced["correct"]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(q1, med, q3):
    """IQR / median."""
    return (q3 - q1) / med if med else float("nan")


def better_of(metric, spec):
    for m in spec:
        if m["name"] == metric:
            return m.get("better", "lower")
    return "lower"


def report(workload, pairs, benchmark):
    spec = benchmark["end_to_end"] + benchmark.get("per_layer", [])
    names = [m["name"] for m in spec]
    metrics = [n for n in names
               if all(n in p[s]["metrics"] for p in pairs
                      for s in ("parent", "change"))]
    print(f"\n### {workload}: {len(pairs)} pairs, seeds "
          f"{pairs[0]['seed']}-{pairs[-1]['seed']}\n")
    print("| metric | parent median [Q1, Q3] | IQR/med | change median "
          "[Q1, Q3] | IQR/med | change/parent | wins | beyond parent IQR |")
    print("|---|---|---|---|---|---|---|---|")
    for name in metrics:
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        higher = better_of(name, spec) == "higher"
        wins = sum(1 for a, b in zip(parent, change)
                   if (b > a if higher else b < a))
        ratio = cmed / pmed if pmed else float("nan")
        beyond = abs(cmed - pmed) > (pq3 - pq1)
        print(f"| `{name}` | {pmed:.6g} [{pq1:.6g}, {pq3:.6g}] | "
              f"{spread(pq1, pmed, pq3):.3f} | {cmed:.6g} [{cq1:.6g}, "
              f"{cq3:.6g}] | {spread(cq1, cmed, cq3):.3f} | {ratio:.3f} | "
              f"{wins}/{len(pairs)} | {'yes' if beyond else 'no'} |")


def mismatches(pair):
    """Fields and metrics that must agree bit for bit; a metric missing on
    either side counts as a mismatch."""
    parent, change = pair["parent"], pair["change"]
    bad = [f for f in IDENTICAL_FIELDS if parent[f] != change[f]]
    for m in IDENTICAL_METRICS:
        if m not in parent["metrics"] or m not in change["metrics"]:
            bad.append(f"{m} (missing)")
        elif parent["metrics"][m] != change["metrics"][m]:
            bad.append(m)
    return bad


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--run", action="append", required=True,
                        help="WORKLOAD:SEEDS, seeds as 211-220 or 1,4,9")
    parser.add_argument("--base", default="HEAD",
                        help="the parent commit (default HEAD)")
    parser.add_argument("--trace", action="store_true",
                        help="add traced runs: report the per-layer metrics")
    args = parser.parse_args()
    runs = [parse_run(spec) for spec in args.run]

    change_dir = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    benchmark = json.loads((change_dir / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}",
              cwd=change_dir)
    worktree = change_dir / ".bench_build" / "perf_pairs_parent"
    if worktree.exists():
        fail(f"{worktree} exists; remove it (git worktree remove)")
    worktree.parent.mkdir(parents=True, exist_ok=True)
    git("worktree", "add", "--detach", str(worktree), sha, cwd=change_dir)
    print(f"parent: {sha} in {worktree}", file=sys.stderr)
    try:
        trees = {"parent": worktree, "change": change_dir}
        for tree in trees.values():
            build(tree)
        failed = False
        for workload, seeds in runs:
            pairs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else \
                        ("change", "parent")
                pair = {"seed": seed}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed,
                                          seconds, args.trace)
                    print(f"{workload} seed {seed} {side}: done",
                          file=sys.stderr)
                for side in ("parent", "change"):
                    if not pair[side]["correct"]:
                        print(f"{workload} seed {seed}: {side} run is not "
                              "correct", file=sys.stderr)
                        failed = True
                bad = mismatches(pair)
                if bad:
                    print(f"{workload} seed {seed}: {', '.join(bad)} differ",
                          file=sys.stderr)
                    failed = True
                pairs.append(pair)
            report(workload, pairs, benchmark)
        sys.exit(1 if failed else 0)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                       cwd=change_dir)
        shutil.rmtree(worktree, ignore_errors=True)


if __name__ == "__main__":
    main()
