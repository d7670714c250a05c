#!/usr/bin/env python3
"""Alternating parent/change perfbench pairs, reported per metric.

    scripts/perf_pairs.py --run serve:211-220 --run churn:221-230 \\
        [--base REF] [--trace] [--quality WORKLOAD]
    scripts/perf_pairs.py --self-test

Run from the root of a checkout: that working tree is the *change*. The
*parent* is the commit --base names (default HEAD, which compares an
uncommitted change with its parent; compare a committed one with
--base HEAD~1, a branch with --base $(git merge-base main HEAD)). It is
exported with `git archive` into .bench_build/perf_pairs_parent (ignored,
like the rest of .bench_build/) and removed on exit; an export left behind
by a killed run is replaced. An export, unlike a worktree, leaves nothing
in the repository's git metadata.

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
interquartile range. It exits nonzero if a run fails or is not `correct`;
if `qt`, `lbf`, `attempted` or `failed` differ between the two sides on any
seed (those come from the untraced runs); or if, on any workload, an
end-to-end metric's median is worse than the parent's by more than that
metric's BENCHMARK.json bound, relative to the parent's median.

--quality WORKLOAD (repeatable) is for a change that is meant to move the
solution, e.g. by drawing a different random stream. For that workload,
`qt` and `lbf` leave the identity gate (they must still be present on both
sides), and the report adds, per metric, the per-seed change / parent
ratio: its median, quartiles, min and max, the seeds the change won and
lost, and the two-sided sign-test p of wins against losses (ties
dropped). `correct`, `attempted`, `failed` and the bound gate still apply.

--self-test checks the bound gate, the identity gate and the quality report
on synthetic pairs and exits nonzero if any misjudges one; CI runs it.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The solution-quality metrics: identical on both sides, unless --quality
# names the workload.
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


def regressions(pairs, benchmark):
    """End-to-end metrics whose change median is worse than the parent's by
    more than the metric's bound (a fraction of the parent's median)."""
    out = []
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        if not all(name in p[s]["metrics"] for p in pairs
                   for s in ("parent", "change")):
            continue
        pmed = statistics.median(p["parent"]["metrics"][name]["value"]
                                 for p in pairs)
        cmed = statistics.median(p["change"]["metrics"][name]["value"]
                                 for p in pairs)
        worse = pmed - cmed if spec.get("better", "lower") == "higher" \
            else cmed - pmed
        if worse > spec["bound"] * abs(pmed):
            out.append(f"{name} median {cmed:.6g} against {pmed:.6g}, worse "
                       f"by more than its bound {spec['bound']:g}")
    return out


def identity_value(side, name):
    """A field or metric the identity gate compares; None when missing."""
    if name in IDENTICAL_FIELDS:
        return side[name]
    metric = side["metrics"].get(name)
    return None if metric is None else metric["value"]


def mismatches(pair, quality=False):
    """Fields and metrics that must agree bit for bit; a metric missing on
    either side counts as a mismatch. With `quality`, the quality metrics
    need only be present on both sides."""
    bad = []
    for name in IDENTICAL_FIELDS + IDENTICAL_METRICS:
        parent = identity_value(pair["parent"], name)
        change = identity_value(pair["change"], name)
        if parent is None or change is None:
            bad.append(name)
        elif parent != change and not (quality and
                                       name in IDENTICAL_METRICS):
            bad.append(name)
    return bad


def sign_test(wins, losses):
    """Two-sided sign-test p of `wins` against `losses` (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def quality_stats(pairs, name, benchmark):
    """The per-seed change / parent ratios of metric `name` and their
    summary: median, quartiles, min, max, wins, losses and sign-test p."""
    higher = better_of(name, benchmark["end_to_end"]) == "higher"
    ratios = [p["change"]["metrics"][name]["value"] /
              p["parent"]["metrics"][name]["value"] for p in pairs]
    wins = sum(1 for r in ratios if (r > 1 if higher else r < 1))
    losses = sum(1 for r in ratios if (r < 1 if higher else r > 1))
    q1, med, q3 = quartiles(ratios)
    return {"ratios": ratios, "median": med, "q1": q1, "q3": q3,
            "min": min(ratios), "max": max(ratios), "wins": wins,
            "losses": losses, "p": sign_test(wins, losses)}


def quality_report(workload, pairs, benchmark):
    print(f"\n### {workload} quality: change / parent per seed, "
          f"{len(pairs)} seeds\n")
    print("| metric | median [Q1, Q3] | min | max | wins | losses | "
          "sign-test p |")
    print("|---|---|---|---|---|---|---|")
    per_seed = []
    for name in IDENTICAL_METRICS:
        if not all(name in p[s]["metrics"] for p in pairs
                   for s in ("parent", "change")):
            continue  # the gate already flagged the missing metric
        q = quality_stats(pairs, name, benchmark)
        print(f"| `{name}` | {q['median']:.4f} [{q['q1']:.4f}, "
              f"{q['q3']:.4f}] | {q['min']:.4f} | {q['max']:.4f} | "
              f"{q['wins']}/{len(pairs)} | {q['losses']}/{len(pairs)} | "
              f"{q['p']:.3g} |")
        per_seed.append(f"{name} per seed: " + ", ".join(
            f"{p['seed']} {r:.4f}" for p, r in zip(pairs, q["ratios"])))
    print()
    for line in per_seed:
        print(line)


def self_test():
    """Judges synthetic pairs against a two-metric benchmark and returns the
    process exit status."""
    benchmark = {"end_to_end": [
        {"name": "cpu_s", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.25},
    ]}

    def pairs(parent, change):
        out = []
        for seed, (pv, cv) in enumerate(zip(parent, change)):
            out.append({"seed": seed, **{
                side: {"attempted": 1, "failed": 0, "metrics": {
                    "cpu_s": {"value": v[0]}, "rate": {"value": v[1]},
                    "qt": {"value": 1.0}, "lbf": {"value": 1.0}}}
                for side, v in (("parent", pv), ("change", cv))}})
        return out

    base = [(1.0, 100.0), (1.1, 110.0), (0.9, 90.0)]
    cases = [
        ("identical runs pass", base, base, []),
        ("cpu 20 % worse passes", base,
         [(c * 1.2, r) for c, r in base], []),
        ("cpu 30 % worse fails", base,
         [(c * 1.3, r) for c, r in base], ["cpu_s"]),
        ("cpu 3x better passes", base,
         [(c / 3, r) for c, r in base], []),
        ("rate 30 % lower fails", base,
         [(c, r * 0.7) for c, r in base], ["rate"]),
        ("rate 2x higher passes", base,
         [(c, r * 2) for c, r in base], []),
        # One outlier pair moves no median.
        ("one slow pair passes", base,
         [(5.0, 100.0), (1.1, 110.0), (0.9, 90.0)], []),
        ("both worse fail", base,
         [(c * 2, r / 2) for c, r in base], ["cpu_s", "rate"]),
    ]
    failures = 0
    for label, parent, change, want in cases:
        got = [line.split()[0]
               for line in regressions(pairs(parent, change), benchmark)]
        if got != want:
            print(f"perf_pairs.py --self-test: {label}: flagged {got}, "
                  f"expected {want}")
            failures += 1
    odd = pairs(base, base)
    del odd[0]["change"]["metrics"]["lbf"]
    odd[1]["change"]["metrics"]["qt"]["value"] = 1.5
    odd[2]["change"]["failed"] = 1
    both_missing = pairs(base, base)[0]
    for side in ("parent", "change"):
        del both_missing[side]["metrics"]["qt"]
    judged = odd + [both_missing, pairs(base, base)[0]]
    got = [mismatches(p) for p in judged]
    if got != [["lbf"], ["qt"], ["failed"], ["qt"], []]:
        print(f"perf_pairs.py --self-test: identity gate flagged {got}")
        failures += 1
    # Under --quality a moved qt passes; a missing metric, or a moved
    # attempted/failed, still fails.
    got = [mismatches(p, quality=True) for p in judged]
    if got != [["lbf"], [], ["failed"], ["qt"], []]:
        print(f"perf_pairs.py --self-test: quality gate flagged {got}")
        failures += 1

    # Quality report: qt ratios 0.9, 0.95, 1.0, 1.05, 0.8 win 3, lose 1 and
    # tie 1 (p = 2·(1 + 4)/16); ten wins of ten give p = 2/1024. lbf's
    # "better" defaults to lower, like BENCHMARK.json's.
    moved = pairs(base * 2, base * 2)[:5]
    for pair, r in zip(moved, (0.9, 0.95, 1.0, 1.05, 0.8)):
        pair["change"]["metrics"]["qt"] = {"value": r}
    q = quality_stats(moved, "qt", benchmark)
    want = {"median": 0.95, "q1": 0.9, "q3": 1.0, "min": 0.8, "max": 1.05,
            "wins": 3, "losses": 1, "p": 0.625}
    if any(not math.isclose(q[k], v) for k, v in want.items()):
        print(f"perf_pairs.py --self-test: quality stats {q}, expected {want}")
        failures += 1
    swept = pairs(base * 4, base * 4)[:10]
    for pair in swept:
        pair["change"]["metrics"]["lbf"] = {"value": 0.99}
    q = quality_stats(swept, "lbf", benchmark)
    if (q["wins"], q["losses"]) != (10, 0) or \
            not math.isclose(q["p"], 2 / 1024):
        print(f"perf_pairs.py --self-test: ten lbf wins judged {q}")
        failures += 1
    if failures:
        print(f"perf_pairs.py --self-test: {failures} case(s) FAILED")
        return 1
    print(f"perf_pairs.py --self-test: {len(cases) + 4} cases ok")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--run", action="append", required=True,
                        help="WORKLOAD:SEEDS, seeds as 211-220 or 1,4,9")
    parser.add_argument("--base", default="HEAD",
                        help="the parent commit (default HEAD)")
    parser.add_argument("--trace", action="store_true",
                        help="add traced runs: report the per-layer metrics")
    parser.add_argument("--quality", action="append", default=[],
                        metavar="WORKLOAD",
                        help="report qt and lbf per-seed ratios for this "
                             "workload instead of requiring them identical")
    args = parser.parse_args()
    runs = [parse_run(spec) for spec in args.run]
    for workload in args.quality:
        if workload not in (w for w, _ in runs):
            fail(f"--quality {workload!r} names no --run workload")

    change_dir = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    benchmark = json.loads((change_dir / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}",
              cwd=change_dir)
    parent_dir = change_dir / ".bench_build" / "perf_pairs_parent"
    shutil.rmtree(parent_dir, ignore_errors=True)
    parent_dir.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], cwd=change_dir,
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(parent_dir)],
                           stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        fail(f"could not export {sha} into {parent_dir}")
    print(f"parent: {sha} in {parent_dir}", file=sys.stderr)
    try:
        trees = {"parent": parent_dir, "change": change_dir}
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
                bad = mismatches(pair, workload in args.quality)
                if bad:
                    values = ", ".join(
                        f"{name} {identity_value(pair['parent'], name)!r} -> "
                        f"{identity_value(pair['change'], name)!r}"
                        for name in bad)
                    print(f"{workload} seed {seed}: differ: {values}",
                          file=sys.stderr)
                    failed = True
                pairs.append(pair)
            report(workload, pairs, benchmark)
            if workload in args.quality:
                quality_report(workload, pairs, benchmark)
            for line in regressions(pairs, benchmark):
                print(f"{workload}: {line}", file=sys.stderr)
                failed = True
        sys.exit(1 if failed else 0)
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
