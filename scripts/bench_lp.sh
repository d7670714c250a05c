#!/usr/bin/env bash
# Builds (Release) and runs the LP engine benchmark, leaving BENCH_lp.json
# in the repo root: warm-vs-cold β-escalation re-solves, the dual_resolve
# series (dual simplex vs primal warm vs cold on tightened rungs: pivots +
# wall time per rung), and end-to-end FilterAssign throughput.
#
# Usage: scripts/bench_lp.sh [build-dir]   (default: build-release)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_lp -j
"$BUILD_DIR/bench/bench_lp" BENCH_lp.json
echo "BENCH_lp.json:"
cat BENCH_lp.json
