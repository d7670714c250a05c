#!/usr/bin/env bash
# Builds (Release) and runs the LP engine benchmark, leaving BENCH_lp.json
# in the repo root: the cold_solve series (wall time and pivots of a cold
# solve of 100-, 500- and 2,000-row ladder-shaped LPs) and end-to-end
# FilterAssign throughput.
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
