#!/usr/bin/env bash
# Builds (Release) and runs the broker-failure repair benchmark, leaving
# BENCH_repair.json in the repo root: mass-failure repair counts and Q(T)
# inflation at 1% / 5% / 10% failure rates on the grid workload.
#
# Usage: scripts/bench_repair.sh [build-dir]   (default: build-release)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_repair -j
"$BUILD_DIR/bench/bench_repair" BENCH_repair.json
echo "BENCH_repair.json:"
cat BENCH_repair.json
