#!/usr/bin/env bash
# Builds (Release) and runs the matching benchmark, leaving
# BENCH_match.json in the repo root: events/sec of Simulate's routing
# (single thread and sharded over the shared thread pool) on a
# 1000-broker / 100k-subscriber grid workload. The binary exits nonzero
# unless the stream routes with zero missed deliveries and the sharded
# stats equal the serial ones.
#
# Usage: scripts/bench_match.sh [build-dir]   (default: build-release)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_match -j
"$BUILD_DIR/bench/bench_match" BENCH_match.json
echo "BENCH_match.json:"
cat BENCH_match.json
