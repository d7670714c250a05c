#!/usr/bin/env bash
# Builds (Release) and runs the aggregation-layer benchmark, leaving
# BENCH_agg.json in the repo root: direct SLP vs aggregate-solve-then-
# expand (wall time, compression ratio, Q(T), peak RSS) across coverable
# fractions at 100k and at the >=50%-coverable setting at 1M on the grid
# and GG workloads. The binary exits nonzero if a row's in-run checks
# fail: both solutions must pass ValidateSolution's structural checks
# (assignment, coverage, nesting, alpha) and agree on latency
# feasibility.
#
# Usage: scripts/bench_agg.sh [build-dir]   (default: build-release)
# SLP_AGG_MAX caps the largest size (e.g. 100000 for a smoke run).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_agg -j
"$BUILD_DIR/bench/bench_agg" BENCH_agg.json
echo "BENCH_agg.json:"
cat BENCH_agg.json
