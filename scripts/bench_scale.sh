#!/usr/bin/env bash
# Builds (Release) and runs the scale benchmark, leaving BENCH_scale.json
# in the repo root: wall time and peak RSS of the million-subscriber
# pipeline — end-to-end SLP serial vs sharded, and one AddBatch of every
# arrival — at 100k and 1M subscribers, with in-run checks (sharded SLP
# bit-identical to serial, AddBatch admits everyone; the binary exits
# nonzero on any failure).
#
# Usage: scripts/bench_scale.sh [build-dir]   (default: build-release)
# SLP_SCALE_MAX caps the largest size (e.g. 100000 for a smoke run).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_scale -j
"$BUILD_DIR/bench/bench_scale" BENCH_scale.json
echo "BENCH_scale.json:"
cat BENCH_scale.json
