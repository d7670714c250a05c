#!/usr/bin/env bash
# Builds (Release) and runs the soft-state liveness churn benchmark,
# leaving BENCH_churn.json in the repo root: false-suspicion rate vs
# detection latency across three lease settings on a mixed
# churn + slow-broker plan, plus Q(T) inflation under sustained churn
# with a balanced lease vs the default oracle lease (crash-stop).
#
# Usage: scripts/bench_churn.sh [build-dir]   (default: build-release)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_churn -j
"$BUILD_DIR/bench/bench_churn" BENCH_churn.json
echo "BENCH_churn.json:"
cat BENCH_churn.json
