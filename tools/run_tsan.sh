#!/usr/bin/env bash
# Builds everything with ThreadSanitizer and runs all suites carrying
# the `tsan` CTest label (thread pool, parallel engine, query service +
# scheduler, streaming e2e, cache, router e2e).
#
# Usage: tools/run_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build-tsan}"

cmake -B "$BUILD_DIR" -S "$ROOT" -DSGQ_TSAN=ON
cmake --build "$BUILD_DIR" -j"$(nproc)"
cd "$BUILD_DIR" && ctest -L tsan --output-on-failure -j"$(nproc)"
