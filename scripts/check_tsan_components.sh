#!/bin/sh
# ThreadSanitizer gate for the component-parallel solve path: builds a
# dedicated tree with RPMIS_SANITIZE=thread and runs the suites that
# exercise cross-thread code (the parallel component scheduler and the
# RunParallel fan-out under it, the benchkit measurement plumbing, and the
# solvers those threads run concurrently) with RPMIS_THREADS=8 so the
# scheduler genuinely runs multi-threaded under the race detector. The
# CSR build and the induced-CSR fills (Graph*, Compaction*,
# CompactGraphParallel) are serial; their suites stay in the filter as
# the thread-count-invariance checks they are. Companion to
# scripts/check_sanitize.sh (ASan/UBSan over the full suite).
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="build-tsan"

cmake -B "$BUILD_DIR" -S . -DRPMIS_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j
RPMIS_THREADS=8 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -j "$(nproc)" -R 'PerComponent|Parallel|Graph|ComponentExtractor|ConnectedComponents|Run|Dominance|Compaction'
