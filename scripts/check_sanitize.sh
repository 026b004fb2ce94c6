#!/bin/sh
# Configures a dedicated build tree with AddressSanitizer + UBSan enabled
# (the RPMIS_SANITIZE CMake option) and runs the full ctest suite in it.
# The raw-buffer parsers and the threaded text scan are the code these
# checks exist for. The tree keeps RelWithDebInfo's -O2 -g but drops its
# -DNDEBUG, so the RPMIS_DASSERT invariant checks run as well. Override
# the sanitizer list with, e.g.:
#   RPMIS_SANITIZE=thread scripts/check_sanitize.sh
# For a focused TSan pass over the component-parallel solve path with
# RPMIS_THREADS pinned to 8, use scripts/check_tsan_components.sh.
set -eu

cd "$(dirname "$0")/.."
SANITIZE="${RPMIS_SANITIZE:-address,undefined}"
BUILD_DIR="build-sanitize"

cmake -B "$BUILD_DIR" -S . -DRPMIS_SANITIZE="$SANITIZE" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"
cmake --build "$BUILD_DIR" -j
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
