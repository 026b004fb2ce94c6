#!/bin/sh
# Thread-count gate for the dynamic-update engine: re-runs the dynamic
# test binaries with RPMIS_THREADS=8. Every pass the engine and the
# differential harness run is serial (the engine's re-solve snapshot, the
# harness's Graph::FromEdges mirrors and from-scratch solves), so this
# pins that the maintained set does not depend on the thread count. The
# single-threaded runs happen in the normal ctest pass; ASan/UBSan
# coverage comes from scripts/check_sanitize.sh, which builds and runs
# the full suite — these binaries included — under RPMIS_SANITIZE=address.
#
# Usage: check_dynamic.sh <test-binary> [<test-binary>...]
set -eu

[ "$#" -ge 1 ] || {
  echo "usage: $0 <test-binary> [<test-binary>...]" >&2
  exit 2
}

for bin in "$@"; do
  echo "== RPMIS_THREADS=8 $bin"
  RPMIS_THREADS=8 "$bin"
done
