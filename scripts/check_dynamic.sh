#!/bin/sh
# Multi-threaded gate for the dynamic-update engine: re-runs the dynamic
# test binaries with RPMIS_THREADS=8. The engine's own re-solve snapshots
# are a serial merge of its CSR and insert overlay, but the differential
# harness's mirror graphs and the from-scratch solves it compares against
# go through Graph::FromEdges with the parallel CSR build enabled; the
# maintained set must not change. The
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
