#!/bin/sh
# mis_cli numeric-flag gate (runs in ctest tier-1 as `check_cli_flags`):
# every malformed --time / --compaction-threshold value must be rejected
# with exit status 2 and a diagnostic naming the flag and the value — not
# an uncaught exception, and not a silently truncated number.
#
# Usage: check_cli_flags.sh MIS_CLI_BINARY
set -eu

if [ "$#" -ne 1 ]; then
    echo "usage: $0 MIS_CLI_BINARY" >&2
    exit 2
fi
CLI="$1"

TMPDIR_CLI="$(mktemp -d "${TMPDIR:-/tmp}/rpmis_check_cli.XXXXXX")"
trap 'rm -rf "$TMPDIR_CLI"' EXIT INT TERM
GRAPH="$TMPDIR_CLI/path.txt"
printf '0 1\n1 2\n' > "$GRAPH"

failures=0
# expect_rejected FLAG VALUE
expect_rejected() {
    status=0
    "$CLI" "$GRAPH" --no-cache "$1=$2" > /dev/null 2> "$TMPDIR_CLI/err" || status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $1=$2 exited with $status, expected 2" >&2
        failures=$((failures + 1))
    elif ! grep -qF "invalid value for $1: '$2'" "$TMPDIR_CLI/err"; then
        echo "FAIL: $1=$2 diagnostic does not name the flag and value:" >&2
        cat "$TMPDIR_CLI/err" >&2
        failures=$((failures + 1))
    else
        echo "ok: $1=$2 rejected"
    fi
}

expect_rejected --time abc
expect_rejected --time 5s
expect_rejected --time ''
expect_rejected --compaction-threshold abc
expect_rejected --compaction-threshold 0.5junk

# Well-formed values still run.
"$CLI" "$GRAPH" --no-cache --algo=bdone --time=1 --compaction-threshold=0.5 \
    > /dev/null 2>&1 || { echo "FAIL: well-formed flags rejected" >&2; failures=$((failures + 1)); }

if [ "$failures" -ne 0 ]; then
    echo "$failures check(s) failed" >&2
    exit 1
fi
echo "all mis_cli flag checks passed"
