#!/bin/sh
# mis_cli flag gate (runs in ctest tier-1 as `check_cli_flags`):
# - every malformed --time / --compaction-threshold value must be rejected
#   with exit status 2 and a diagnostic naming the flag and the value — not
#   an uncaught exception, and not a silently truncated number;
# - --stats must print, on stderr, every entry of the run's --metrics
#   snapshot as a `name value` line with the same value, in solver mode and
#   in --updates mode, and must leave stdout (the solution) unchanged;
# - a cone over the dynamic engine's budget takes the full re-solve: on
#   K_601, deleting the one selected vertex frees 600 > 512 vertices, and
#   --updates must verify, keep a set of size 1 and count one fallback.
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

# A deterministic 300-vertex graph with pendants and degree-two chains,
# so the reduction counters are non-zero (the LCG stays below 2^53, so any
# awk computes it exactly), and a stream with every update kind (the
# second `ae` revives the vertex `dv` deleted).
STATS_GRAPH="$TMPDIR_CLI/stats.txt"
awk 'BEGIN {
    x = 12345
    for (i = 0; i < 900; ++i) {
        x = (x * 69069 + 1) % 4294967296; u = int(x / 65536) % 240
        x = (x * 69069 + 1) % 4294967296; v = int(x / 65536) % 240
        if (u != v) print u, v
    }
    for (i = 240; i < 300; ++i) print i, (i - 240) * 4 % 240
    for (i = 270; i < 299; ++i) print i, i + 1
}' > "$STATS_GRAPH"
STREAM="$TMPDIR_CLI/stream.txt"
printf 'ae 0 299\nde 0 299\nav 1 2 3\ndv 5\nae 5 7\nde 270 271\n' > "$STREAM"

# check_stats NAME REQUIRED_METRIC... -- MIS_CLI_ARGS...
check_stats() {
    name="$1"; shift
    required=""
    while [ "$1" != "--" ]; do required="$required $1"; shift; done
    shift
    out="$TMPDIR_CLI/$name"
    rm -f "$out.jsonl"
    if ! "$CLI" "$STATS_GRAPH" --no-cache "$@" > "$out.plain" 2> /dev/null ||
       ! "$CLI" "$STATS_GRAPH" --no-cache "$@" --stats --metrics="$out.jsonl" \
           > "$out.stdout" 2> "$out.stderr"; then
        echo "FAIL: --stats $name: mis_cli exited non-zero" >&2
        failures=$((failures + 1))
        return
    fi
    if ! cmp -s "$out.plain" "$out.stdout"; then
        echo "FAIL: --stats $name: stdout differs with --stats" >&2
        failures=$((failures + 1))
    fi
    # The JSONL metrics object is flat: split it into `name value` lines.
    sed -n 's/.*"metrics":{\([^}]*\)}.*/\1/p' "$out.jsonl" | tr ',' '\n' |
        sed 's/^"\([^"]*\)":/\1 /' > "$out.expected"
    grep -E '^[a-z0-9_.]+ -?[0-9][0-9.e+-]*$' "$out.stderr" > "$out.printed" || true
    if ! awk -v required="$required" -v name="$name" '
        FILENAME == ARGV[1] { printed[$1] = $2; ++num_printed; next }
        {
            ++num_expected
            if (!($1 in printed)) {
                print "FAIL: --stats " name ": missing " $1; bad = 1; next
            }
            d = printed[$1] - $2; if (d < 0) d = -d
            scale = $2 < 0 ? -$2 : $2; if (scale < 1) scale = 1
            if (d > 1e-12 * scale) {
                print "FAIL: --stats " name ": " $1 " is " printed[$1] \
                      ", --metrics has " $2; bad = 1
            }
        }
        END {
            if (num_expected == 0) { print "FAIL: --stats " name ": empty --metrics line"; bad = 1 }
            if (num_printed != num_expected) {
                print "FAIL: --stats " name ": " num_printed " lines for " \
                      num_expected " metrics"; bad = 1
            }
            n = split(required, want, " ")
            for (i = 1; i <= n; ++i) {
                if (!(want[i] in printed)) { print "FAIL: --stats " name ": no " want[i]; bad = 1 }
            }
            exit bad
        }' "$out.printed" "$out.expected" >&2; then
        failures=$((failures + 1))
    else
        echo "ok: --stats $name prints its $(wc -l < "$out.expected" | tr -d ' ') metrics"
    fi
}

for algo in lineartime nearlinear bdtwo; do
    check_stats "$algo" rules.degree_one solution.upper_bound -- --algo="$algo"
done
check_stats updates dynamic.update_latency.p99_us dynamic.updates.insert_vertex \
    -- --updates="$STREAM" --verify

CLIQUE="$TMPDIR_CLI/k601.txt"
awk 'BEGIN { for (i = 0; i < 601; ++i) for (j = i + 1; j < 601; ++j) print i, j }' \
    > "$CLIQUE"
if ! "$CLI" "$CLIQUE" --no-cache --algo=lineartime --out="$TMPDIR_CLI/k601.sol" \
       > /dev/null 2>&1 || [ "$(wc -l < "$TMPDIR_CLI/k601.sol")" -ne 1 ]; then
    echo "FAIL: over-budget cone: K_601 does not solve to one vertex" >&2
    failures=$((failures + 1))
else
    echo "dv $(cat "$TMPDIR_CLI/k601.sol")" > "$TMPDIR_CLI/k601.stream"
    if ! "$CLI" "$CLIQUE" --no-cache --updates="$TMPDIR_CLI/k601.stream" \
           --verify --stats > /dev/null 2> "$TMPDIR_CLI/k601.err" ||
       ! grep -q '^verified: ' "$TMPDIR_CLI/k601.err" ||
       ! grep -qx 'dynamic.set.size 1' "$TMPDIR_CLI/k601.err" ||
       ! grep -qx 'dynamic.fallback.component 1' "$TMPDIR_CLI/k601.err"; then
        echo "FAIL: over-budget cone: dv of K_601's selected vertex:" >&2
        cat "$TMPDIR_CLI/k601.err" >&2
        failures=$((failures + 1))
    else
        echo "ok: over-budget cone takes the full re-solve"
    fi
fi

if [ "$failures" -ne 0 ]; then
    echo "$failures check(s) failed" >&2
    exit 1
fi
echo "all mis_cli flag checks passed"
