#!/usr/bin/env python3
"""Per-span self-time tables from rpmis Chrome traces, and diffs of two.

    python3 perfbench/obs_report.py TRACE.json [--json OUT.json]
    python3 perfbench/obs_report.py --diff BEFORE AFTER

TRACE.json is a trace written by obs::TraceSink (for example by
`perfbench/run.py --trace 1`, which keeps the last one per workload under
`.bench_build/traces/`). BEFORE and AFTER are traces or tables saved with
--json.

Spans are keyed by their path on their thread (`parent/child/...`). A span's
self time is its duration minus the time its children cover. Two remainders
are reported for the main thread:

  (uncovered)     wall time inside no span at all;
  unattributed    time inside one of the benchmark's `bench.*` call spans
                  (checks excluded) that no phase span explains: the call
                  span's own self time plus the self time of a library span
                  directly under it that has sub-spans (the solver's
                  whole-run span, whose phases are its children).
                  `unattributed_share` divides it by the total time of the
                  call spans.

Standard library only.
"""
import argparse
import json
import sys

BENCH_PREFIX = "bench."
CHECK_SPAN = "bench.check"


def load_trace(path):
    with open(path) as f:
        return json.load(f)


def self_time_table(trace):
    """Aggregates a Chrome trace document into a self-time table (a dict)."""
    stacks = {}
    spans = {}
    main_tid = None
    first_ts = last_ts = None
    covered_us = 0
    call_us = 0
    unattributed_us = {}
    for event in trace.get("traceEvents", []):
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        tid, ts = event["tid"], event["ts"]
        if main_tid is None:
            main_tid = tid
        if tid == main_tid:
            first_ts = ts if first_ts is None else first_ts
            last_ts = ts
        stack = stacks.setdefault(tid, [])
        if phase == "B":
            parent = stack[-1][0] if stack else ""
            path = parent + "/" + event["name"] if parent else event["name"]
            if stack:
                stack[-1][4] = True
            stack.append([path, event["name"], ts, 0, False])
            continue
        if not stack:
            continue  # an end without a begin: the sink dropped events
        path, name, start, child_us, has_children = stack.pop()
        duration = ts - start
        own = duration - child_us
        row = spans.setdefault(path, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration / 1e6
        row["self_s"] += own / 1e6
        if stack:
            stack[-1][3] += duration
        elif tid == main_tid:
            covered_us += duration
        if tid != main_tid:
            continue
        call = stack[0][1] if stack else name
        if not call.startswith(BENCH_PREFIX) or call == CHECK_SPAN:
            continue
        if not stack:
            call_us += duration
            unattributed_us[call] = unattributed_us.get(call, 0) + own
        elif len(stack) == 1 and has_children:
            unattributed_us[call] = unattributed_us.get(call, 0) + own
    wall_us = (last_ts - first_ts) if first_ts is not None else 0
    total_unattributed_us = sum(unattributed_us.values())
    return {
        "spans": spans,
        "wall_s": wall_us / 1e6,
        "uncovered_s": max(0, wall_us - covered_us) / 1e6,
        "call_s": call_us / 1e6,
        "unattributed_s": total_unattributed_us / 1e6,
        "unattributed_share": total_unattributed_us / call_us if call_us else 0.0,
        "unattributed_by_call_s": {c: us / 1e6 for c, us in unattributed_us.items()},
        "dropped_events": trace.get("droppedEvents", 0),
    }


def as_table(path):
    """Loads a trace or a saved table."""
    data = load_trace(path)
    return data if "spans" in data else self_time_table(data)


def self_seconds(table, call, leaf):
    """Self time of every span named `leaf` under the call span `call`."""
    total = 0.0
    for path, row in table["spans"].items():
        parts = path.split("/")
        if parts[0] == call and parts[-1] == leaf:
            total += row["self_s"]
    return total


def format_table(table):
    wall = table["wall_s"] or 1.0
    rows = sorted(table["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    width = max([len(p) for p, _ in rows] + [len("(uncovered)")])
    lines = ["%-*s %8s %10s %10s %7s" % (width, "span", "count", "total_s", "self_s", "self%")]
    for path, row in rows:
        lines.append("%-*s %8d %10.4f %10.4f %6.1f%%" % (
            width, path, row["count"], row["total_s"], row["self_s"],
            100.0 * row["self_s"] / wall))
    lines.append("%-*s %8s %10s %10.4f %6.1f%%" % (
        width, "(uncovered)", "", "", table["uncovered_s"],
        100.0 * table["uncovered_s"] / wall))
    lines.append("wall %.4f s; library calls %.4f s, of which unattributed %.4f s (%.1f%%)"
                 % (table["wall_s"], table["call_s"], table["unattributed_s"],
                    100.0 * table["unattributed_share"]))
    if table.get("dropped_events"):
        lines.append("WARNING: the trace dropped %d events" % table["dropped_events"])
    return "\n".join(lines)


def format_diff(before, after):
    paths = sorted(set(before["spans"]) | set(after["spans"]),
                   key=lambda p: -max(before["spans"].get(p, {}).get("self_s", 0.0),
                                      after["spans"].get(p, {}).get("self_s", 0.0)))
    width = max([len(p) for p in paths] + [len("(uncovered)")])
    lines = ["%-*s %10s %10s %10s %8s" % (width, "span", "before_s", "after_s", "delta_s", "ratio")]

    def line(name, b, a):
        ratio = "%8.3f" % (a / b) if b > 0 else "%8s" % "-"
        lines.append("%-*s %10.4f %10.4f %+10.4f %s" % (width, name, b, a, a - b, ratio))

    for path in paths:
        line(path, before["spans"].get(path, {}).get("self_s", 0.0),
             after["spans"].get(path, {}).get("self_s", 0.0))
    line("(uncovered)", before["uncovered_s"], after["uncovered_s"])
    line("(unattributed)", before["unattributed_s"], after["unattributed_s"])
    line("(wall)", before["wall_s"], after["wall_s"])
    return "\n".join(lines)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", help="a trace, or two with --diff")
    parser.add_argument("--diff", action="store_true", help="diff BEFORE and AFTER")
    parser.add_argument("--json", help="also save the table to this file")
    args = parser.parse_args(argv)
    if args.diff:
        if len(args.inputs) != 2:
            parser.error("--diff takes exactly two inputs")
        print(format_diff(as_table(args.inputs[0]), as_table(args.inputs[1])))
        return 0
    if len(args.inputs) != 1:
        parser.error("give one trace, or two with --diff")
    table = as_table(args.inputs[0])
    print(format_table(table))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
