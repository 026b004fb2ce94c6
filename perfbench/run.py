#!/usr/bin/env python3
"""The rpmis end-to-end benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload plr-peel --seed 1 --seconds 20 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (the rpmis library plus the driver, Release) under
`.bench_build/perfbench`; later runs rebuild incrementally. The driver sets
RPMIS_THREADS to the number of CPUs the process may run on.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
plus a per-span self-time table of the traced pass (kept, one per workload,
in `.bench_build/traces/`; compare two with obs_report.py --diff). The last
stdout line is always
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
--quick shrinks every workload so a run takes seconds; README.md lists the
workloads and metrics.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import obs_report  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("plr-reducible", "plr-peel", "dyn-stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Self times taken from the traced pass: (metric, benchmark call span,
# library span under it).
SELF_METRICS = (
    ("self.load_text.ingest_s", "bench.load_text", "ingest.load_graph"),
    ("self.load_rpmi.ingest_s", "bench.load_rpmi", "ingest.load_graph"),
    ("self.bdone.core_s", "bench.bdone", "bdone.core"),
    ("self.bdone.compact_s", "bench.bdone", "bdone.compact"),
    ("self.lineartime.core_s", "bench.lineartime", "lineartime.core"),
    ("self.lineartime.compact_s", "bench.lineartime", "lineartime.compact"),
    ("self.nearlinear.dominance_s", "bench.nearlinear", "nearlinear.prepass.dominance"),
    ("self.nearlinear.lp_s", "bench.nearlinear", "nearlinear.prepass.lp"),
    ("self.nearlinear.kernel_build_s", "bench.nearlinear", "nearlinear.kernel_build"),
    ("self.nearlinear.core_s", "bench.nearlinear", "nearlinear.core"),
    ("self.nearlinear.compact_s", "bench.nearlinear", "nearlinear.compact"),
    ("self.nearlinear.finalize_s", "bench.nearlinear", "nearlinear.finalize"),
    ("self.dynamic.full_resolve_s", "bench.dyn.apply", "dynamic.full_resolve"),
)
# Time inside each benchmark call span that no phase span explains.
UNATTRIBUTED_CALLS = ("load_text", "load_rpmi", "bdone", "lineartime", "nearlinear",
                      "dyn.init", "dyn.apply")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def cpus():
    return len(os.sched_getaffinity(0))


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (code, stdout). On
    timeout the whole group (compilers under make, say) is killed and reaped
    before TimeoutExpired propagates."""
    with subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE,
                          text=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(cpus())])
    for cmd in steps:
        try:
            code, out = run(cmd, BUILD_TIMEOUT_S, stderr=subprocess.STDOUT)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step %s failed: %s" % (cmd[:2], e))
            return None
        if code != 0:
            sys.stderr.write(out[-4000:])
            log("build step %s failed with code %d" % (cmd[:2], code))
            return None
    return os.path.join(BUILD_DIR, "rpmis_perfbench")


def trace_metrics(table):
    metrics = {"obs.unattributed_share": {"value": table["unattributed_share"],
                                          "unit": "ratio"}}
    for name, call, leaf in SELF_METRICS:
        metrics[name] = {"value": obs_report.self_seconds(table, call, leaf), "unit": "s"}
    by_call = table["unattributed_by_call_s"]
    for call in UNATTRIBUTED_CALLS:
        metrics["unattributed." + call + "_s"] = {"value": by_call.get("bench." + call, 0.0),
                                                  "unit": "s"}
    return metrics


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny instances: every metric and check in seconds")
    parser.add_argument("--inject-wrong-selector", action="store_true",
                        help="corrupt one solver output (tests the correctness gate)")
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        return 1

    work = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    trace_file = os.path.join(work, "trace.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--trace-file", trace_file]
    if args.quick:
        cmd.append("--quick")
    if args.inject_wrong_selector:
        cmd.append("--inject-wrong-selector")
    try:
        code, out = run(cmd, RUN_TIMEOUT_S)
        if code != 0:
            log("driver exited with code %d" % code)
            return 1
        lines = out.strip().splitlines()
        if not lines:
            log("driver printed no result")
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        metrics = result["metrics"]
        if args.trace:
            table = obs_report.self_time_table(obs_report.load_trace(trace_file))
            print(obs_report.format_table(table))
            os.makedirs(TRACE_DIR, exist_ok=True)
            shutil.copyfile(trace_file, os.path.join(TRACE_DIR, args.workload + ".json"))
            metrics.update(trace_metrics(table))
    except subprocess.TimeoutExpired:
        log("driver did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(1, int(result["attempted"]))
    failed = min(attempted, int(result["failed"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
