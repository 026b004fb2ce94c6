#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/test_perfbench.py

They run every workload in --quick mode (tiny instances, a few seconds
each), check that each mode emits exactly the metrics BENCHMARK.json
declares, that an injected wrong selector is counted as a failure, and that
obs_report.py computes self times and remainders correctly.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import obs_report  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, proc.returncode
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_contract(self):
        spec = load_benchmark()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertRegex(metric["unit"], UNIT)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            self.assertRegex(metric["unit"], UNIT)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class QuickRunTest(unittest.TestCase):
    def test_every_metric_in_every_workload(self):
        spec = load_benchmark()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    envelope = json.loads(lines[0])["envelope"]
                    self.assertEqual(envelope["build_type"], "Release")
                    self.assertEqual(envelope["seed"], 3)

    def test_injected_wrong_selector_counts_as_failure(self):
        _, result = run("plr-peel", 0, "--inject-wrong-selector")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


def span(name, tid, begin, end):
    return [{"ph": "B", "name": name, "tid": tid, "ts": begin},
            {"ph": "E", "tid": tid, "ts": end}]


class ObsReportTest(unittest.TestCase):
    # main thread: bench.nearlinear [0,100] > nearlinear [5,95] > core [10,60];
    # a gap [100,110]; bench.check [110,120]; a worker-thread span.
    TRACE = {"traceEvents": (
        [{"ph": "B", "name": "bench.nearlinear", "tid": 1, "ts": 0},
         {"ph": "B", "name": "nearlinear", "tid": 1, "ts": 5},
         {"ph": "B", "name": "nearlinear.core", "tid": 1, "ts": 10},
         {"ph": "E", "tid": 1, "ts": 60},
         {"ph": "E", "tid": 1, "ts": 95},
         {"ph": "E", "tid": 1, "ts": 100}]
        + span("bench.check", 1, 110, 120) + span("component.solve", 2, 20, 50))}

    def test_self_times_and_remainders(self):
        table = obs_report.self_time_table(self.TRACE)
        spans = table["spans"]
        self.assertAlmostEqual(spans["bench.nearlinear"]["self_s"], 10e-6)
        self.assertAlmostEqual(spans["bench.nearlinear/nearlinear"]["self_s"], 40e-6)
        self.assertAlmostEqual(spans["bench.nearlinear/nearlinear/nearlinear.core"]["self_s"],
                               50e-6)
        self.assertAlmostEqual(spans["component.solve"]["total_s"], 30e-6)
        self.assertAlmostEqual(table["wall_s"], 120e-6)
        self.assertAlmostEqual(table["uncovered_s"], 10e-6)
        self.assertAlmostEqual(table["call_s"], 100e-6)
        # 10 us in the call span itself + 40 us in the solver's wrapper span.
        self.assertAlmostEqual(table["unattributed_share"], 0.5)
        self.assertAlmostEqual(
            obs_report.self_seconds(table, "bench.nearlinear", "nearlinear.core"), 50e-6)

    def test_diff_lists_every_span(self):
        table = obs_report.self_time_table(self.TRACE)
        text = obs_report.format_diff(table, table)
        for path in table["spans"]:
            self.assertIn(path, text)
        self.assertIn("(unattributed)", text)


if __name__ == "__main__":
    unittest.main()
