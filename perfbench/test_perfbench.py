#!/usr/bin/env python3
"""Metric-name validity: BENCHMARK.json against the limits of its format
and against the names the harness actually emits.

Run from the root of a checkout after building (perfbench/run.py
--selftest does both).
"""
import json
import os
import re
import subprocess
import unittest

HARNESS = os.path.join(".bench_build", "perfbench", "xp_perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
# Time budget of one benchmark comparison: 4 + 22 x workloads runs, plus
# set-up and two builds, must fit in this many seconds.
COMPARISON_SECONDS = 3420
# The harness starts no spec run that would end past --seconds; the rest
# is the build check and set-up (measured: 28-30 s per 30 s run).
PER_RUN_OVERHEAD_S = 2
BUILDS_S = 300


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


class FormatTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_benchmark()

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})

    def test_command_and_paths(self):
        command, paths = self.bench["command"], self.bench["paths"]
        self.assertTrue(1 <= len(command) <= 32)
        for arg in command:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"), arg)
        self.assertTrue(1 <= len(paths) <= 16)
        for path in paths:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        files = [a for a in command[1:] if "/" in a]
        for f in files:
            self.assertTrue(any(f.startswith(p + "/") for p in paths), f)

    def test_workloads(self):
        workloads = self.bench["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e, layer = self.bench["end_to_end"], self.bench["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layer) <= 128)
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        names = [m["name"] for m in e2e + layer]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.bench["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_comparison_time_budget(self):
        seconds = self.bench["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)
        runs = 4 + 22 * len(self.bench["workloads"])
        self.assertLess(runs * (seconds + PER_RUN_OVERHEAD_S) + BUILDS_S, COMPARISON_SECONDS)

    def test_file_size(self):
        self.assertLessEqual(os.path.getsize("BENCHMARK.json"), 64 * 1024)


@unittest.skipUnless(os.path.isfile(HARNESS), "harness not built")
class HarnessNamesTest(unittest.TestCase):
    """BENCHMARK.json lists exactly the metrics and workloads the harness has."""

    def test_names_match_harness(self):
        bench = load_benchmark()
        listed = json.loads(subprocess.run([HARNESS, "--list-metrics"], check=True,
                                           stdout=subprocess.PIPE, text=True).stdout)
        for kind in ("end_to_end", "per_layer"):
            ours = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
            theirs = [(m["name"], m["unit"], m["better"]) for m in listed[kind]]
            self.assertEqual(sorted(ours), sorted(theirs), kind)
        self.assertEqual([w["name"] for w in bench["workloads"]], listed["workloads"])


if __name__ == "__main__":
    unittest.main()
