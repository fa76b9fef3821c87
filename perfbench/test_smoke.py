#!/usr/bin/env python3
"""Tiny-scale smoke test of the benchmark: every workload, untraced and
traced, prints a correct result with every metric BENCHMARK.json names, in
its unit; BENCHMARK.json keeps the contract's limits; and a directory that
holds only the benchmark fails without printing a result.

    python3 perfbench/test_smoke.py
"""
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload, trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SpecLimits(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"})
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        for path in s["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertTrue(len(s["command"]) <= 32)
        self.assertTrue(all(len(part) <= 200 for part in s["command"]))
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)

        names = []
        for workload in s["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
            names.append(workload["name"])
        for metric in s["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in s["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


class TinyWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        result = run_workload(workload, trace)
        self.assertEqual(result.returncode, 0, result.stderr[-3000:])
        line = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"], result.stderr[-3000:])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        wanted = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(line["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = line["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in spec()["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in spec()["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            result = run_workload("paper_cold", 0, cwd=bare,
                                  runner=bare / "perfbench" / "run.py")
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"metrics"', result.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
