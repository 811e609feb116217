#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks and of its metric contract.

    python3 perfbench/test_perfbench.py

Each test runs perfbench/run.py for about a second per invocation:
  * a value dropped from the stack or queue ledger fails conservation;
  * a suppressed owed flag fails the event_poll sound-window oracle;
  * every metric BENCHMARK.json lists appears, with its unit, in a short
    run of every workload (untraced: end_to_end; traced: per_layer), and
    the traced event_poll run reports Theorem 3's step counts exactly;
  * a directory holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, seconds=1, inject=None, root=ROOT, env=None):
    """Runs the benchmark; returns (exit code, result line or None, stdout)."""
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        command += ["--inject", inject]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=600, env=env)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stdout


def failures(stdout):
    for line in stdout.splitlines():
        if line.startswith('{"record"'):
            return json.loads(line)["record"]["failures"]
    return []


class OutputChecks(unittest.TestCase):
    def test_dropped_value_fails_conservation(self):
        for workload in ("stack_churn", "queue_sharded"):
            with self.subTest(workload=workload):
                code, result, out = run(workload, inject="drop_value")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertTrue(any("conservation" in f for f in failures(out)))

    def test_suppressed_flag_fails_oracle(self):
        code, result, out = run("event_poll", inject="suppress_flag")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertTrue(any("owed flags missed" in f for f in failures(out)))


class MetricContract(unittest.TestCase):
    def check(self, workload, trace, listed):
        code, result, _ = run(workload, trace=trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in listed}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result["metrics"]

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 0, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check(w["name"], 1, SPEC["per_layer"])
                if w["name"] == "event_poll":
                    self.assertEqual(metrics["core.dwrite_steps"]["value"], 2)
                    self.assertEqual(metrics["core.dread_steps"]["value"], 4)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_library(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            code, result, _ = run("stack_churn", root=bare, env=env)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
