#!/usr/bin/env python3
"""Self-test of the repository benchmark (perfbench/run.py).

Run from the repository root:

    python3 perfbench/tests/test_perfbench.py

Short runs of every workload must print every metric BENCHMARK.json names,
with its unit, and no failed op, on two seeds; a run against a corrupted
reference answer must fail; and the command must fail without a result in
a directory holding only BENCHMARK.json and the benchmark's own files.
Takes about a minute once the benchmark is built.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# serve-edit runs too, and feeds the traced runs' edit layers, but is not
# in BENCHMARK.json (see perfbench/README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve-edit"]
SECONDS = "2"


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return json.loads(lines[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, res, specs):
        self.assertEqual(set(res),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)  # fail_ratio 0
        self.assertEqual(set(res["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (7, 8):
                with self.subTest(workload=workload, seed=seed):
                    p = run(workload, seed, 0)
                    self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                    res = result(p)
                    self.check_metrics(res, SPEC["end_to_end"])
                    self.assertEqual(res["metrics"]["ok_ratio"]["value"], 1)
                    self.assertIn("# stamp:", p.stdout)

    def test_traced_run_prints_every_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p = run(workload, 7, 1)
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                self.check_metrics(result(p), SPEC["per_layer"])

    def test_corrupted_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                p = run(workload, 7, 0, "--corrupt-reference")
                self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
                res = result(p)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            WORKLOADS[0], "--seed", "1", "--seconds", SECONDS,
                            "--trace", "0"], cwd=bare, env=env,
                           capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
