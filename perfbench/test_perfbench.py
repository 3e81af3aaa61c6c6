#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark if needed (see run.py) and take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, seconds=1):
    """Runs one short benchmark run; returns (returncode, stdout lines)."""
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=ROOT, timeout=600)
    return res.returncode, res.stdout.strip().splitlines()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(WORKLOADS), sorted(run.WORKLOADS))

    def test_every_workload_prints_the_declared_metrics_without_failures(self):
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(workload, trace)
                    self.assertEqual(code, 0)
                    result = json.loads(lines[-1])
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)

    def test_wrong_serving_reply_counts_as_failed(self):
        code, lines = bench("serve_tenants", 0, "--inject-wrong-reply", "5")
        self.assertEqual(code, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_fails_without_program_sources(self):
        bare = run.build_dir().parent / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180, env=env)
            self.assertNotEqual(res.returncode, 0)
            self.assertNotIn('"metrics"', res.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
