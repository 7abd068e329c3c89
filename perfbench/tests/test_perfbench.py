"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Two-second runs of every workload, at the benchmark's own corpus and engine
shape, must emit exactly the metrics BENCHMARK.json names, with their units,
and pass every correctness gate. The exact counters must repeat bit for bit
across two runs of one seed. The first test run builds perfbench, which takes
minutes; the ten runs after it take a few more.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

EXACT_COUNTERS = ("core.jobs_per_query", "core.job_imbalance",
                  "mpi.msgs_per_query", "mpi.bytes_per_query")


def run(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1200)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_workload_emits_every_metric(self):
        for workload in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, result = run(workload["name"], trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_exact_counters_repeat(self):
        _, first = run("sift-batch", 1)
        _, second = run("sift-batch", 1)
        for name in EXACT_COUNTERS:
            with self.subTest(counter=name):
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"])
        _, first = run("sift-batch", 0)
        _, second = run("sift-batch", 0)
        self.assertEqual(first["metrics"]["recall_at_10"]["value"],
                         second["metrics"]["recall_at_10"]["value"])


if __name__ == "__main__":
    unittest.main()
