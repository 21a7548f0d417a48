"""The benchmark's own tests.

    python3 -m unittest smrbench/test_smrbench.py

Builds the benchmark (as run.py does) and checks that input generation is
deterministic per seed, that the policy and scheduler decorators forward
every virtual, and that the metric names and units the command prints match
BENCHMARK.json.  The name check runs one short pass per workload and mode,
about a minute in all.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smrbench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([str(BINARY), *args], capture_output=True, text=True)


BINARY = run.build()


class InputsTest(unittest.TestCase):
    def digest(self, workload: str, seed: int) -> str:
        result = smrbench("--inputs", "--workload", workload, "--seed", str(seed))
        self.assertEqual(result.returncode, 0, result.stderr)
        return result.stdout.strip()

    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 5), self.digest(workload, 5))

    def test_other_seed_other_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, 5), self.digest(workload, 6))

    def test_unknown_workload_is_rejected(self):
        result = smrbench("--inputs", "--workload", "nope", "--seed", "1")
        self.assertNotEqual(result.returncode, 0)


class DecoratorTest(unittest.TestCase):
    def test_decorated_runs_equal_plain_runs(self):
        result = smrbench("--selftest")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("selftest ok", result.stdout)


class NamesTest(unittest.TestCase):
    def metrics(self, workload: str, trace: int) -> dict:
        result = smrbench("--workload", workload, "--seed", "1", "--seconds", "0.01",
                          "--trace", str(trace))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"])
        return last["metrics"]

    def test_printed_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    printed = self.metrics(workload, trace)
                    self.assertEqual({n: m["unit"] for n, m in printed.items()}, expected)


if __name__ == "__main__":
    unittest.main()
