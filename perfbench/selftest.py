"""The benchmark's own tests.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Each workload runs at its smallest size (``--tiny``), untraced and
traced, and must print every metric ``BENCHMARK.json`` names, with its
unit, with every operation verified.  The remaining tests flip one model
mask in an output of each workload and check that verification turns it
into a failed operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from repro.logic.bitmodels import BitModelSet  # noqa: E402
from repro.revision.base import RevisionResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def flipped(result: RevisionResult) -> RevisionResult:
    """``result`` with the lowest bit of its smallest model mask flipped
    (or, for an empty result, one model added)."""
    masks = sorted(result.bit_model_set.iter_masks())
    changed = set(masks[1:]) | {masks[0] ^ 1} if masks else {0}
    bits = BitModelSet(result.alphabet, changed)
    return RevisionResult(result.operator_name, result.alphabet, bits)


class TinyRuns(unittest.TestCase):
    """Every workload at its smallest size prints every named metric."""

    def run_bench(self, workload: str, trace: int) -> dict:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "2",
             "--trace", str(trace), "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(completed.returncode, 0, completed.stderr[-2000:])
        lines = completed.stdout.strip().splitlines()
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(record["verified"], result["attempted"])
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(
            {name: value["unit"] for name, value in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in wanted})
        for name, value in result["metrics"].items():
            self.assertIsInstance(value["value"], (int, float), name)
        return result

    def test_untraced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.run_bench(workload, 0)
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)

    def test_traced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.run_bench(workload, 1)


class FlippedMask(unittest.TestCase):
    """A wrong model set in any output becomes a failed operation."""

    def setUp(self):
        self.work = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_work-")
        self.saved_store = os.environ.pop("REPRO_STORE", None)

    def tearDown(self):
        import shutil

        shutil.rmtree(self.work, ignore_errors=True)
        os.environ.pop("REPRO_STORE", None)
        if self.saved_store is not None:
            os.environ["REPRO_STORE"] = self.saved_store

    def assert_caught(self, workload):
        outcome = workload.outcome
        self.assertGreaterEqual(len(outcome.revisions) - outcome.revisions_ok, 1)
        self.assertTrue(any(key.startswith("mismatch")
                            for key in outcome.failures), outcome.failures)

    def test_check_oneshot_pair(self):
        t, p = frozenset({1, 2, 4}), frozenset({3, 5, 6})
        results = {op: frozenset({3}) for op in workloads.OPERATORS}
        self.assertEqual(
            workloads.check_oneshot_pair(t, p, t, p, results), {})
        self.assertEqual(
            set(workloads.check_oneshot_pair(t, p, t ^ {1}, p, results)),
            set(workloads.OPERATORS))
        broken = dict(results, satoh=frozenset({3, 6}))
        self.assertEqual(
            set(workloads.check_oneshot_pair(t, p, t, p, broken)),
            {"satoh", "winslett", "weber"})
        outside = dict(results, winslett=frozenset({3, 7}))
        self.assertIn("winslett",
                      workloads.check_oneshot_pair(t, p, t, p, outside))

    def test_oneshot(self):
        workload = workloads.OneShot(seed=5, tiny=True)
        workload.generate(1.0, 1)
        workload.setup(self.work)
        workload.run()
        results = workload.records[0]["results"]
        results["forbus"] = flipped(results["forbus"])
        workload.verify()
        self.assert_caught(workload)

    def test_chain(self):
        workload = workloads.Chain(seed=5, tiny=True)
        workload.generate(1.0, 6)
        workload.fill(os.path.join(self.work, "store"))
        workload.setup(self.work)
        workload.run()
        record = list(workload.records[3])
        record[4] = flipped(record[4])
        workload.records[3] = tuple(record)
        workload.verify()
        self.assert_caught(workload)

    def test_service(self):
        workload = workloads.Service(seed=5, tiny=True)
        workload.generate(1.0, 12)
        workload.setup(self.work)
        try:
            workload.run()
        finally:
            workload.teardown()
        served = [record for record in workload.records
                  if record["request"].kind == "revise"
                  and record["response"].ok]
        self.assertTrue(served)
        response = served[0]["response"]
        response.masks = sorted(set(response.masks) ^ {response.masks[0] ^ 1})
        failed_before = sum(1 for record in workload.records
                            if record["request"].kind == "revise"
                            and not record["response"].ok)
        workload.verify()
        outcome = workload.outcome
        self.assertEqual(len(outcome.revisions) - outcome.revisions_ok,
                         failed_before + 1)
        self.assertIn("mismatch: masks differ from the inline run",
                      outcome.failures)


if __name__ == "__main__":
    unittest.main()
