#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 pwbench/selftest.py

Builds the runner as run.py does, then checks on every workload, with a
short op sequence:
  - two runs of one seed issue identical op sequences and produce identical
    answers and identical per-layer counters;
  - a different seed changes the op sequence;
  - the traced run's staged answers equal the untraced answers: the traced
    run compares each staged answer with the untraced one, and its answer
    digest equals the untraced run's.
"""

import json
import pathlib
import re
import subprocess
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402

SECONDS = "0.1"  # a few dozen blocks per workload
WORKLOADS = ("decide", "lineage", "serve")


class Determinism(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_once(self, workload, seed, trace):
        out = subprocess.run(
            [str(self.binary), "--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", str(trace)],
            capture_output=True, text=True, check=True).stdout
        digests = dict(re.findall(r"(\w+_digest)=([0-9a-f]+)", out))
        return digests, json.loads(out.strip().splitlines()[-1])

    def test_same_seed_repeats(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, a = self.run_once(workload, 11, 1)
                second, b = self.run_once(workload, 11, 1)
                self.assertEqual(first["ops_digest"], second["ops_digest"])
                self.assertEqual(first["answers_digest"],
                                 second["answers_digest"])
                self.assertEqual(first["layers_digest"],
                                 second["layers_digest"])
                self.assertEqual(a["failed"], 0)
                self.assertEqual(b["failed"], 0)

    def test_other_seed_changes_sequence(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                one, _ = self.run_once(workload, 11, 0)
                two, _ = self.run_once(workload, 12, 0)
                self.assertNotEqual(one["ops_digest"], two["ops_digest"])

    def test_staged_answers_equal_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                traced, result = self.run_once(workload, 13, 1)
                plain, _ = self.run_once(workload, 13, 0)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(traced["ops_digest"], plain["ops_digest"])
                self.assertEqual(traced["answers_digest"],
                                 plain["answers_digest"])


if __name__ == "__main__":
    unittest.main()
