#!/usr/bin/env python3
"""Self-test of tools/check_bench_regression.py on synthetic bench JSON.

Feeds the gate google-benchmark JSON files built in a temporary directory
and asserts that every check still fails when it should: a pair over its
ratio (the 2.0x default and the DDBackend pair's 1.2x), the DD and CDCL
speedup floors, the reader-scaling gate, and each "nothing found" vacuity
error. Run directly or through ctest:

    python3 tools/check_bench_regression_test.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402

# The CI invocation of the gate, minus the JSON file arguments.
CI_FLAGS = ["--max-ratio", "2.0", "--min-scale", "2.0", "--scale-threads",
            "4", "--dd-speedup-floor", "5.0", "--cdcl-speedup-floor", "5.0"]


def bench(name, real_time, items_per_second=None):
    entry = {"name": name, "run_type": "iteration", "real_time": real_time,
             "time_unit": "us"}
    if items_per_second is not None:
        entry["items_per_second"] = items_per_second
    return entry


def passing_benchmarks():
    """One healthy run of every gated family: each pair well inside its
    limit, both floors cleared, snapshot reads scaling 3x at 4 threads."""
    return {
        "BM_ConditionedTC_UpdateStream_Incremental/32": bench(
            "BM_ConditionedTC_UpdateStream_Incremental/32", 100.0),
        "BM_ConditionedTC_UpdateStream_Recompute/32": bench(
            "BM_ConditionedTC_UpdateStream_Recompute/32", 1000.0),
        "BM_ServeThroughput_Snapshot/1/real_time": bench(
            "BM_ServeThroughput_Snapshot/1/real_time", 1000.0, 1000.0),
        "BM_ServeThroughput_Snapshot/4/real_time": bench(
            "BM_ServeThroughput_Snapshot/4/real_time", 1300.0, 3000.0),
        "BM_ServeThroughput_Direct/1/real_time": bench(
            "BM_ServeThroughput_Direct/1/real_time", 900.0, 1100.0),
        "BM_ConditionedTC_NullChainDiversity_DDBackend/6": bench(
            "BM_ConditionedTC_NullChainDiversity_DDBackend/6", 110.0),
        "BM_ConditionedTC_NullChainDiversity_Antichain/6": bench(
            "BM_ConditionedTC_NullChainDiversity_Antichain/6", 100.0),
        "BM_ConditionedTC_NullChainDiversity_DDBackend/12": bench(
            "BM_ConditionedTC_NullChainDiversity_DDBackend/12", 1000.0),
        "BM_ConditionedTC_NullChainDiversity_Antichain/12": bench(
            "BM_ConditionedTC_NullChainDiversity_Antichain/12", 8000.0),
        "BM_Chain_Cdcl/4096": bench("BM_Chain_Cdcl/4096", 100.0),
        "BM_Chain_Dpll/4096": bench("BM_Chain_Dpll/4096", 1300.0),
    }


class GateTest(unittest.TestCase):

    def run_gate(self, benchmarks, flags=CI_FLAGS):
        """Runs the gate's main() over `benchmarks` written to one JSON
        file; returns (exit code, stdout, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bench.json")
            with open(path, "w") as f:
                json.dump({"benchmarks": list(benchmarks.values())}, f)
            out, err = io.StringIO(), io.StringIO()
            argv = ["check_bench_regression.py"] + flags + [path]
            with mock.patch.object(sys, "argv", argv), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = gate.main()
        return code, out.getvalue(), err.getvalue()

    def assert_fails(self, benchmarks, needle, flags=CI_FLAGS):
        code, out, err = self.run_gate(benchmarks, flags)
        self.assertEqual(code, 1, out + err)
        self.assertIn(needle, out + err)

    def test_healthy_run_passes(self):
        code, out, err = self.run_gate(passing_benchmarks())
        self.assertEqual(code, 0, out + err)
        # Every surviving pair is checked: Incremental, Snapshot/1, the two
        # DDBackend sizes, and the CDCL chain.
        self.assertIn("all 5 fast-path pairs", out)

    def test_pair_over_default_ratio_fails(self):
        b = passing_benchmarks()
        b["BM_ConditionedTC_UpdateStream_Incremental/32"]["real_time"] = 2500.0
        self.assert_fails(b, "[FAIL] BM_ConditionedTC_UpdateStream_"
                             "Incremental/32")

    def test_snapshot_pair_over_ratio_fails(self):
        b = passing_benchmarks()
        b["BM_ServeThroughput_Direct/1/real_time"]["real_time"] = 400.0
        self.assert_fails(b, "[FAIL] BM_ServeThroughput_Snapshot/1/real_time")

    def test_dd_pair_has_tightened_limit(self):
        # 1.5x passes the 2.0x default but not the DDBackend pair's 1.2x.
        b = passing_benchmarks()
        b["BM_ConditionedTC_NullChainDiversity_DDBackend/6"]["real_time"] = 150.0
        self.assert_fails(b, "[FAIL] BM_ConditionedTC_NullChainDiversity_"
                             "DDBackend/6: 150us vs")

    def test_dd_speedup_floor_fails(self):
        b = passing_benchmarks()
        b["BM_ConditionedTC_NullChainDiversity_Antichain/12"]["real_time"] = \
            1100.0
        self.assert_fails(b, "[FAIL] BM_ConditionedTC_NullChainDiversity_"
                             "DDBackend/12: 1000us vs antichain")

    def test_cdcl_speedup_floor_fails(self):
        b = passing_benchmarks()
        b["BM_Chain_Dpll/4096"]["real_time"] = 150.0
        self.assert_fails(b, "[FAIL] BM_Chain_Cdcl/4096: 100us vs seed DPLL")

    def test_scaling_gate_fails(self):
        b = passing_benchmarks()
        b["BM_ServeThroughput_Snapshot/4/real_time"]["items_per_second"] = \
            1500.0
        self.assert_fails(b, "[FAIL] BM_ServeThroughput_Snapshot:")

    def test_only_listed_pairs_are_gated(self):
        # Smoke benches outside PAIRS never pair, however far apart.
        b = passing_benchmarks()
        b["BM_EquiJoin_Ground_Interned_HashJoin/512"] = bench(
            "BM_EquiJoin_Ground_Interned_HashJoin/512", 1e6)
        b["BM_EquiJoin_Ground_Interned_NestedLoop/512"] = bench(
            "BM_EquiJoin_Ground_Interned_NestedLoop/512", 1.0)
        code, out, err = self.run_gate(b)
        self.assertEqual(code, 0, out + err)
        self.assertNotIn("HashJoin", out)

    def test_no_pairs_is_vacuous(self):
        b = {"BM_Other/1": bench("BM_Other/1", 1.0)}
        self.assert_fails(b, "no fast/seed benchmark pairs found")

    def test_missing_scaling_family_is_vacuous(self):
        b = passing_benchmarks()
        del b["BM_ServeThroughput_Snapshot/4/real_time"]
        self.assert_fails(b, "the scaling gate is vacuous")

    def test_missing_dd_family_is_vacuous(self):
        b = passing_benchmarks()
        for n in (6, 12):
            del b[f"BM_ConditionedTC_NullChainDiversity_Antichain/{n}"]
        self.assert_fails(b, "the diversity gate is vacuous")

    def test_missing_cdcl_family_is_vacuous(self):
        b = passing_benchmarks()
        del b["BM_Chain_Dpll/4096"]
        self.assert_fails(b, "the propagation gate is vacuous")


if __name__ == "__main__":
    unittest.main()
