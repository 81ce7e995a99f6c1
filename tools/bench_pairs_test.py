#!/usr/bin/env python3
"""Self-test of tools/bench_pairs.py on canned benchmark runs.

Checks the verdict rules on synthetic pairs (gain, regression, unresolved,
no worse, ties, higher-is-better metrics), the parent/change alternation,
the run length and workload names taken from BENCHMARK.json, the written
report, each side's HEAD, clean/dirty tree and library size read from its
checkout, the per-family `decide` medians, each side's per-layer metrics
of the --traced-seed run, and the digest, failed-op and same-clean-commit
flags. Runs nothing: the benchmark runner is replaced by canned
pwbench/run.py output and git by canned answers. Run directly or through
ctest:

    python3 tools/bench_pairs_test.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_pairs  # noqa: E402

PARENT_SHA = "1" * 40
CHANGE_SHA = "2" * 40
CLEAN_TREES = {"parent-dir": (PARENT_SHA, ""), "change-dir": (CHANGE_SHA, "")}


def run_output(metrics, git, answers="00c0ffee00c0ffee", failed=0,
               notes=()):
    """What pwbench/run.py prints on stdout for one run; `notes` are the
    workload's `# ` note lines."""
    result = {"correct": failed == 0, "attempted": 1200, "failed": failed,
              "metrics": {name: {"value": value, "unit": "ms"}
                          for name, value in metrics.items()}}
    return "\n".join([
        f'# machine: cpu="Test CPU" nproc=4 compiler="gcc 12.2.0" '
        f"build=Release git={git}",
        "# workload=serve seed=1 blocks=300 ops=1200 trace=0",
        f"# ops_digest=0123456789abcdef answers_digest={answers}",
        "# k1_p50_ms    POSS/CERT verdict on a snapshot  0.1 ms",
        *(f"# {note}" for note in notes),
        json.dumps(result),
    ]) + "\n"


class CompareTest(unittest.TestCase):

    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_over_the_iqr(self):
        change = [0.5] * 10
        s = bench_pairs.compare(self.PARENT, change, "lower", 0.25)
        self.assertEqual((s["wins"], s["verdict"]), (10, "gain"))
        # Two lost pairs leave 8 of 10: no gain, though the median moved.
        change = [0.5] * 8 + [1.5, 1.5]
        s = bench_pairs.compare(self.PARENT, change, "lower", 0.25)
        self.assertEqual((s["wins"], s["verdict"]), (8, "no worse"))

    def test_gain_needs_the_median_gap_beyond_the_parent_iqr(self):
        # Wins every pair, but by less than the parent's own spread.
        change = [p - 0.005 for p in self.PARENT]
        s = bench_pairs.compare(self.PARENT, change, "lower", 0.25)
        self.assertEqual((s["wins"], s["verdict"]), (10, "no worse"))

    def test_ties_count_for_neither_side(self):
        s = bench_pairs.compare(self.PARENT, list(self.PARENT), "lower", 0.25)
        self.assertEqual((s["wins"], s["verdict"]), (0, "no worse"))

    def test_regression_is_a_median_worse_by_more_than_the_bound(self):
        change = [p * 1.3 for p in self.PARENT]
        s = bench_pairs.compare(self.PARENT, change, "lower", 0.25)
        self.assertEqual(s["verdict"], "regression")
        change = [p * 1.2 for p in self.PARENT]
        s = bench_pairs.compare(self.PARENT, change, "lower", 0.25)
        self.assertEqual(s["verdict"], "no worse")

    def test_higher_is_better_metrics_flip_the_direction(self):
        change = [p * 2 for p in self.PARENT]
        s = bench_pairs.compare(self.PARENT, change, "higher", 0.25)
        self.assertEqual((s["wins"], s["verdict"]), (10, "gain"))
        change = [p * 0.7 for p in self.PARENT]
        s = bench_pairs.compare(self.PARENT, change, "higher", 0.25)
        self.assertEqual(s["verdict"], "regression")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 0.5, 1.5, 1.0, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0]
        change = [1.05, 0.55, 1.45, 1.1, 0.6, 1.5, 0.95, 0.75, 1.3, 1.0]
        s = bench_pairs.compare(parent, change, "lower", 0.25)
        self.assertEqual(s["verdict"], "unresolved")
        # Unless every change run beats every parent run.
        parent = [10.0, 5.0, 15.0, 10.0, 6.0, 14.0, 10.0, 7.0, 13.0, 10.0]
        change = [4.0, 2.0, 4.5, 3.0, 2.5, 4.0, 3.5, 2.0, 4.9, 3.0]
        s = bench_pairs.compare(parent, change, "lower", 0.25)
        self.assertNotEqual(s["verdict"], "unresolved")

    def test_quartiles_of_one_run(self):
        self.assertEqual(bench_pairs.quartiles([2.0]), (2.0, 2.0, 2.0))


class PairsTest(unittest.TestCase):

    def fake_runner(self, change_k1, calls, answers=None, failed=None,
                    change_dir="change-dir"):
        """A run_once stand-in: the parent reads k1 = 1.0, the change (the
        run in `change_dir`) reads change_k1; `answers`/`failed` override
        the change side per seed."""
        answers = answers or {}
        failed = failed or {}

        def run(checkout, workload, seed, seconds):
            calls.append((checkout, seed, seconds))
            is_change = checkout == change_dir
            metrics = {"k1_p50_ms": change_k1 if is_change else 1.0,
                       "throughput_ops": 2000.0 + seed % 7}
            return bench_pairs.parse_run(run_output(
                metrics, CHANGE_SHA if is_change else PARENT_SHA,
                answers=answers.get(seed, "00c0ffee00c0ffee")
                if is_change else "00c0ffee00c0ffee",
                failed=failed.get(seed, 0) if is_change else 0))
        return run

    @staticmethod
    def fake_git(trees):
        """A subprocess.run stand-in for the three git calls of
        tree_identity: `trees` maps a checkout to (HEAD, the output of
        `git status --porcelain --untracked-files=no`[, the tracked
        sources `git ls-files` lists; none if left out])."""
        def run(cmd, **kwargs):
            if cmd[:2] != ["git", "-C"] or cmd[2] not in trees:
                raise AssertionError(f"unexpected command {cmd}")
            head, status, *sources = trees[cmd[2]]
            if cmd[3:] == ["rev-parse", "HEAD"]:
                stdout = head + "\n"
            elif cmd[3:] == ["status", "--porcelain", "--untracked-files=no"]:
                stdout = status
            elif cmd[3:] == ["ls-files", "-z", "--", "src/*.h", "src/*.cc"]:
                stdout = "".join(name + "\0" for name in sum(sources, []))
            else:
                raise AssertionError(f"unexpected git call {cmd}")
            return subprocess.CompletedProcess(cmd, 0, stdout=stdout)
        return run

    def run_main(self, argv, runner, trees=None):
        out = io.StringIO()
        git = self.fake_git(trees or CLEAN_TREES)
        with mock.patch.object(sys, "argv", ["bench_pairs.py"] + argv), \
                mock.patch.object(bench_pairs, "run_once", runner), \
                mock.patch.object(bench_pairs.subprocess, "run", git), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = bench_pairs.main()
        return code, out.getvalue()

    def test_pairs_alternate_and_report_is_written(self):
        with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
        calls = []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_test.json")
            code, out = self.run_main(
                ["--parent", "parent-dir", "--change", "change-dir",
                 "--workload", "serve", "--seeds", "7,4101-4103",
                 "--out", path],
                self.fake_runner(0.5, calls),
                trees={"parent-dir": (PARENT_SHA, ""),
                       "change-dir": (CHANGE_SHA, " M src/a.cc\n")})
            self.assertEqual(code, 0, out)
            # Every run lasts BENCHMARK.json's run_seconds.
            self.assertEqual(calls, [
                ("parent-dir", 7, seconds), ("change-dir", 7, seconds),
                ("change-dir", 4101, seconds), ("parent-dir", 4101, seconds),
                ("parent-dir", 4102, seconds), ("change-dir", 4102, seconds),
                ("change-dir", 4103, seconds), ("parent-dir", 4103, seconds)])
            # These checkouts track no sources: a library of 0 lines.
            self.assertIn(f"# parent: git={PARENT_SHA} tree=clean "
                          'src_lines=0 machine: cpu="Test CPU"', out)
            self.assertIn(f"# change: git={CHANGE_SHA} tree=dirty "
                          "src_lines=0 machine: ", out)
            self.assertRegex(out, r"k1_p50_ms .* 4/4 +gain")
            with open(path) as f:
                report = json.load(f)
            self.assertEqual(report["seconds"], seconds)
            self.assertEqual((report["parent"]["git"],
                              report["parent"]["clean"]), (PARENT_SHA, True))
            self.assertEqual((report["change"]["git"],
                              report["change"]["clean"]), (CHANGE_SHA, False))
            self.assertIn("Test CPU", report["change"]["machine"])
            serve = report["workloads"]["serve"]
            self.assertEqual([p["first"] for p in serve["pairs"]],
                             ["parent", "change", "parent", "change"])
            self.assertEqual(serve["summary"]["k1_p50_ms"]["verdict"], "gain")
            # Metrics the benchmark does not declare are not summarized.
            self.assertEqual(set(serve["summary"]),
                             {"k1_p50_ms", "throughput_ops"})

    def test_each_side_records_its_library_size(self):
        # The lines of the tracked sources git lists, read from the checkout
        # as it stands; an untracked source does not count.
        with tempfile.TemporaryDirectory() as tmp:
            trees = {}
            for side, sha, lines in (("parent", PARENT_SHA, 5),
                                     ("change", CHANGE_SHA, 3)):
                checkout = os.path.join(tmp, side)
                os.makedirs(os.path.join(checkout, "src", "sub"))
                for name, n in (("a.cc", lines), ("sub/b.h", 2),
                                ("untracked.cc", 9)):
                    with open(os.path.join(checkout, "src", name), "w") as f:
                        f.write("x;\n" * n)
                trees[checkout] = (sha, "", ["src/a.cc", "src/sub/b.h"])
            parent, change = (os.path.join(tmp, side)
                              for side in ("parent", "change"))
            path = os.path.join(tmp, "BENCH_test.json")
            code, out = self.run_main(
                ["--parent", parent, "--change", change, "--workload",
                 "serve", "--seeds", "1-2", "--out", path],
                self.fake_runner(0.5, [], change_dir=change), trees)
            self.assertEqual(code, 0, out)
            self.assertIn(f"# parent: git={PARENT_SHA} tree=clean "
                          "src_lines=7 machine: ", out)
            self.assertIn(f"# change: git={CHANGE_SHA} tree=clean "
                          "src_lines=5 machine: ", out)
            with open(path) as f:
                report = json.load(f)
            self.assertEqual((report["parent"]["src_lines"],
                              report["change"]["src_lines"]), (7, 5))

    def test_decide_family_medians_are_kept_and_reported(self):
        # Each run's `# decide family` lines become its `families`; the
        # report gives each side's median of them over the pairs and the
        # change's wins (ties count for neither side), with no verdict.
        def run(checkout, workload, seed, seconds):
            is_change = checkout == "change-dir"
            memb = 0.2 if is_change else 0.3 + seed / 100
            notes = [f"decide family memb-codd: 12 instances, 6 yes; median "
                     f"{memb:.4f} ms, max 1.0000 ms",
                     "decide family poss-image: 12 instances, 6 yes; median "
                     "0.5000 ms, max 2.0000 ms",
                     "decide family uniq-gtable: 12 instances, 6 yes"]
            return bench_pairs.parse_run(run_output(
                {"k1_p50_ms": 1.0}, CHANGE_SHA if is_change else PARENT_SHA,
                notes=notes))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_test.json")
            code, out = self.run_main(
                ["--parent", "parent-dir", "--change", "change-dir",
                 "--workload", "decide", "--seeds", "1-3", "--out", path],
                run)
            self.assertEqual(code, 0, out)
            with open(path) as f:
                decide = json.load(f)["workloads"]["decide"]
        self.assertEqual(decide["pairs"][0]["parent"]["families"],
                         {"memb-codd": 0.31, "poss-image": 0.5})
        self.assertEqual(decide["families"], {
            "memb-codd": {"parent": 0.32, "change": 0.2, "wins": 3,
                          "pairs": 3},
            "poss-image": {"parent": 0.5, "change": 0.5, "wins": 0,
                           "pairs": 3}})
        self.assertRegex(out, r"memb-codd +0\.3200 +0\.2000 +-37\.5% +3/3")
        self.assertRegex(out, r"poss-image +0\.5000 +0\.5000 +\+0\.0% +0/3")

    def test_traced_seed_keeps_each_sides_per_layer_metrics(self):
        # After the pairs, one --trace 1 run per side (parent first) on the
        # traced seed; its per-layer metrics are kept in BENCHMARK.json's
        # order and printed side by side, with no verdict and no effect on
        # the exit status.
        calls = []

        def run(checkout, workload, seed, seconds, trace=0):
            calls.append((checkout, seed, trace))
            is_change = checkout == "change-dir"
            if trace:
                metrics = {"not.declared": 5.0,
                           "ilalgebra.derived_rows": 219.0 if is_change
                           else 325.0,
                           "ilalgebra.run_ms": 0.1 if is_change else 0.2}
            else:
                metrics = {"k1_p50_ms": 1.0}
            return bench_pairs.parse_run(run_output(
                metrics, CHANGE_SHA if is_change else PARENT_SHA))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "BENCH_test.json")
            code, out = self.run_main(
                ["--parent", "parent-dir", "--change", "change-dir",
                 "--workload", "lineage", "--seeds", "1-2",
                 "--traced-seed", "9", "--out", path], run)
            self.assertEqual(code, 0, out)
            with open(path) as f:
                lineage = json.load(f)["workloads"]["lineage"]
        self.assertEqual(calls, [
            ("parent-dir", 1, 0), ("change-dir", 1, 0),
            ("change-dir", 2, 0), ("parent-dir", 2, 0),
            ("parent-dir", 9, 1), ("change-dir", 9, 1)])
        traced = lineage["traced"]
        self.assertEqual(traced["seed"], 9)
        self.assertEqual(list(traced["parent"].items()),
                         [("ilalgebra.run_ms", 0.2),
                          ("ilalgebra.derived_rows", 325.0)])
        self.assertEqual(traced["change"], {"ilalgebra.run_ms": 0.1,
                                            "ilalgebra.derived_rows": 219.0})
        self.assertEqual(set(lineage["summary"]), {"k1_p50_ms"})
        self.assertIn("traced seed 9 (no verdict)", out)
        self.assertRegex(out, r"ilalgebra\.run_ms +0\.2 +0\.1 +-50\.0%\n")
        self.assertRegex(out, r"ilalgebra\.derived_rows +325 +219 +-32\.6%\n")

    def test_a_workload_the_benchmark_lacks_is_rejected(self):
        with self.assertRaises(SystemExit):
            self.run_main(["--parent", "parent-dir", "--change", "change-dir",
                           "--workload", "nosuch", "--seeds", "1"],
                          self.fake_runner(0.5, []))

    def test_digest_and_failed_mismatches_are_flagged(self):
        calls = []
        code, out = self.run_main(
            ["--parent", "parent-dir", "--change", "change-dir",
             "--workload", "serve", "--seeds", "1-3"],
            self.fake_runner(0.5, calls, answers={2: "badbadbadbadbad0"},
                             failed={3: 4}))
        self.assertEqual(code, 1, out)
        self.assertIn("FLAG seed 2: answers_digest parent 00c0ffee00c0ffee "
                      "change badbadbadbadbad0", out)
        self.assertIn("FLAG seed 3: failed parent 0 change 4", out)
        self.assertIn("FLAG seed 3: change failed 4 ops", out)

    def test_the_same_clean_commit_on_both_sides_is_flagged(self):
        argv = ["--parent", "parent-dir", "--change", "change-dir",
                "--workload", "serve", "--seeds", "1-2"]
        same = {"parent-dir": (PARENT_SHA, ""), "change-dir": (PARENT_SHA, "")}
        code, out = self.run_main(argv, self.fake_runner(0.5, []), same)
        self.assertEqual(code, 1, out)
        self.assertIn("FLAG parent and change are the same clean commit "
                      f"{PARENT_SHA}", out)
        # The same HEAD with an uncommitted change on one side is a real
        # comparison: no flag.
        dirty = dict(same, **{"change-dir": (PARENT_SHA, "M  src/a.cc\n")})
        code, out = self.run_main(argv, self.fake_runner(0.5, []), dirty)
        self.assertEqual(code, 0, out)
        self.assertIn(f"# change: git={PARENT_SHA} tree=dirty", out)
        self.assertNotIn("FLAG", out)

    def test_seed_lists(self):
        self.assertEqual(bench_pairs.parse_seeds("7,4101-4103,9"),
                         [7, 4101, 4102, 4103, 9])


if __name__ == "__main__":
    unittest.main()
