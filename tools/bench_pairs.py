#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload serve [--workload decide ...] --seeds 4101-4110 \\
        [--out BENCH_<n>.json]

PARENT_DIR and CHANGE_DIR are two git checkouts, each with its own
pwbench/. A pair runs `python3 pwbench/run.py --workload W --seed S
--seconds T --trace 0` once in each checkout, one seed per pair, with the
workloads and the run length T (`run_seconds`) of BENCHMARK.json; pair 0
runs the parent first, pair 1 the change first, and so on. Per workload
and end-to-end metric of BENCHMARK.json the tool prints each side's median
and quartiles, the change's wins (ties count for neither side) and a
verdict:

  gain        the change wins at least 9 of every 10 pairs, and its median
              beats the parent's by more than the parent's interquartile
              range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound, a fraction of the parent's median;
  unresolved  either side's interquartile range, as a fraction of its
              median, is wider than the bound, and not every change run
              beats every parent run;
  no worse    otherwise.

Each side's identity is read from its checkout itself before the pairs
run: `git rev-parse HEAD`, whether `git status --porcelain
--untracked-files=no` is empty (the tree is clean), and the library size:
the line count of the git-tracked src/*.h and src/*.cc files as they stand
in the checkout. pwbench's own `git=` is HEAD even in a dirty checkout, so
it cannot tell an uncommitted change from its parent.

A pair whose sides differ in answers_digest or in the failed count is
flagged, and so is a side with a failed op, and a report whose two sides
are the same clean commit (it compares a tree with itself); a flag makes the
exit status nonzero. --out writes every run and the summary as one JSON
file, with each side's `# machine:` fingerprint, HEAD, cleanliness and
library size.
"""

import argparse
import json
import math
import pathlib
import re
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MACHINE = re.compile(r"^# machine: (?P<fingerprint>.*?) git=(?P<git>\S+)$")
DIGESTS = re.compile(r"^# ops_digest=\S+ answers_digest=(?P<answers>\S+)$")


def parse_seeds(text):
    """"7,4101-4103" -> [7, 4101, 4102, 4103]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def parse_run(stdout):
    """The fields of one pwbench/run.py run that the comparison reads."""
    run = {"fingerprint": None, "git": None, "answers_digest": None}
    for line in stdout.splitlines():
        if m := MACHINE.match(line):
            run["fingerprint"] = m.group("fingerprint")
            run["git"] = m.group("git")
        elif m := DIGESTS.match(line):
            run["answers_digest"] = m.group("answers")
    result = json.loads(stdout.strip().splitlines()[-1])
    run["attempted"] = result["attempted"]
    run["failed"] = result["failed"]
    run["metrics"] = {name: m["value"]
                      for name, m in result["metrics"].items()}
    return run


def run_once(checkout, workload, seed, seconds):
    """Runs the benchmark once in `checkout` and parses its output."""
    cmd = [sys.executable, "pwbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {checkout}")
    return parse_run(done.stdout)


def tree_identity(checkout):
    """{"git": HEAD, "clean": no tracked file differs from it, "src_lines":
    the lines of its tracked src/*.h and src/*.cc} of one checkout, read
    with git in the checkout."""
    def git(*args):
        cmd = ["git", "-C", str(checkout), *args]
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode != 0:
            sys.exit(f"bench_pairs: {' '.join(cmd)} failed")
        return done.stdout
    sources = git("ls-files", "-z", "--", "src/*.h", "src/*.cc")
    src_lines = 0
    for name in filter(None, sources.split("\0")):
        src_lines += (pathlib.Path(checkout) / name).read_bytes().count(b"\n")
    return {"git": git("rev-parse", "HEAD").strip(),
            "clean": git("status", "--porcelain",
                         "--untracked-files=no") == "",
            "src_lines": src_lines}


def run_pairs(parent, change, workload, seeds, seconds):
    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            checkout = parent if side == "parent" else change
            pair[side] = run_once(checkout, workload, seed, seconds)
            print(f"bench_pairs: {workload} seed {seed} {side} done",
                  file=sys.stderr)
        pairs.append(pair)
    return pairs


def quartiles(values):
    """(q1, median, q3), interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, base):
    if base != 0:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def compare(parent, change, better, bound):
    """The summary of one metric over paired runs (parent[i], change[i])."""
    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    # Positive when the change is worse.
    worse = sign * (c_med - p_med)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    every_run_better = all(sign * (p - c) > 0
                           for p in parent for c in change)
    spread = max(relative(p_q3 - p_q1, p_med), relative(c_q3 - c_q1, c_med))
    if relative(worse, p_med) > bound:
        verdict = "regression"
    elif wins * 10 >= 9 * len(parent) and -worse > p_q3 - p_q1:
        verdict = "gain"
    elif spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "change_vs_parent": relative(c_med - p_med, p_med),
            "wins": wins, "pairs": len(parent), "verdict": verdict}


def summarize(pairs, specs):
    summary = {}
    for spec in specs:
        name = spec["name"]
        if not all(name in pair[side]["metrics"]
                   for pair in pairs for side in ("parent", "change")):
            continue
        summary[name] = compare([p["parent"]["metrics"][name] for p in pairs],
                                [p["change"]["metrics"][name] for p in pairs],
                                spec["better"], spec["bound"])
    return summary


def flags(pairs):
    out = []
    for pair in pairs:
        parent, change = pair["parent"], pair["change"]
        seed = pair["seed"]
        if parent["answers_digest"] != change["answers_digest"]:
            out.append(f"seed {seed}: answers_digest parent "
                       f"{parent['answers_digest']} change "
                       f"{change['answers_digest']}")
        if parent["failed"] != change["failed"]:
            out.append(f"seed {seed}: failed parent {parent['failed']} "
                       f"change {change['failed']}")
        for side in ("parent", "change"):
            if pair[side]["failed"]:
                out.append(f"seed {seed}: {side} failed "
                           f"{pair[side]['failed']} ops")
    return out


def side_identity(workloads, side, tree):
    """One side's checkout identity (`tree`, from tree_identity) with the
    machine fingerprint of its first run, and whether a later run disagrees
    on the run's git sha or fingerprint (a checkout or machine changed
    mid-run)."""
    runs = [pair[side] for w in workloads.values() for pair in w["pairs"]]
    first = (runs[0]["git"], runs[0]["fingerprint"])
    mixed = any((run["git"], run["fingerprint"]) != first for run in runs)
    return dict(tree, machine=first[1]), mixed


def print_summary(report):
    for side in ("parent", "change"):
        tree = "clean" if report[side]["clean"] else "dirty"
        print(f"# {side}: git={report[side]['git']} tree={tree} "
              f"src_lines={report[side]['src_lines']} "
              f"machine: {report[side]['machine']}")
    for workload, w in report["workloads"].items():
        seeds = [pair["seed"] for pair in w["pairs"]]
        print(f"\n## {workload}: {len(seeds)} pairs, seeds {seeds}, "
              f"{report['seconds']} s runs")
        print(f"{'metric':<16} {'parent median [q1-q3]':>30} "
              f"{'change median [q1-q3]':>30} {'delta':>8} {'wins':>6}  "
              "verdict")
        for name, s in w["summary"].items():
            cells = []
            for side in ("parent", "change"):
                q = s[side]
                cells.append(f"{q['median']:.4g} [{q['q1']:.4g}-"
                             f"{q['q3']:.4g}]")
            print(f"{name:<16} {cells[0]:>30} {cells[1]:>30} "
                  f"{s['change_vs_parent']:>+8.1%} "
                  f"{s['wins']:>3}/{s['pairs']:<2}  {s['verdict']}")
        for flag in w["flags"]:
            print(f"FLAG {flag}")


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", required=True,
                        help='one seed per pair, e.g. "4101-4110"')
    parser.add_argument("--out", help="write the runs and summary as JSON")
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    seeds = parse_seeds(args.seeds)
    trees = {"parent": tree_identity(args.parent),
             "change": tree_identity(args.change)}
    report = {"seconds": seconds, "workloads": {}}
    for workload in args.workload:
        pairs = run_pairs(args.parent, args.change, workload, seeds, seconds)
        report["workloads"][workload] = {
            "pairs": pairs, "flags": flags(pairs),
            "summary": summarize(pairs, benchmark["end_to_end"])}
    first = next(iter(report["workloads"].values()))
    for side in ("parent", "change"):
        report[side], mixed = side_identity(report["workloads"], side,
                                            trees[side])
        if mixed:
            first["flags"].append(f"{side}: runs disagree on git sha "
                                  "or machine fingerprint")
    if trees["parent"] == trees["change"] and trees["parent"]["clean"]:
        first["flags"].append("parent and change are the same clean commit "
                              f"{trees['parent']['git']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")

    print_summary(report)
    flagged = any(w["flags"] for w in report["workloads"].values())
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
