#!/usr/bin/env python3
"""Gate the benchmark pairs whose two halves are both production paths.

Reads google-benchmark JSON files (--benchmark_out_format=json) and pairs
each benchmark with its reference by name:

    *_Incremental/N    vs  *_Recompute/N     (maintained materialized view vs
                                              full fixpoint per update)
    *_Snapshot/N       vs  *_Direct/N        (versioned snapshot reads, each
                                              reader on its own interner, vs
                                              direct single-thread reads)
    *_DDBackend/N      vs  *_Antichain/N     (decision-diagram condition
                                              backend vs the conjunctive
                                              antichain backend, gated at a
                                              tightened 1.2x)
    *_Cdcl/N           vs  *_Dpll/N          (trail-based CDCL SAT core vs
                                              the seed recursive DPLL)

Exits nonzero when any benchmark takes more than --max-ratio times its
reference (default 2.0, the CI regression budget; pairs may carry a tighter
per-pair limit), or when no pair was found at all (which means the bench
names drifted and the gate is vacuous).

Additionally, with --min-scale > 0, enforces the concurrency scaling gate:
for every benchmark family named `<base>/N` (with N a thread count) that
reports items_per_second and contains "Snapshot", the N = --scale-threads
run must process at least --min-scale times the items/sec of the N = 1 run.
A collapse here means something serialized the readers. The gate fails as
vacuous if --min-scale is set but no such family exists in the input.

With --dd-speedup-floor > 0 (default 5.0), enforces the condition-diversity
blowup gate: for every *_DDBackend family swept over sizes `<base>/N`, the
antichain twin at the LARGEST common N must take at least that factor longer
— the whole point of the diagram backend is killing the antichain's
exponential growth at high condition diversity, so a collapse to parity at
the big sizes is a regression even though the pairwise 1.2x check passes.
Fails as vacuous when the floor is set but no such family pair exists.

With --cdcl-speedup-floor > 0 (default 5.0), enforces the propagation gate
on the SAT core: for every *Chain_Cdcl family swept over sizes `<base>/N`,
the seed-DPLL twin at the LARGEST common N must take at least that factor
longer. The chain instances are pure unit propagation — watched literals
walk them in linear time while the seed solver's re-scan loop is quadratic —
so a collapse to parity means the watcher machinery broke. Fails as vacuous
when the floor is set but no such family pair exists.
"""

import argparse
import json
import re
import sys

# (fast_tag, seed_tag, per-pair max ratio or None for the --max-ratio
# default). The DDBackend pair runs tighter: the diagram backend must never
# lose the low-diversity end of its sweep by more than 1.2x.
PAIRS = [("Incremental", "Recompute", None), ("Snapshot", "Direct", None),
         ("DDBackend", "Antichain", 1.2), ("Cdcl", "Dpll", None)]

THREADED_NAME = re.compile(r"^(?P<base>.+)/(?P<n>\d+)(?:/real_time)?$")


def load_benchmarks(paths):
    """name -> (real_time, unit, items_per_second or None)."""
    benchmarks = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        for bench in data.get("benchmarks", []):
            if bench.get("run_type", "iteration") != "iteration":
                continue
            benchmarks[bench["name"]] = (float(bench["real_time"]),
                                         bench.get("time_unit", "ns"),
                                         bench.get("items_per_second"))
    return benchmarks


def check_pairs(benchmarks, max_ratio):
    failures = []
    checked = 0
    for name in sorted(benchmarks):
        for fast_tag, seed_tag, pair_ratio in PAIRS:
            if fast_tag not in name:
                continue
            seed_name = name.replace(fast_tag, seed_tag)
            if seed_name == name or seed_name not in benchmarks:
                continue
            checked += 1
            limit = pair_ratio if pair_ratio is not None else max_ratio
            fast_time, unit, _ = benchmarks[name]
            seed_time, _, _ = benchmarks[seed_name]
            ratio = fast_time / seed_time if seed_time > 0 else 0.0
            status = "FAIL" if ratio > limit else "ok"
            print(f"[{status}] {name}: {fast_time:.0f}{unit} vs "
                  f"{seed_name}: {seed_time:.0f}{unit} (ratio {ratio:.2f}, "
                  f"limit {limit:.2f})")
            if ratio > limit:
                failures.append(name)
    return checked, failures


def check_dd_speedup(benchmarks, floor):
    """seed/fast at the largest size of every DDBackend sweep >= floor."""
    families = {}
    for name, (fast_time, unit, _) in benchmarks.items():
        if "DDBackend" not in name:
            continue
        m = THREADED_NAME.match(name)
        if m is None:
            continue
        seed_name = name.replace("DDBackend", "Antichain")
        if seed_name not in benchmarks:
            continue
        families.setdefault(m.group("base"), {})[int(m.group("n"))] = \
            (fast_time, benchmarks[seed_name][0], unit)
    failures = []
    checked = 0
    for base in sorted(families):
        checked += 1
        largest = max(families[base])
        fast_time, seed_time, unit = families[base][largest]
        speedup = seed_time / fast_time if fast_time > 0 else 0.0
        status = "FAIL" if speedup < floor else "ok"
        print(f"[{status}] {base}/{largest}: {fast_time:.0f}{unit} vs "
              f"antichain {seed_time:.0f}{unit} "
              f"(speedup {speedup:.1f}x, floor {floor:.1f}x)")
        if speedup < floor:
            failures.append(base)
    return checked, failures


def check_cdcl_speedup(benchmarks, floor):
    """seed/fast at the largest size of every *Chain_Cdcl sweep >= floor."""
    families = {}
    for name, (fast_time, unit, _) in benchmarks.items():
        if "Chain_Cdcl" not in name:
            continue
        m = THREADED_NAME.match(name)
        if m is None:
            continue
        seed_name = name.replace("Cdcl", "Dpll")
        if seed_name not in benchmarks:
            continue
        families.setdefault(m.group("base"), {})[int(m.group("n"))] = \
            (fast_time, benchmarks[seed_name][0], unit)
    failures = []
    checked = 0
    for base in sorted(families):
        checked += 1
        largest = max(families[base])
        fast_time, seed_time, unit = families[base][largest]
        speedup = seed_time / fast_time if fast_time > 0 else 0.0
        status = "FAIL" if speedup < floor else "ok"
        print(f"[{status}] {base}/{largest}: {fast_time:.0f}{unit} vs "
              f"seed DPLL {seed_time:.0f}{unit} "
              f"(speedup {speedup:.1f}x, floor {floor:.1f}x)")
        if speedup < floor:
            failures.append(base)
    return checked, failures


def check_scaling(benchmarks, min_scale, scale_threads):
    """items_per_second at `scale_threads` must beat 1-thread by min_scale."""
    families = {}
    for name, (_, _, items_per_second) in benchmarks.items():
        if items_per_second is None or "Snapshot" not in name:
            continue
        m = THREADED_NAME.match(name)
        if m is None:
            continue
        families.setdefault(m.group("base"), {})[int(m.group("n"))] = \
            items_per_second
    failures = []
    checked = 0
    for base in sorted(families):
        by_threads = families[base]
        if 1 not in by_threads or scale_threads not in by_threads:
            continue
        checked += 1
        one = by_threads[1]
        many = by_threads[scale_threads]
        scale = many / one if one > 0 else 0.0
        status = "FAIL" if scale < min_scale else "ok"
        print(f"[{status}] {base}: {many:.0f} items/s at {scale_threads} "
              f"threads vs {one:.0f} at 1 (scale {scale:.2f}x, "
              f"minimum {min_scale:.2f}x)")
        if scale < min_scale:
            failures.append(base)
    return checked, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_files", nargs="+",
                        help="google-benchmark JSON output files")
    parser.add_argument("--max-ratio", type=float, default=2.0,
                        help="maximum fast/seed time ratio (default 2.0)")
    parser.add_argument("--min-scale", type=float, default=0.0,
                        help="minimum N-thread/1-thread items/sec factor for "
                             "Snapshot throughput families (0 disables)")
    parser.add_argument("--scale-threads", type=int, default=4,
                        help="thread count the scaling gate compares against "
                             "the 1-thread run (default 4)")
    parser.add_argument("--dd-speedup-floor", type=float, default=5.0,
                        help="minimum antichain/DD time factor at the largest "
                             "size of every *_DDBackend sweep (0 disables)")
    parser.add_argument("--cdcl-speedup-floor", type=float, default=5.0,
                        help="minimum DPLL/CDCL time factor at the largest "
                             "size of every *Chain_Cdcl sweep (0 disables)")
    args = parser.parse_args()

    benchmarks = load_benchmarks(args.json_files)
    checked, failures = check_pairs(benchmarks, args.max_ratio)

    if checked == 0:
        print("error: no fast/seed benchmark pairs found in "
              f"{args.json_files}; did the benchmark names change?",
              file=sys.stderr)
        return 1

    if args.min_scale > 0:
        scale_checked, scale_failures = check_scaling(
            benchmarks, args.min_scale, args.scale_threads)
        if scale_checked == 0:
            print("error: --min-scale set but no Snapshot throughput family "
                  f"with both 1 and {args.scale_threads} threads was found; "
                  "the scaling gate is vacuous", file=sys.stderr)
            return 1
        failures += scale_failures

    if args.dd_speedup_floor > 0:
        dd_checked, dd_failures = check_dd_speedup(
            benchmarks, args.dd_speedup_floor)
        if dd_checked == 0:
            print("error: --dd-speedup-floor set but no DDBackend/Antichain "
                  "benchmark family was found; the diversity gate is vacuous",
                  file=sys.stderr)
            return 1
        failures += dd_failures

    if args.cdcl_speedup_floor > 0:
        cdcl_checked, cdcl_failures = check_cdcl_speedup(
            benchmarks, args.cdcl_speedup_floor)
        if cdcl_checked == 0:
            print("error: --cdcl-speedup-floor set but no Chain_Cdcl/"
                  "Chain_Dpll benchmark family was found; the propagation "
                  "gate is vacuous", file=sys.stderr)
            return 1
        failures += cdcl_failures

    if failures:
        print(f"{len(failures)} of {checked} gated paths failed",
              file=sys.stderr)
        return 1
    print(f"all {checked} fast-path pairs within {args.max_ratio:.1f}x" +
          (f"; scaling >= {args.min_scale:.1f}x at {args.scale_threads} "
           "threads" if args.min_scale > 0 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
