#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 pwbench/run.py --workload decide|lineage|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call builds the library and the
runner from source (Release, into $CARGO_TARGET_DIR or .bench_build/); later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the runner's JSON result. With --trace 1 the spans of the
traced run are written next to the build, as spans-<workload>-<seed>.tsv.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "pwbench"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target / "pwbench").resolve()


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "tables" / "ctable.h").is_file():
        sys.exit("pwbench: the library sources (src/) are not in this checkout")
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("pwbench: build failed: " + " ".join(step))
    return out / "pwbench"


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decide", "lineage", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir() / f"spans-{args.workload}-{args.seed}.tsv")]
    env = dict(os.environ, PWBENCH_GIT_SHA=git_sha())
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"pwbench: runner exited with {done.returncode}")
    json.loads(lines[-1])  # the result line must parse
    return 0


if __name__ == "__main__":
    sys.exit(main())
