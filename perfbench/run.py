#!/usr/bin/env python3
"""Run one workload of the HawkSet benchmark and print its result.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload run-apps --seed 1 --seconds 30 --trace 0

Builds the benchmark program (perfbench/hawkbench.ml) with dune, runs the
workload in a fresh process, and relays its output. The last line of
standard output is one JSON object with the keys "correct", "attempted",
"failed" and "metrics". See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "hawkbench.exe")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("run-apps", "analyze-traces", "batch-cached")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    """The benchmark builds the detector from source: refuse to run
    outside a full checkout."""
    for rel in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail("%s is missing; run from the root of a full checkout" % rel)


def build():
    # The shared dune cache lives outside the checkout; keep every build
    # artifact inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--display", "quiet",
             "./perfbench/hawkbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def revision():
    """Git revision when the checkout is a repository, else "none"."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    return "none"


def invoke(workload, seed, seconds, trace, extra=()):
    """Run the benchmark program for one workload in a fresh process, in
    a work directory of its own that is removed afterwards. Returns the
    finished process; raises subprocess.TimeoutExpired."""
    work = os.path.join(STATE, "work-%s-%d" % (workload, os.getpid()))
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work, "--rev", revision()] + list(extra)
    os.makedirs(work, exist_ok=True)
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args):
    """Run one workload; returns its stdout lines, or exits without a
    result when it fails."""
    extra = []
    if args.trace:
        extra = ["--spans-out", os.path.join(STATE, "spans-%s.jsonl" % args.workload)]
    try:
        r = invoke(args.workload, args.seed, args.seconds, args.trace, extra)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out" % args.workload, 1)
    if r.returncode != 0:
        fail("workload %s exited with %d" % (args.workload, r.returncode), 1)
    return r.stdout.splitlines()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    check_tree()
    build()
    for line in run(args):
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
