#!/usr/bin/env python3
"""Builds the cypherbench driver from this checkout's sources and runs one
workload.

    python3 cypherbench/run.py --workload snb-interactive --seed 7 \\
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/cypherbench (default
.bench_build/cypherbench) and is reused by later runs. The last line of
standard output is the driver's result object; build output goes to
standard error. Extra flag: --self-test perturb|drop runs one of the
negative self-tests of the output checks, which must fail.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("snb-interactive", "snb-analytic", "adhoc-text")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "cypherbench")


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("cypherbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "cypherbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", choices=("perturb", "drop"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("cypherbench: --seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        sys.exit("cypherbench: the gqlite sources (src/) are not next to "
                 "cypherbench/; nothing to build")

    out = build_dir()
    driver = build(out)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work")]
    if args.self_test:
        cmd += ["--self-test", args.self_test]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("cypherbench: the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
