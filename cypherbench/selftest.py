#!/usr/bin/env python3
"""Negative self-test of the benchmark's output checks. For each workload
it makes three short runs: a clean one, which must pass, and two with a
planted error, each of which must fail:

  perturb  one expected read answer is altered;
  drop     one acknowledged commit is left out of the reference model, so
           the end-state checks (counts per label and type, property
           checksums) must disagree with the database.

    python3 cypherbench/selftest.py [--seconds 2]
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("snb-interactive", "snb-analytic", "adhoc-text")


def run(workload, seconds, self_test):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    if self_test:
        cmd += ["--self-test", self_test]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    correct = bool(lines) and json.loads(lines[-1])["correct"]
    return proc.returncode, correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    ok = True
    for wl in WORKLOADS:
        for self_test in (None, "perturb", "drop"):
            code, correct = run(wl, args.seconds, self_test)
            want_pass = self_test is None
            good = (code == 0 and correct) if want_pass else \
                (code != 0 and not correct)
            ok &= good
            print("%-16s %-8s exit %d correct %-5s %s" %
                  (wl, self_test or "clean", code, correct,
                   "ok" if good else "UNEXPECTED"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
