#!/usr/bin/env python3
"""Steadiness tool: runs each workload N times, one seed per run, and
prints per end-to-end metric the median, the quartiles and the spread
(interquartile range over the median) against the metric's bound in
BENCHMARK.json. The bounds there are set from its output.

    python3 cypherbench/steady.py --runs 10 --seed 100
    python3 cypherbench/steady.py --workloads adhoc-text --runs 5 \\
        --save /tmp/a.json
    python3 cypherbench/steady.py --runs 10 --seed 200 --against /tmp/a.json
    python3 cypherbench/steady.py --runs 3 --trace-overhead

--against compares this set's medians with a saved set's (the drift may
not exceed the bound). --trace-overhead also makes a traced run per seed
and prints how much slower the traced runs were.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect output: " + " ".join(cmd))
    # "# workload W seed N: T s timed, R reads, ..." gives the read rate of
    # traced runs too, which report no end-to-end metrics.
    words = next(l for l in lines if l.startswith("# workload")).split()
    result["reads_per_s"] = float(words[8]) / float(words[5])
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--seconds", type=float,
                    help="run length; default: run_seconds")
    ap.add_argument("--save", help="write the raw results here (JSON)")
    ap.add_argument("--against", help="a file written by --save")
    ap.add_argument("--trace-overhead", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    raw = {}
    ok = True
    for wl in workloads:
        results = []
        traced = []
        for i in range(args.runs):
            results.append(run_once(wl, args.seed + i, seconds, 0))
            if args.trace_overhead:
                traced.append(run_once(wl, args.seed + i, seconds, 1))
        raw[wl] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print("\n%s: %d runs, seeds %d..%d, failed share %s" %
              (wl, args.runs, args.seed, args.seed + args.runs - 1,
               sorted(shares)))
        if len(shares) != 1:
            ok = False
            print("  FAILED SHARE DIFFERS BETWEEN RUNS")
        print("  %-22s %12s %12s %12s %8s %6s %s" %
              ("metric", "q1", "median", "q3", "spread", "bound",
               "drift" if previous else ""))
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, ok = "  SPREAD > BOUND", False
            elif spread > bound / 3:
                flag = "  (spread > bound/3)"
            drift = ""
            if wl in previous:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in previous[wl])
                worse = (med - old) / old if spec["better"] == "lower" \
                    else (old - med) / old
                drift = "%+.3f" % worse
                if worse > bound:
                    flag, ok = flag + "  MEDIAN WORSE THAN BOUND", False
            print("  %-22s %12.6g %12.6g %12.6g %8.3f %6.2f %s%s" %
                  (name, q1, med, q3, spread, bound, drift, flag))
        if traced:
            plain = statistics.median(r["reads_per_s"] for r in results)
            slow = statistics.median(r["reads_per_s"] for r in traced)
            print("  tracing overhead: %.1f%% fewer reads per second "
                  "(median of %d traced vs %d untraced runs)" %
                  (100 * (1 - slow / plain), len(traced), len(results)))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
