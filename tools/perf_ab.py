#!/usr/bin/env python3
"""Same-machine A/B throughput gate between two dlpsim checkouts.

    python3 tools/perf_ab.py BASE_CHECKOUT CANDIDATE_CHECKOUT

Each side runs its own perfbench/run.py (--seed 1 --trace 0, SECONDS per
run), so each measures the simulator built from its own sources. On every
workload, PAIRS pairs of runs alternate the two sides, the base first on
even pairs, so drift of the machine lands on both sides alike.

The gate fails (exit 1) when any run of either side reports `correct`
other than true or `failed` other than 0, or when, on any workload, the
candidate's median sim_cycles_per_s is below the base median by more than
the distance between the quartiles of the base runs
(statistics.quantiles(n=4), as in perfbench/README.md "Steadiness").

Give the two checkouts paths of equal length, and make them the same kind
(both git worktrees, or both exported trees). perfbench's command line
carries the checkout path and a source id: the commit hash when the
checkout has a .git directory, else a digest of src/. On a 4-vCPU x86-64
VM the same perfbench binary read about 11% lower gpu_cs throughput with
a 40-character source id than with a 1-character one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("gpu_cs", "gpu_ci", "l1d_replay")
PAIRS = 5
SECONDS = 10
METRIC = "sim_cycles_per_s"


def run_once(checkout, workload):
    """One perfbench run; returns (correct, failed, sim_cycles_per_s)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        rate = result["metrics"][METRIC]["value"]
    except (IndexError, KeyError, TypeError, ValueError):
        return False, None, None
    if proc.returncode != 0:
        return False, result.get("failed"), rate
    return result.get("correct") is True, result.get("failed"), rate


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="checkout of the base commit")
    p.add_argument("candidate", help="checkout of the candidate commit")
    args = p.parse_args()
    sides = {"base": os.path.abspath(args.base),
             "candidate": os.path.abspath(args.candidate)}
    for name, path in sides.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            p.error("%s checkout %s has no perfbench/run.py" % (name, path))

    ok = True
    print("%-10s %4s %-9s %14s %14s %7s" % (
        "workload", "pair", "first", "base", "candidate", "ratio"))
    summaries = []
    for workload in WORKLOADS:
        rates = {"base": [], "candidate": []}
        for pair in range(PAIRS):
            order = (("base", "candidate") if pair % 2 == 0
                     else ("candidate", "base"))
            for side in order:
                correct, failed, rate = run_once(sides[side], workload)
                if not correct or failed != 0:
                    print("FAIL %s %s pair %d: correct=%r failed=%r" % (
                        workload, side, pair, correct, failed))
                    ok = False
                rates[side].append(rate if rate is not None else 0.0)
            base, cand = rates["base"][-1], rates["candidate"][-1]
            print("%-10s %4d %-9s %14.0f %14.0f %7.3f" % (
                workload, pair, order[0], base, cand,
                cand / base if base else float("nan")))
            sys.stdout.flush()
        base_median = statistics.median(rates["base"])
        q1, _, q3 = statistics.quantiles(rates["base"], n=4)
        cand_median = statistics.median(rates["candidate"])
        slower = cand_median < base_median - (q3 - q1)
        if slower:
            ok = False
        summaries.append((workload, base_median, q3 - q1, cand_median,
                          "FAIL" if slower else "ok"))

    print()
    print("%-10s %14s %12s %14s %7s %s" % (
        "workload", "base median", "base IQR", "cand median", "ratio",
        "verdict"))
    for workload, base_median, iqr, cand_median, verdict in summaries:
        print("%-10s %14.0f %12.0f %14.0f %7.3f %s" % (
            workload, base_median, iqr, cand_median,
            cand_median / base_median if base_median else float("nan"),
            verdict))
    print("perf_ab: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
