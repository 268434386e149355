#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the root of a checkout; it builds the benchmark like run.py and
makes short runs (about a minute in all). It checks that:

1. a planted mismatch in the pinned statistics (one GPU counter, one replay
   counter, one stream digest) makes the run report correct=false with
   failed cells;
2. two seeds run the cells in different orders but simulate identical
   statistics;
3. the traced run (--trace 1), which drives Done()/Step() itself, matches
   the pinned Run() statistics on every cell;
4. the run refuses, with no result, when DLPSIM_CHECK is set.

Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

WORK = os.path.join(bench.OUT_DIR, "selftest")


def perfbench(workload, seed=1, trace=0, expected=bench.EXPECTED, extra=(),
              env=None):
    cmd = [bench.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--expected", expected]
    proc = subprocess.run(cmd + list(extra), cwd=bench.ROOT, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc, lines, result


def plant(key, field):
    """Copies the expectation file with `field` of block `key` off by one."""
    with open(bench.EXPECTED) as f:
        lines = f.read().splitlines(True)
    block = lines.index("@ " + key + "\n")
    for i in range(block + 1, len(lines)):
        if lines[i].startswith("@ "):
            break
        name, value = lines[i].split()
        if name == field:
            if value.isdigit():
                lines[i] = "%s %d\n" % (name, int(value) + 1)
            else:
                lines[i] = "%s %s\n" % (name, "0" * len(value))
            path = os.path.join(WORK, "planted.txt")
            with open(path, "w") as f:
                f.writelines(lines)
            return path
    raise KeyError("%s has no field %s" % (key, field))


def main():
    bench.build()
    os.makedirs(WORK, exist_ok=True)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload, key, field in [
            ("gpu_cs", "gpu_cs/HG/base metrics", "core_cycles"),
            ("l1d_replay", "l1d_replay/KM/dlp replay", "cache.load_hits"),
            ("l1d_replay", "l1d_replay/BFS stream", "packed_fnv64")]:
        _, _, result = perfbench(workload, expected=plant(key, field))
        check(result is not None and not result["correct"]
              and result["failed"] >= 1,
              "planted mismatch in %s %s is reported as a failure"
              % (key, field))

    for workload in ["gpu_ci", "l1d_replay"]:
        runs = []
        for seed in (1, 2):
            dump = os.path.join(WORK, "%s_seed%d.txt" % (workload, seed))
            _, lines, result = perfbench(workload, seed,
                                         extra=["--dump-stats", dump])
            order = [l for l in lines if l.startswith("first pass order:")]
            with open(dump) as f:
                runs.append((result, order, f.read()))
        check(all(r and r["correct"] for r, _, _ in runs),
              "%s runs under seeds 1 and 2 are correct" % workload)
        check(runs[0][1] != runs[1][1],
              "%s seeds 1 and 2 order the cells differently" % workload)
        check(runs[0][2] == runs[1][2],
              "%s seeds 1 and 2 simulate identical statistics" % workload)

    for workload in ["gpu_cs", "l1d_replay"]:
        _, _, result = perfbench(workload, trace=1)
        check(result is not None and result["correct"]
              and result["metrics"]["fail_ratio"]["value"] == 0,
              "%s traced run simulates exactly the pinned statistics"
              % workload)

    env = dict(os.environ, DLPSIM_CHECK="1")
    proc, lines, _ = perfbench("gpu_cs", env=env)
    check(proc.returncode != 0 and not any(l.startswith("{") for l in lines),
          "DLPSIM_CHECK=1 makes the run refuse without a result")

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
