#!/usr/bin/env python3
"""Build and run the dlpsim host-throughput benchmark.

    python3 perfbench/run.py --workload gpu_cs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the root of a checkout. The first run configures and builds
perfbench/ (an optimized Release build of the simulator library from src/
plus the benchmark program) under .bench_build/; later runs only rebuild
what changed. Build output goes to stderr. The benchmark's standard output
is passed through, so its last line is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run also leaves a result record with the machine fingerprint in
.bench_build/results/, and with --trace 1 the spans in .bench_build/spans/.
--compare prints the metric ratios of two such records and flags, rather
than refuses, a comparison across machines.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
EXPECTED = os.path.join(BENCH_DIR, "expected.txt")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) are missing; run from a full checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", BUILD_JOBS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
                fail("build failed: " + " ".join(cmd))


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    every file under src/ (a checkout exported without .git)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(args):
    build()
    tag = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", EXPECTED, "--source-id", source_id()]
    if args.trace:
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, "spans", tag + ".json")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0 or not lines:
        sys.exit(proc.returncode or 1)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("fingerprint "):
            record["fingerprint"] = json.loads(line[len("fingerprint "):])
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    def machine(record):
        fingerprint = dict(record.get("fingerprint", {}))
        fingerprint.pop("commit", None)
        return fingerprint

    if machine(old) != machine(new):
        print("WARNING: the two runs come from different machines or build"
              " settings; the ratios below are indicative only")
        print("  old: %s" % json.dumps(old.get("fingerprint")))
        print("  new: %s" % json.dumps(new.get("fingerprint")))
    old_metrics = old["result"]["metrics"]
    for name, m in sorted(new["result"]["metrics"].items()):
        if name in old_metrics and old_metrics[name]["value"]:
            ratio = m["value"] / old_metrics[name]["value"]
            print("%-32s %14.6g -> %14.6g %s  (x%.4f)" % (
                name, old_metrics[name]["value"], m["value"], m["unit"],
                ratio))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["gpu_cs", "gpu_ci", "l1d_replay"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args()
    if args.compare:
        compare(*args.compare)
    elif args.workload is None:
        p.error("--workload is required")
    else:
        run(args)


if __name__ == "__main__":
    main()
