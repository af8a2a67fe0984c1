#!/usr/bin/env python3
"""Build and run the MultiEdge benchmark.

One workload:
    python3 perfbench/run.py --workload kv-read-zipf --seed 1 --seconds 25 --trace 0

All four workloads, untraced then traced, with a summary table:
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the root of a source checkout. The first call configures and builds
perfbench/ (CMake, Release) into .bench_build/perfbench and runs the
accounting self-test; later calls rebuild only what changed. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
Traced runs leave their span log in .bench_build/spans/.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["stream-2L", "kv-read-zipf", "kv-write-open", "coll-16"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources at %s/src; run from a "
                 "MultiEdge checkout" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    steps.append([os.path.join(BUILD, "perfbench_selftest")])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            sys.stderr.write(res.stdout)
            sys.exit("perfbench: '%s' failed (exit %d)" %
                     (" ".join(cmd), res.returncode))


def run_one(workload, seed, seconds, trace, capture=False):
    """Run the benchmark binary; returns (exit code, stdout or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    sys.stdout.flush()
    res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                         stdout=subprocess.PIPE if capture else None)
    if capture:
        sys.stdout.write(res.stdout)
    return res.returncode, res.stdout


def run_all(seed, seconds):
    """Every workload, untraced and traced; prints one summary table."""
    results, status = {}, 0
    for wl in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(wl, seed, seconds, trace, capture=True)
            status = status or code
            last = out.strip().splitlines()[-1] if out.strip() else "{}"
            try:
                results["%s/trace%d" % (wl, trace)] = json.loads(last)
            except ValueError:
                status = status or 1
    print("\n%-34s" % "metric" + "".join("%16s" % wl for wl in WORKLOADS))
    for trace in (0, 1):
        names = []
        for wl in WORKLOADS:
            for name in results.get("%s/trace%d" % (wl, trace),
                                    {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
        for name in names:
            row = "%-34s" % name
            for wl in WORKLOADS:
                m = results.get("%s/trace%d" % (wl, trace),
                                {}).get("metrics", {}).get(name)
                row += "%16.6g" % m["value"] if m else "%16s" % "-"
            print(row)
    correct = all(r.get("correct") for r in results.values())
    print("all workloads correct: %s" % correct)
    return status if status else (0 if correct else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    build()
    if args.all:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
