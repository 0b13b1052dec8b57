#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout (the directory holding src/ and perfbench/):

  python3 perfbench/run.py --workload train-nursing-bk --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload serve-triage --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --workload serve-triage --steady 10
  python3 perfbench/run.py --workload serve-triage --steady 5 --same-seed

The first call configures and builds a Release tree in .bench_build/ (build
output goes to stderr); later calls rebuild incrementally. A normal run
prints the benchmark's own output, whose last line is the JSON result, and
exits with its code. --steady N runs the workload N times (seeds seed ..
seed+N-1, or --seed every time with --same-seed) and prints, per metric, the
median, the quartiles and the quartile spread against the metric's bound in
BENCHMARK.json; it flags spreads wider than the bound and runs of one seed
that froze different snapshot fingerprints, and exits nonzero if it flagged
anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "kddn_perfbench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("error: the library sources (src/) are not next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("error: build step failed: " + " ".join(step))


def run_once(args, capture):
    command = [BINARY]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("error: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 124, ""
    return done.returncode, done.stdout or ""


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] +
            spec["per_layer"]}


def steady(args):
    metric_bounds = bounds()
    values = {}
    fingerprints = {}
    flagged = False
    base_seed = args.seed
    for i in range(args.steady):
        args.seed = base_seed if args.same_seed else base_seed + i
        started = time.monotonic()
        code, out = run_once(args, capture=True)
        elapsed = time.monotonic() - started
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print("run %d (seed %d): exit %d" % (i, args.seed, code))
            flagged = True
            continue
        result = json.loads(lines[-1])
        steal = "?"
        for line in lines:
            if line.startswith("fingerprint "):
                fingerprints.setdefault(args.seed, set()).add(line.split()[1])
            elif line.startswith("host steal_share="):
                steal = line.split("=")[1]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("run %d (seed %d, %.0f s, steal %s): correct=%s attempted=%d "
              "failed=%d %s" %
              (i, args.seed, elapsed, steal, result["correct"],
               result["attempted"], result["failed"],
               " ".join("%s=%.4g" % (name, metric["value"])
                        for name, metric in result["metrics"].items())))
        flagged = flagged or not result["correct"] or result["failed"] > 0
    print("%-32s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                     else (series[0], None, series[0]))
        spread = (q3 - q1) / median if median else 0.0
        bound = metric_bounds.get(name)
        wide = bound is not None and spread > bound
        flagged = flagged or wide
        print("%-32s %14.6g %14.6g %14.6g %7.1f%% %6s%s" %
              (name, median, q1, q3, 100 * spread,
               "-" if bound is None else "%g" % bound,
               "  WIDER THAN BOUND" if wide else ""))
    for seed, seen in sorted(fingerprints.items()):
        if len(seen) > 1:
            flagged = True
            print("seed %d froze different fingerprints: %s" %
                  (seed, ", ".join(sorted(seen))))
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--same-seed", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload or --selftest is required")
    build()
    if args.steady > 0:
        return steady(args)
    code, _ = run_once(args, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
