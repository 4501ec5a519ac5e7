#!/usr/bin/env python3
"""The rrfd benchmark: builds rrfd_perfbench from source and runs it.

One workload, as the benchmark contract calls it (the last stdout line is
the result JSON):

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 25 --trace 0

The whole suite, every workload on the default seed and on the held-out
seed, untraced and traced, with the work counters of the untraced and
traced runs at the same seed held equal:

    python3 perfbench/run.py [--seconds 25]

Builds go to .bench_build/ at the root of the checkout. Nothing is read
from or written to anywhere else; RRFD_* variables are removed from the
environment of the benchmark process so that no knob reaches the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "rrfd_perfbench")

WORKLOADS = ["serve-mixed", "modelcheck-deep", "sim-runtime"]
DEFAULT_SEED = 1
# Never used while writing the benchmark; claims must hold here too.
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("failed_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings rrfd_perfbench up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at src/ in " + ROOT)
        sys.exit(2)
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            sys.exit(configure.returncode)
    jobs = str(min(4, os.cpu_count() or 1))
    make = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "rrfd_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if make.returncode != 0:
        sys.exit(make.returncode)


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--spans", os.path.join(
            OUT_DIR, "spans-%s-seed%d.jsonl" % (workload, seed))]
    env = {k: v for k, v in os.environ.items() if not k.startswith("RRFD_")}
    try:
        proc = subprocess.run(args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def parse_run(lines):
    """The result JSON and the counters of one run's output."""
    result = json.loads(lines[-1]) if lines else None
    counters = {}
    for line in lines:
        if line.startswith("counters "):
            counters = json.loads(line[len("counters "):])
    return result, counters


def suite(seconds):
    ok = True
    rows = []
    layers = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, lines = run_binary(workload, seed, seconds, 0)
            result, counters = parse_run(lines)
            if code != 0 or result is None or not result["correct"]:
                ok = False
                log("\n".join(lines))
                log("perfbench: %s seed %d FAILED" % (workload, seed))
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            metrics["failed_ratio"] = result["failed"] / result["attempted"]
            rows.append((workload, seed, metrics))
            if seed != DEFAULT_SEED:
                continue
            code, lines = run_binary(workload, seed, seconds, 1)
            traced, traced_counters = parse_run(lines)
            if code != 0 or traced is None or not traced["correct"]:
                ok = False
                log("\n".join(lines))
                log("perfbench: traced %s FAILED" % workload)
                continue
            for name, value in counters.items():
                if traced_counters.get(name) != value:
                    ok = False
                    log("perfbench: %s counter %s: %s untraced, %s traced"
                        % (workload, name, value, traced_counters.get(name)))
            layers[workload] = traced["metrics"]

    print("%-16s %6s " % ("workload", "seed")
          + " ".join("%16s" % name for name, _ in END_TO_END))
    print("%-16s %6s " % ("", "")
          + " ".join("%16s" % unit for _, unit in END_TO_END))
    for workload, seed, metrics in rows:
        print("%-16s %6d " % (workload, seed)
              + " ".join("%16.6g" % metrics[name] for name, _ in END_TO_END))
    for workload, metrics in layers.items():
        print("\nper-layer, traced %s (seed %d):" % (workload, DEFAULT_SEED))
        for name, v in metrics.items():
            print("  %-36s %16.6g %s" % (name, v["value"], v["unit"]))
    print("\nsuite " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    build()
    if args.workload is None:
        return suite(args.seconds)
    code, lines = run_binary(args.workload, args.seed, args.seconds,
                             args.trace)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
