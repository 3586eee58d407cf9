#!/usr/bin/env python3
"""Build and run the lecopt serving benchmark.

    python3 lecbench/run.py --workload hot_serve --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark binary is built from the
library sources (src/) and lecbench/src/ with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs rebuild incrementally.

The binary prints human-readable lines, a COUNTERS line and, last, one JSON
object {"correct", "attempted", "failed", "metrics"}. This wrapper checks
that the metrics are exactly the ones BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1) before passing the
output on; on any build or run failure it exits non-zero without printing
a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds the lecbench target; returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out, "--target", "lecbench", "-j", jobs]

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode == 0

    # Configuring an existing tree is quick; a tree configured for another
    # source directory (a moved checkout) is rebuilt from scratch.
    if not step(configure):
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            raise RuntimeError("configure failed: " + " ".join(configure))
        shutil.rmtree(out)
        if not step(configure):
            raise RuntimeError("configure failed: " + " ".join(configure))
    if not step(compile_):
        raise RuntimeError("build failed: " + " ".join(compile_))
    binary = os.path.join(out, "lecbench")
    if not os.path.isfile(binary):
        raise RuntimeError("build produced no lecbench binary")
    return binary


def run_binary(binary, workload, seed, seconds, trace, span_dir=None):
    """Runs one benchmark process; returns its stdout lines."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if span_dir:
        os.makedirs(span_dir, exist_ok=True)
        cmd += ["--span-dir", span_dir]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S, text=True)
    if result.returncode != 0:
        raise RuntimeError("lecbench exited with %d" % result.returncode)
    lines = result.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError("lecbench printed no result line")
    return lines


def declared_metrics(trace):
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, trace):
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise RuntimeError("metrics differ from BENCHMARK.json: missing %s, "
                           "extra %s, unit mismatch %s"
                           % (missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise RuntimeError("metric %s has no numeric value" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["hot_serve", "cold_optimize",
                                 "adaptive_exec"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        binary = build()
        span_dir = os.path.join(build_dir(), "spans") if args.trace else None
        lines = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace, span_dir)
        result = json.loads(lines[-1])
        validate(result, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("lecbench: %s" % e, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
