#!/usr/bin/env python3
"""Determinism self-test of the lecopt serving benchmark.

    python3 lecbench/selftest.py [--seed 1] [--other-seed 2] [--seconds 2]

Run from the repository root. For every workload, two short untraced runs
with one seed must print identical COUNTERS: plan-cache hits and misses,
optimizer candidates and cost evaluations, executed page I/O, plan_ec_ratio
and the execution I/O ratios (each is taken over a fixed part of the
workload, so it does not depend on how much a run completes in its time).
A run with another seed must print a different corpus fingerprint, and
every run must be correct. Exits 0 when all of that holds.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["hot_serve", "cold_optimize", "adaptive_exec"]


def counters(binary, workload, seed, seconds):
    lines = run.run_binary(binary, workload, seed, seconds, 0)
    result = json.loads(lines[-1])
    found = [l for l in lines if l.startswith("COUNTERS ")]
    if not found:
        raise RuntimeError("no COUNTERS line")
    return result, json.loads(found[-1][len("COUNTERS "):])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    binary = run.build()
    ok = True
    for workload in WORKLOADS:
        first, a = counters(binary, workload, args.seed, args.seconds)
        second, b = counters(binary, workload, args.seed, args.seconds)
        other, c = counters(binary, workload, args.other_seed, args.seconds)
        problems = []
        for res in (first, second, other):
            if not res["correct"] or res["failed"] != 0:
                problems.append("a run was not correct")
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if diff:
            problems.append("same seed, different counters: %s" % diff)
        if a["corpus_fingerprint"] == c["corpus_fingerprint"]:
            problems.append("seeds %d and %d gave the same corpus"
                            % (args.seed, args.other_seed))
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print("%-14s %s  %s" % (workload, status,
                                json.dumps(a, sort_keys=True)))
        ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
