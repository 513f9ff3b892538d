#!/usr/bin/env python3
"""Simulator-throughput regression guard over the benchmark's results.

    python3 .github/bench_guard.py BENCH_bench.json bench-ci.json

The first file is a `bash bench/run.sh --repeat N --out ...` recording
(per-workload quartiles plus a `hardware` block); the second is a
`bash bench/run.sh --seed 1 --out ...` run of all workloads. The guard
takes, for each pf-* workload, the run's `work_per_s` over the
recording's median, and exits 1 when the geometric mean of those ratios
falls below FLOOR. Absolute throughput is not comparable across machine
classes, so when this host's CPU count differs from the recording's
`hardware.nproc` the guard prints a notice and exits 0 without judging.
The count is the process's usable CPUs, which is what Go's
runtime.NumCPU reports and what GOMAXPROCS does not change.
"""

import json
import math
import os
import sys

FLOOR = 0.9
WORKLOADS = ("pf-stream", "pf-chase", "pf-compute")


def cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def main(argv):
    if len(argv) != 3:
        print(f"usage: {argv[0]} <recording.json> <run.json>", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        run = json.load(f)

    nproc, here = base["hardware"]["nproc"], cpu_count()
    if nproc != here:
        print(f"bench guard: skipped (recording made on {nproc} CPUs, this host has {here})")
        return 0

    ratios = []
    for w in WORKLOADS:
        got = run[w]["metrics"]["work_per_s"]["value"]
        want = base["metrics"][w]["work_per_s"]["median"]
        ratios.append(got / want)
        print(f"bench guard: {w} work_per_s {got:.4g} vs median {want:.4g} ({got / want:.3f}x)")
    gmean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    if gmean < FLOOR:
        print(f"bench guard: gmean {gmean:.3f}x vs {argv[1]} is below the {FLOOR:.2f}x floor", file=sys.stderr)
        return 1
    print(f"bench guard: ok (gmean {gmean:.3f}x >= {FLOOR:.2f}x floor)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
