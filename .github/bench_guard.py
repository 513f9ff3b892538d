#!/usr/bin/env python3
"""Simulator-throughput and footprint regression guard over the benchmark's results.

    python3 .github/bench_guard.py BENCH_bench.json bench-ci.json

The first file is a `bash bench/run.sh --repeat N --out ...` recording
(per-workload quartiles plus a `hardware` block); the second is a
`bash bench/run.sh --seed 1 --out ...` run of all workloads. The guard
takes, for each pf-* workload, the run's `work_per_s` over the
recording's median, and exits 1 when the geometric mean of those ratios
falls below FLOOR. It also exits 1 when the `peak_rss_mb` of
report-table8 or serve-batch exceeds the recording's median by more than
the metric's bound in BENCHMARK.json. report-table8 reads every trace
once, so a chunk cache that stores single-use traces shows up there as
hundreds of MB; serve-batch holds 128 sessions over 64 store shards, so
slab arenas that reserve storage ahead of their sessions show up there
(a full 512-slot chunk per touched shard more than doubles it). The Go
runtime's own footprint grows with GOMAXPROCS (report-table8 peaks near
15 MB at 2 and 17-19 MB at 4 on a 2-CPU host), and the recording runs at
the default of one P per CPU, so the footprint is judged only when the
GOMAXPROCS environment variable, which the run and the guard share, is
unset or equals the recording's `hardware.nproc`.
Absolute numbers are not comparable across machine classes, so when
this host's CPU count differs from the recording's `hardware.nproc` the
guard prints a notice and exits 0 without judging. The count is the
process's usable CPUs, which is what Go's runtime.NumCPU reports and
what GOMAXPROCS does not change.
"""

import json
import math
import os
import sys

FLOOR = 0.9
WORKLOADS = ("pf-stream", "pf-chase", "pf-compute")
RSS_WORKLOADS = ("report-table8", "serve-batch")
BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def cpu_count():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def rss_bound():
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "peak_rss_mb")


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

    failed = gmean < FLOOR
    if failed:
        print(f"bench guard: gmean {gmean:.3f}x vs {argv[1]} is below the {FLOOR:.2f}x floor", file=sys.stderr)
    else:
        print(f"bench guard: gmean {gmean:.3f}x >= {FLOOR:.2f}x floor")

    procs = int(os.environ.get("GOMAXPROCS") or nproc)
    for w in RSS_WORKLOADS:
        got = run[w]["metrics"]["peak_rss_mb"]["value"]
        if procs != nproc:
            print(f"bench guard: {w} peak_rss_mb {got:.1f} not judged (run at GOMAXPROCS={procs}, recording at {nproc})")
            continue
        ceiling = (1 + rss_bound()) * base["metrics"][w]["peak_rss_mb"]["median"]
        if got > ceiling:
            print(f"bench guard: {w} peak_rss_mb {got:.1f} vs {argv[1]} is above the {ceiling:.1f} MB ceiling", file=sys.stderr)
            failed = True
        else:
            print(f"bench guard: {w} peak_rss_mb {got:.1f} <= {ceiling:.1f} MB ceiling")

    if failed:
        return 1
    print("bench guard: ok")
    return 0

if __name__ == "__main__":
    sys.exit(main(sys.argv))
