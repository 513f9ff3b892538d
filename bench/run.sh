#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run from the repository root:
#
#   bash bench/run.sh --workload pf-stream --seed 1 --seconds 10 --trace 0
#
# All build state (Go build cache, module cache, the binary) lives in
# .bench_build/ at the root, so the script reads and writes nothing outside
# the checkout and never needs the network. Without the module at the root
# (a copy holding only bench/ and BENCHMARK.json) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CACHE_HOME="$build/cache" XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/mabbench" .)
exec "$build/mabbench" "$@"
