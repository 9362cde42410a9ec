#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the program. This is the "command" of BENCHMARK.json:
#
#   bash benchmark/run.sh --workload net_get95_d16 --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh                 # the whole suite, 3 rounds a workload
#   bash benchmark/run.sh -aa             # the suite twice, medians compared
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -buildvcs=false -o "$build/benchmark" .
exec "$build/benchmark" "$@"
