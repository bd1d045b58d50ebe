#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json "command"): build bench/pqperf
# and exec it with the arguments given. Everything the Go toolchain writes —
# build cache, scratch files, the binaries — goes under .bench_build in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp"
go build -o .bench_build/pqperf ./bench/pqperf
exec .bench_build/pqperf "$@"
