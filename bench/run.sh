#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload lan_gm_bulk --seed 1 --seconds 8 --trace 0
#
# This is the command BENCHMARK.json names. Everything the build writes
# (binary, Go build cache, module cache) stays under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it. `go run ./bench`
# is the same program for interactive use.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local # never fetch another toolchain

cd "$root"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
