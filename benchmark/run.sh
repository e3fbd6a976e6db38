#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the benchmark from the
# checkout's source into .bench_build/ (cache and temporary files too, so
# nothing is written outside the checkout) and runs it with the arguments
# given: --workload NAME --seed N --seconds S --trace 0|1.
#
# In a directory without the repository's go.mod and internal/ packages the
# build fails and this script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$build/benchmark" ./benchmark
GOMAXPROCS=2 exec "$build/benchmark" "$@"
