#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout — Go's build cache
# included, so nothing is written outside it — and runs it with the given
# arguments. BENCHMARK.json's command points here.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
