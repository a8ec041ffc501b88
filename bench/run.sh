#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, passing its arguments on. The binary, the Go build cache and
# temporary files all stay inside the checkout, under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -buildvcs=false -o "$build/eternal-bench" .
ETERNAL_BENCH_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export ETERNAL_BENCH_SHA
exec "$build/eternal-bench" "$@"
