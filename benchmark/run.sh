#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ at the root of the checkout, so a run touches nothing outside
# it; the build is a no-op after the first run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOWORK=off
go -C "$here" build -o "$build/mpichv-benchmark" . >&2
exec "$build/mpichv-benchmark" "$@"
