#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness (a module of
# its own in this directory) and runs it from the repository root. The
# Go build cache, the binaries and everything a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

# Fails (non-zero, nothing printed on stdout) where the repository's
# own module is missing: the harness imports its packages.
go build -C "$here" -o "$build/aqppp-benchmark" . >&2

cd "$root"
exec "$build/aqppp-benchmark" "$@"
