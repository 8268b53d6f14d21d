#!/usr/bin/env bash
# The launcher BENCHMARK.json names. It builds the harness from the
# checkout's sources and runs it; the build cache, temporary files and
# binaries all stay inside the checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/cmd/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
