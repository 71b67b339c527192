#!/usr/bin/env bash
# Builds the benchmark in this directory and runs it; the benchmark then
# builds cmd/mutps-server itself. Everything the Go toolchain writes (build
# cache, temporary files, both binaries) stays in .bench_build/ of the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/benchmark" -o "$build/mutps-benchmark" . >&2
cd "$root"
exec "$build/mutps-benchmark" "$@"
