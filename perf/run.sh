#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the go tool leaves behind (build cache, module
# cache, temp files, the binary) stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
