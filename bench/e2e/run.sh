#!/usr/bin/env bash
# BENCHMARK.json's command: build bench/e2e from source into the checkout's
# own build directory, then run it with the arguments given. Everything the
# Go toolchain writes (build cache, temp files, its config) is pointed
# inside .bench_build, so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -o "$build/e2e" ./bench/e2e
exec "$build/e2e" "$@"
