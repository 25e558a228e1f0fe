#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload energy --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache stay under .bench_build/ so that
# nothing outside the checkout is read or written besides the toolchain.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
(cd perfbench && go build -p 2 -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
