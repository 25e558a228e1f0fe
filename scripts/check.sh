#!/usr/bin/env sh
# Repo-wide gate: build, vet, and race-test everything.
# Usage: scripts/check.sh [extra go test flags]
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go vet (perfbench)"
# perfbench/ is its own Go module, so ./... above never compiles it; vet
# builds it against this checkout (replace greendimm => ../) so an API
# change that breaks the repository benchmark fails here. Offline: the
# module has no dependencies beyond the replaced root.
(cd perfbench && GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod go vet .)

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> alloc regression (engine, controller, workload hot paths)"
# The request path's zero-allocation contract, asserted as tests so a
# regression fails the gate, not just a benchmark readout. Run WITHOUT
# the race detector: AllocsPerRun must count only the code's own
# allocations, and these same tests also run race-instrumented in the
# repo-wide pass below.
go test -run 'Alloc|SteadyState' ./internal/sim/ ./internal/mc/ ./internal/workload/ ./internal/core/

echo "==> go test -race ./..."
# Every package's tests run under the race detector here, among them the
# concurrency surfaces (sweep, cluster, store, memo, obs, the mc request
# pool). internal/exp's full-scale determinism matrices blow the race
# detector's budget on 1-CPU runners (hundreds of seconds); its heavy
# suites self-scale under -short while every other package runs at full
# scale.
go test -race -short -timeout 20m "$@" ./internal/exp/
go test -race "$@" $(go list ./... | grep -v '/internal/exp$')

echo "==> bench snapshot comparison"
# With two or more BENCH_*.json snapshots present, gate the hot-path
# benchmarks (>20% allocs/op regressions are fatal; ns/op warns).
if [ "$(ls BENCH_*.json 2>/dev/null | wc -l)" -ge 2 ]; then
    scripts/bench_compare.sh
else
    echo "  (skipped: fewer than two BENCH_*.json snapshots)"
fi

echo "OK"
