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

echo "==> go test -race (parallel sweep determinism)"
# The sweep layer and its exp/server consumers are the concurrency
# surface; exercise their tests under the race detector explicitly so a
# narrowed "$@" (e.g. -run) can't skip them.
GREENDIMM_QUICK=1 go test -race ./internal/sweep/
# -short scales down the exp determinism matrices (they self-reduce via
# testing.Short) so this pass fits the race detector's 1-CPU budget.
GREENDIMM_QUICK=1 go test -race -short -run 'Sweep|Parallel|Determinism' \
    ./internal/exp/ ./internal/server/

echo "==> go test -race ./internal/cluster/ (fault injection)"
# The cluster dispatcher's retry/hedge/failover machinery is goroutine
# heavy; its fault-injection suite must always run under the detector.
GREENDIMM_QUICK=1 go test -race ./internal/cluster/

echo "==> go test -race ./internal/store/ (WAL crash consistency)"
# The durable job store's replay path — torn tails, CRC corruption,
# snapshot compaction — and the server's crash-recovery e2e must always
# run under the detector: journaling happens from concurrent sweep cells.
go test -race ./internal/store/
GREENDIMM_QUICK=1 go test -race -run 'Recovery|Resubmit|Resume|Shard' \
    ./internal/server/ ./internal/cluster/

echo "==> go test -race (policy pipeline: trackers, policies, equivalence)"
# The block-selection pipeline must stay byte-identical to the legacy
# policies and deterministic under parallel sweeps; its unit tests,
# golden-equivalence suite and polgrid ablation always run under the
# detector.
GREENDIMM_QUICK=1 go test -race -run 'Policy|Tracker|Hysteresis|Proactive|HeatTier|AgeThreshold|Equivalence' \
    ./internal/core/ ./internal/exp/ ./internal/server/ ./internal/cluster/

echo "==> go test -race (cluster-warm memoization)"
# The memo's exchange and placement surface: single-flight + LRU under
# concurrent Do, WAL-backed memo-log recovery, peer key/entry fetch, and
# warm-aware shard placement must always run under the detector. (Not
# ./internal/exp/ — 'Memo' would match its heavy determinism matrix.)
go test -race -run 'Memo|Warm|Predict|PickScored' \
    ./internal/sweep/ ./internal/store/ ./internal/server/ ./internal/cluster/

echo "==> go test -race ./internal/obs/ (lock-free span ring)"
# The trace ring's atomic reservation/publication protocol is only as
# good as its race coverage; run it under the detector unconditionally.
go test -race ./internal/obs/

echo "==> alloc regression (engine, controller, workload hot paths)"
# The request path's zero-allocation contract, asserted as tests so a
# regression fails the gate, not just a benchmark readout. Run WITHOUT
# the race detector: AllocsPerRun must count only the code's own
# allocations, and these same tests also run race-instrumented in the
# repo-wide pass below.
go test -run 'Alloc|SteadyState' ./internal/sim/ ./internal/mc/ ./internal/workload/ ./internal/core/

echo "==> go test -race ./internal/mc/ (pooled-request reuse contract)"
# The request pool recycles objects whose completion events are queued;
# the reuse-while-pending test must always run under the detector.
go test -race -run 'Pooled|QueueRemoval' ./internal/mc/

echo "==> go test -race ./..."
# internal/exp's full-scale determinism matrices blow the race detector's
# budget on 1-CPU runners (hundreds of seconds); its heavy suites
# self-scale under -short while every other package runs at full scale.
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
