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

echo "==> alloc regression (engine, controller, workload, daemon, buddy, hotplug, ksm, cluster, metrics, power, boot-release, energy matrix)"
# The request path's, the page allocator's, memory-block off-lining's,
# the periodic daemons' (GreenDIMM's monitor tick, ksmd's scan wake-up),
# a capped metrics.Distribution's and power accounting's (FromActivity)
# zero-allocation contracts, the cluster dispatcher's allocation
# ceiling, and the byte ceilings of a recycled machine boot and of a
# quick fig9 regeneration, asserted as tests so a regression fails the
# gate, not just a benchmark readout. Run WITHOUT the race
# detector: AllocsPerRun must count only the code's own allocations, and
# these same tests also run race-instrumented in the repo-wide pass below.
go test -run 'Alloc|SteadyState' ./internal/sim/ ./internal/mc/ ./internal/workload/ ./internal/core/ ./internal/kernel/ ./internal/hotplug/ ./internal/ksm/ ./internal/cluster/ ./internal/metrics/ ./internal/power/ ./internal/exp/

echo "==> fuzz engine tie-break, journal snapshot restore and peer responses (10s each)"
# The engine's equal-time ordering and its reserved-key answers (Passed,
# BornAfter), which the controller's closed-form idle descent relies on,
# checked against a twin engine on fuzzed schedules beyond the seeds.
# Then the job journal's snapshot restore, on arbitrary bytes: the
# snapshot is the daemon's only durable state and the source of its warm
# memo at boot. Then cluster.Client's decoding of a peer's status,
# Retry-After hint and job view, which carries a range job's cell
# artifacts between daemons. Minimization is bounded: at Go's default
# (60 s per new input, not counted in -fuzztime) the first new input
# stalls the whole window.
go test -run '^$' -fuzz FuzzEngineTieBreak -fuzztime 10s -fuzzminimizetime 10x ./internal/sim/
go test -run '^$' -fuzz FuzzSnapshotRestore -fuzztime 10s -fuzzminimizetime 10x ./internal/store/
go test -run '^$' -fuzz FuzzClientResponse -fuzztime 10s -fuzzminimizetime 10x ./internal/cluster/

echo "==> layer and figure benchmarks, one iteration each"
# Nothing else runs the Benchmark* functions, so one that panics or calls
# b.Fatal after a change to the code it measures would pass every step
# above. One iteration each checks that they still run, not their speed;
# the root package's per-figure benchmarks run at quick scale.
GREENDIMM_QUICK=1 go test -run '^$' -bench . -benchtime 1x . ./internal/...

echo "==> go test -race ./..."
# Every package's tests run under the race detector here, among them the
# concurrency surfaces (sweep, cluster, store, memo, obs, the mc request
# pool). internal/exp's full-scale determinism matrices blow the race
# detector's budget on 1-CPU runners (hundreds of seconds); its heavy
# suites self-scale under -short while every other package runs at full
# scale.
go test -race -short -timeout 20m "$@" ./internal/exp/
go test -race "$@" $(go list ./... | grep -v '/internal/exp$')

echo "==> go test -race -count=20 -run Overflow (server, cluster)"
# Submit releases and re-takes the server lock around queue-overflow
# placement, a network round trip; one race run can miss that window.
go test -race -count=20 -run Overflow "$@" ./internal/server/ ./internal/cluster/

echo "==> perfbench self-test"
# Runs every benchmark workload once at tiny size and checks the fig9,
# tail and fig12 reports against perfbench/digests.json, the only byte
# pin on those reports (go test never compares them to committed bytes).
bash perfbench/run.sh --selftest

echo "OK"
