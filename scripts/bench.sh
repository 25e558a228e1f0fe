#!/usr/bin/env sh
# Benchmark snapshot: run every benchmark once in quick mode and write a
# JSON file mapping benchmark name -> metrics, for before/after
# comparisons of the event engine, sweep, and cluster-dispatch work.
# BenchmarkDispatcher (internal/cluster) rides along via ./... and
# tracks the per-job dispatch overhead: routing, HTTP round trips,
# polling, and the deterministic merge, with simulation cost excluded.
#
# Usage: scripts/bench.sh [output.json]
#   Default output: BENCH_<git-short-rev>.json in the repo root.
#
# Environment:
#   BENCH_FILTER   -bench regex (default '.', everything) — narrow the
#                  run when iterating on one hot path
#   BENCH_TIME     -benchtime value (default '1x')
set -eu

cd "$(dirname "$0")/.."

rev=$(git rev-parse --short HEAD 2>/dev/null || echo "worktree")
# A snapshot from a dirty tree measures code that no commit identifies;
# record that, so bench_compare.sh can warn when a comparison involves
# unreproducible numbers.
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    dirty=true
else
    dirty=false
fi
out="${1:-BENCH_${rev}.json}"
filter="${BENCH_FILTER:-.}"
benchtime="${BENCH_TIME:-1x}"

# Host metadata: ns/op is only comparable on the same machine shape, so
# every snapshot records where it came from.
cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
gomaxprocs="${GOMAXPROCS:-$cpus}"
goversion=$(go version | sed 's/^go version //')

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "==> go test -bench=$filter -benchtime=$benchtime (GREENDIMM_QUICK=1)"
GREENDIMM_QUICK=1 go test -run '^$' -bench="$filter" -benchtime="$benchtime" -benchmem ./... | tee "$raw"

# Benchmark output lines look like:
#   BenchmarkEngineDispatchChain-8  1  14.71 ns/op  0 B/op  0 allocs/op
# Everything after the iteration count is value/unit pairs.
awk -v rev="$rev" '
BEGIN { n = 0 }
/^Benchmark/ {
    name = $1
    iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9\/]/, "", unit)
        gsub(/\//, "_per_", unit)
        if (metrics != "") metrics = metrics ", "
        metrics = metrics "\"" unit "\": " $i
    }
    if (n++) printf ",\n"
    printf "    \"%s\": {\"iterations\": %s, %s}", name, iters, metrics
}
END {
    if (n == 0) { print "no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "\n"
}' "$raw" > "$raw.body"

{
    printf '{\n  "rev": "%s",\n  "dirty": %s,\n  "quick": true,\n  "benchtime": "%s",\n' "$rev" "$dirty" "$benchtime"
    printf '  "gomaxprocs": %s,\n  "cpus": %s,\n  "go": "%s",\n' \
        "$gomaxprocs" "$cpus" "$goversion"
    printf '  "benchmarks": {\n'
    cat "$raw.body"
    printf '  }\n}\n'
} > "$out"
rm -f "$raw.body"

echo "==> wrote $out"
