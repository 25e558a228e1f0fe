#!/usr/bin/env sh
# Compare two benchmark snapshots (scripts/bench.sh output) and flag
# regressions on the gated hot-path benchmarks.
#
# Usage: scripts/bench_compare.sh [old.json new.json]
#   With no arguments, the two newest BENCH_<rev>.json in the repo root
#   are compared, ordered by the git ancestry of each file name's rev
#   (file mtimes mean nothing after a checkout). Every such rev must be
#   an ancestor of HEAD, and the older must be an ancestor of the newer;
#   otherwise the order is undefined and the script fails.
#
# Environment:
#   BENCH_GATE            regex of benchmark names to gate
#                         (default 'Engine|MCSubmit|Dispatcher')
#   BENCH_TOLERANCE_PCT   allowed increase before flagging (default 20)
#   BENCH_STRICT=1        make ns/op regressions fatal too (allocs/op
#                         regressions are always fatal: the alloc-lean
#                         request path is a correctness-adjacent contract,
#                         while ns/op is noisy across machines)
set -eu

cd "$(dirname "$0")/.."

if [ $# -ge 2 ]; then
    old=$1
    new=$2
else
    rev_of() {
        r=${1#BENCH_}
        echo "${r%.json}"
    }
    # One "<commit count> <file>" line per snapshot: the count of commits
    # reachable from a rev orders revs that lie on one line of history.
    ranked=""
    for snap in BENCH_*.json; do
        [ -e "$snap" ] || continue
        rev=$(rev_of "$snap")
        if ! git rev-parse -q --verify "$rev^{commit}" >/dev/null ||
            ! git merge-base --is-ancestor "$rev" HEAD; then
            echo "bench_compare: FATAL: $snap: rev $rev is not an ancestor of HEAD" >&2
            exit 1
        fi
        ranked="$ranked$(git rev-list --count "$rev") $snap
"
    done
    count=$(printf '%s' "$ranked" | grep -c . || true)
    if [ "$count" -lt 2 ]; then
        echo "bench_compare: need two BENCH_*.json snapshots in the repo root (found $count)" >&2
        exit 1
    fi
    top=$(printf '%s' "$ranked" | sort -n -r | head -2)
    new=$(printf '%s\n' "$top" | sed -n 1p | cut -d' ' -f2)
    old=$(printf '%s\n' "$top" | sed -n 2p | cut -d' ' -f2)
    # Across a merge, two ancestors of HEAD need not be ordered.
    if ! git merge-base --is-ancestor "$(rev_of "$old")" "$(rev_of "$new")"; then
        echo "bench_compare: FATAL: $old and $new are on different lines of history; pass old.json new.json explicitly" >&2
        exit 1
    fi
fi

gate="${BENCH_GATE:-Engine|MCSubmit|Dispatcher}"
tol="${BENCH_TOLERANCE_PCT:-20}"
strict="${BENCH_STRICT:-0}"

# A snapshot taken from a dirty working tree measures code no commit
# identifies — the comparison may not be reproducible. Warn (not fatal:
# dirty-tree snapshots are exactly how one iterates on a perf change);
# snapshots predating the field count as clean.
dirty_of() {
    grep -q '"dirty": *true' "$1" 2>/dev/null && echo dirty || echo clean
}
for snap in "$old" "$new"; do
    if [ "$(dirty_of "$snap")" = dirty ]; then
        echo "bench_compare: WARNING: $snap was taken from a dirty working tree; its rev does not identify the measured code" >&2
    fi
done

echo "==> bench_compare: $old -> $new (gate: $gate, tolerance: ${tol}%)"

awk -v gate="$gate" -v tol="$tol" -v strict="$strict" '
# Snapshot lines look like:
#   "BenchmarkMCSubmit-8": {"iterations": 200000, "ns_per_op": 513, ..., "allocs_per_op": 0}
function metric(s, key,    v) {
    if (match(s, "\"" key "\": [0-9.eE+-]+")) {
        v = substr(s, RSTART, RLENGTH)
        sub(/.*: /, "", v)
        return v
    }
    return "missing"
}
FNR == 1 { fileno++ }
/"Benchmark/ {
    split($0, parts, "\"")
    name = parts[2]
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix: machines differ
    if (fileno == 1) {
        old_ns[name] = metric($0, "ns_per_op")
        old_al[name] = metric($0, "allocs_per_op")
    } else {
        new_ns[name] = metric($0, "ns_per_op")
        new_al[name] = metric($0, "allocs_per_op")
        order[++n] = name
    }
}
function pct(o, v) { return (v - o) / o * 100 }
END {
    fail = 0
    for (i = 1; i <= n; i++) {
        name = order[i]
        if (name !~ gate) continue
        if (!(name in old_ns)) {
            printf "  new      %-46s ns/op=%s allocs/op=%s (no baseline)\n", \
                name, new_ns[name], new_al[name]
            continue
        }
        flagged = 0
        # allocs/op: always fatal beyond tolerance; 0 -> >0 is fatal outright.
        oa = old_al[name]; na = new_al[name]
        if (oa != "missing" && na != "missing") {
            if (oa + 0 == 0 && na + 0 > 0) {
                printf "  FAIL     %-46s allocs/op %s -> %s (was alloc-free)\n", name, oa, na
                fail = 1; flagged = 1
            } else if (oa + 0 > 0 && pct(oa, na) > tol) {
                printf "  FAIL     %-46s allocs/op %s -> %s (+%.1f%%)\n", name, oa, na, pct(oa, na)
                fail = 1; flagged = 1
            }
        }
        # ns/op: warn by default (machine noise), fatal under BENCH_STRICT=1.
        on = old_ns[name]; nn = new_ns[name]
        if (on != "missing" && nn != "missing" && on + 0 > 0 && pct(on, nn) > tol) {
            tag = (strict + 0) ? "FAIL" : "WARN"
            printf "  %-8s %-46s ns/op %s -> %s (+%.1f%%)\n", tag, name, on, nn, pct(on, nn)
            if (strict + 0) fail = 1
            flagged = 1
        }
        if (!flagged) {
            printf "  ok       %-46s ns/op %s -> %s, allocs/op %s -> %s\n", \
                name, on, nn, oa, na
        }
    }
    if (n == 0) { print "bench_compare: no benchmarks parsed from new snapshot" > "/dev/stderr"; exit 1 }
    exit fail
}
' "$old" "$new"

echo "==> bench_compare: OK"
