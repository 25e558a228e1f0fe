package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"greendimm/internal/exp"
	"greendimm/internal/server"
	"greendimm/internal/store"
)

// shardSpec is the shard-test workhorse: fig8 in quick mode is a real
// 12-cell matrix sweep at ~2ms per cell.
func shardSpec() server.JobSpec {
	return server.JobSpec{Kind: server.KindExperiment, Experiment: &server.ExperimentSpec{ID: "fig8", Quick: true, Seed: 1}}
}

// execLocal adapts server.Execute to the ShardOptions.Exec contract.
func execLocal(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
	return server.Execute(spec, h)
}

// newShardHarness stands up n real simulation backends behind a pool
// and returns a shard runner over them plus its counters. opts.Exec
// defaults to execLocal.
func newShardHarness(t *testing.T, n int, opts ShardOptions) (*ShardRunner, *Counters) {
	t.Helper()
	ctr := &Counters{}
	var urls []string
	for i := 0; i < n; i++ {
		hs, _ := newBackend(t, server.Config{Workers: 2, QueueDepth: 16})
		urls = append(urls, hs.URL)
	}
	pool := NewPool(urls, PoolConfig{Client: fastClient(ctr)})
	d := NewDispatcher(pool, Options{Counters: ctr})
	if opts.Exec == nil {
		opts.Exec = execLocal
	}
	opts.Counters = ctr
	sr, err := NewShardRunner(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sr, ctr
}

// TestShardMergeDeterminism is the acceptance check: the same 12-cell
// job fanned out as 1, 2 and 5 shards across two real backends must
// merge to report bytes identical to a single-node run.
func TestShardMergeDeterminism(t *testing.T) {
	want := mustFingerprint(t, localExec(t, shardSpec()))
	cases := []struct {
		name   string
		opts   ShardOptions
		shards int64
	}{
		// 12 cells in one shard: MinCells must drop to 1, or the runner
		// would (correctly) refuse to shard a job that fits one shard.
		{"one shard", ShardOptions{CellsPerShard: 12, MinCells: 1}, 1},
		{"two shards", ShardOptions{CellsPerShard: 6}, 2},
		// ceil(12/2) = 6 capped at 5 → near-equal sizes 3,3,2,2,2.
		{"five shards", ShardOptions{CellsPerShard: 2, MaxShards: 5}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sr, ctr := newShardHarness(t, 2, tc.opts)
			res, err := sr.Run(shardSpec(), server.RunHooks{})
			if err != nil {
				t.Fatal(err)
			}
			if got := mustFingerprint(t, res); got != want {
				t.Fatalf("sharded report diverged from single-node run: %s vs %s", got, want)
			}
			if res.Text == "" || len(res.Cells) != 0 {
				t.Fatalf("merged result should be a rendered report, got %+v", res)
			}
			if sj, s := ctr.ShardJobs.Load(), ctr.Shards.Load(); sj != 1 || s != tc.shards {
				t.Fatalf("counters: shard_jobs=%d shards=%d, want 1/%d", sj, s, tc.shards)
			}
		})
	}
}

// walCellKeys counts the cell entries per key in the WAL of the job
// journal in dir, whose lines are "<crc32-hex8> <json entry>".
func walCellKeys(t *testing.T, dir string) map[string]int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var e struct{ Op, Key string }
		_, body, ok := strings.Cut(line, " ")
		if !ok || json.Unmarshal([]byte(body), &e) != nil {
			t.Fatalf("unreadable WAL line %q", line)
		}
		if e.Op == "cell" {
			counts[e.Key]++
		}
	}
	return counts
}

// checkJournaledOnce fails unless the journal in dir holds want cell
// entries, each under a distinct key.
func checkJournaledOnce(t *testing.T, dir string, want int) {
	t.Helper()
	keys := walCellKeys(t, dir)
	for key, n := range keys {
		if n != 1 {
			t.Errorf("cell %q journaled %d times", key, n)
		}
	}
	if len(keys) != want {
		t.Errorf("journal holds %d cell keys, want %d", len(keys), want)
	}
}

// TestShardJournalFlow checks the durable-store transport: the plan and
// every completed range are journaled in cell-before-range order,
// ranges already done are not re-executed, each cell reaches a real job
// journal once, and the merge computes only the cells no artifact
// covers.
func TestShardJournalFlow(t *testing.T) {
	want := mustFingerprint(t, localExec(t, shardSpec()))
	// The merge runs against a memo the test reads.
	cfg := server.Config{Workers: 1}
	cfg.Memo = cfg.NewMemo()
	sr, ctr := newShardHarness(t, 2, ShardOptions{CellsPerShard: 2, MaxShards: 5, Exec: cfg.BaseRunner()})

	dir := t.TempDir()
	journal, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const hash = "fig8"
	if err := journal.Accept(hash, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var doneRanges [][2]int
	var plannedTotal int
	var planned [][2]int
	h := server.RunHooks{
		CellObserved: func(a exp.CellArtifact) {
			if err := journal.PutCell(hash, a.Key, a.Value); err != nil {
				t.Error(err)
			}
		},
		Ranges: &server.RangeLog{
			// [0,7) is already journaled: only [7,12) may execute.
			Done: [][2]int{{0, 7}},
			OnPlan: func(total int, ranges [][2]int) {
				mu.Lock()
				plannedTotal, planned = total, ranges
				mu.Unlock()
			},
			OnDone: func(lo, hi int) {
				mu.Lock()
				// Every cell of [lo,hi) must have been observed already —
				// the order recovery trusts.
				if lo < 7 {
					t.Errorf("completed range [%d,%d) overlaps journaled work", lo, hi)
				}
				doneRanges = append(doneRanges, [2]int{lo, hi})
				mu.Unlock()
			},
		},
	}
	// No artifacts are supplied for the journaled [0,7) — the merge must
	// self-heal by recomputing them locally, still byte-identically.
	res, err := sr.Run(shardSpec(), h)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, res); got != want {
		t.Fatal("resumed shard run diverged from single-node run")
	}
	if plannedTotal != 12 {
		t.Fatalf("planned total = %d, want 12", plannedTotal)
	}
	// 5 missing cells at 2 per shard → 3 shards covering exactly [7,12).
	if len(planned) != 3 || ctr.Shards.Load() != 3 {
		t.Fatalf("planned %v (%d executed), want 3 shards", planned, ctr.Shards.Load())
	}
	covered := complementRanges(doneRanges, 12)
	if !reflect.DeepEqual(covered, [][2]int{{0, 7}}) {
		t.Fatalf("completed ranges %v do not cover [7,12)", doneRanges)
	}
	// The merge replays the 5 shard cells and recomputes [0,7)'s 7. It
	// offers all 12 to the journal, which appends each key once: the
	// shard cells as they land, the self-healed ones from the merge.
	if n := cfg.Memo.Computes(); n != 7 {
		t.Errorf("merge computed %d memo cells, want the 7 self-healed", n)
	}
	checkJournaledOnce(t, dir, 12)
}

// TestShardReshardOnFailure fault-injects width: every path — both
// backends and the dispatcher's local fallback — fails shards wider
// than 3 cells, so the initial [0,12) shard must halve twice before its
// four width-3 quarters succeed.
func TestShardReshardOnFailure(t *testing.T) {
	want := mustFingerprint(t, localExec(t, shardSpec()))
	tooWide := func(spec server.JobSpec) bool {
		return spec.Cells != nil && spec.Cells.Hi-spec.Cells.Lo > 3
	}
	failWide := func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
		if tooWide(spec) {
			return nil, fmt.Errorf("injected: shard too wide")
		}
		return server.Execute(spec, h)
	}
	ctr := &Counters{}
	var urls []string
	for i := 0; i < 2; i++ {
		hs, _ := newBackend(t, server.Config{Workers: 2, QueueDepth: 16, Runner: failWide})
		urls = append(urls, hs.URL)
	}
	pool := NewPool(urls, PoolConfig{Client: fastClient(ctr)})
	// The local fallback is the ladder's last rung: it must reject wide
	// shards too, or it would absorb the failure before resharding could.
	d := NewDispatcher(pool, Options{Counters: ctr, Local: func(ctx context.Context, spec server.JobSpec) (*server.Result, error) {
		if tooWide(spec) {
			return nil, fmt.Errorf("injected: local shard too wide")
		}
		return server.Execute(spec, server.RunHooks{Stop: func() bool { return ctx.Err() != nil }})
	}})
	sr, err := NewShardRunner(d, ShardOptions{
		CellsPerShard: 12,
		MinCells:      1,
		Exec:          execLocal,
		Counters:      ctr,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sr.Run(shardSpec(), server.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, res); got != want {
		t.Fatal("resharded report diverged from single-node run")
	}
	// [0,12) fails, halves to [0,6)+[6,12), both fail, each halves to
	// width-3 quarters that succeed: 7 range executions, 3 reshards.
	if s, rs := ctr.Shards.Load(), ctr.ShardRetries.Load(); s != 7 || rs != 3 {
		t.Fatalf("shards=%d reshards=%d, want 7/3", s, rs)
	}
}

// TestShardRunnerPassthrough: jobs that cannot shard — wrong kind, or a
// spec already carrying a range (a shard arriving at a backend) — run
// whole through Exec with no fan-out.
func TestShardRunnerPassthrough(t *testing.T) {
	sr, ctr := newShardHarness(t, 1, ShardOptions{CellsPerShard: 2})

	vm := scenSpec(3)
	want := mustFingerprint(t, localExec(t, vm))
	res, err := sr.Run(vm, server.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, res); got != want {
		t.Fatal("vmserver passthrough diverged")
	}

	ranged := shardSpec()
	ranged.Cells = &server.CellRangeSpec{Lo: 0, Hi: 3}
	rres, err := sr.Run(ranged, server.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Cells) != 3 {
		t.Fatalf("range passthrough returned %d cells, want 3", len(rres.Cells))
	}
	if ctr.ShardJobs.Load() != 0 || ctr.Shards.Load() != 0 {
		t.Fatalf("passthrough jobs fanned out: %+v", ctr.Snapshot())
	}
}

// TestComplementRanges covers the journal-gap math, including the
// unsorted and out-of-bounds journals an older spec variant can leave.
func TestComplementRanges(t *testing.T) {
	cases := []struct {
		done  [][2]int
		total int
		want  [][2]int
	}{
		{nil, 5, [][2]int{{0, 5}}},
		{[][2]int{{0, 5}}, 5, nil},
		{[][2]int{{1, 2}, {3, 4}}, 5, [][2]int{{0, 1}, {2, 3}, {4, 5}}},
		{[][2]int{{3, 4}, {1, 2}}, 5, [][2]int{{0, 1}, {2, 3}, {4, 5}}}, // unsorted
		{[][2]int{{-3, 2}, {4, 99}}, 5, [][2]int{{2, 4}}},               // clipped
		{[][2]int{{0, 3}, {2, 4}}, 6, [][2]int{{4, 6}}},                 // overlapping
		{[][2]int{{5, 5}, {2, 1}}, 3, [][2]int{{0, 3}}},                 // degenerate entries
		{[][2]int{{0, 1}, {1, 2}, {2, 3}}, 4, [][2]int{{3, 4}}},         // adjacent
	}
	for i, tc := range cases {
		if got := complementRanges(tc.done, tc.total); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("case %d: complementRanges(%v, %d) = %v, want %v", i, tc.done, tc.total, got, tc.want)
		}
	}
}

// TestPlanShards pins the planner's shape guarantees: shard count,
// near-equal sizes, fragment boundaries never spanned.
func TestPlanShards(t *testing.T) {
	sizes := func(ranges [][2]int) []int {
		var out []int
		for _, r := range ranges {
			out = append(out, r[1]-r[0])
		}
		return out
	}
	// The acceptance shape: 12 cells, 2 per shard, capped at 5 shards →
	// exactly 5 near-equal shards.
	got := planShards([][2]int{{0, 12}}, 2, 5)
	if !reflect.DeepEqual(sizes(got), []int{3, 3, 2, 2, 2}) {
		t.Fatalf("12/2/max5 = %v", got)
	}
	// Contiguity across the plan.
	for i := 1; i < len(got); i++ {
		if got[i][0] != got[i-1][1] {
			t.Fatalf("plan not contiguous: %v", got)
		}
	}
	// Two fragments must get at least one shard each even when one alone
	// would satisfy the cell budget.
	got = planShards([][2]int{{0, 1}, {5, 6}}, 10, 16)
	if !reflect.DeepEqual(got, [][2]int{{0, 1}, {5, 6}}) {
		t.Fatalf("fragment floor: %v", got)
	}
	// Shard allocation follows fragment size.
	got = planShards([][2]int{{0, 8}, {10, 12}}, 2, 5)
	if len(got) != 5 {
		t.Fatalf("8+2 cells at cps=2 max=5: %v", got)
	}
	if last := got[len(got)-1]; last != [2]int{10, 12} {
		t.Fatalf("small fragment should keep one shard: %v", got)
	}
	if planShards(nil, 3, 4) != nil {
		t.Fatal("empty missing set must plan nothing")
	}
	// splitEven invariants: sizes differ by at most one, larger first.
	for _, n := range []int{1, 2, 3, 5, 7} {
		parts := splitEven(3, 17, n)
		if len(parts) != n {
			t.Fatalf("splitEven(3,17,%d) = %v", n, parts)
		}
		cur := 3
		for i, p := range parts {
			if p[0] != cur {
				t.Fatalf("splitEven(3,17,%d) not contiguous: %v", n, parts)
			}
			cur = p[1]
			if i > 0 && p[1]-p[0] > parts[i-1][1]-parts[i-1][0] {
				t.Fatalf("splitEven(3,17,%d) sizes not descending: %v", n, parts)
			}
		}
		if cur != 17 {
			t.Fatalf("splitEven(3,17,%d) does not cover: %v", n, parts)
		}
	}
	if got := splitEven(0, 2, 5); len(got) != 2 {
		t.Fatalf("splitEven with n > size = %v", got)
	}
}
