package exp

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"greendimm/internal/sweep"
)

// artifactLog collects a run's CellSink calls. A parallel sweep calls
// the sink from concurrent cells, so appends are locked.
type artifactLog struct {
	mu   sync.Mutex
	arts []CellArtifact
}

func (l *artifactLog) sink(a CellArtifact) {
	l.mu.Lock()
	l.arts = append(l.arts, a)
	l.mu.Unlock()
}

// sorted returns the collected artifacts sorted by key.
func (l *artifactLog) sorted() []CellArtifact {
	out := append([]CellArtifact(nil), l.arts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// replayMemo imports artifacts into a fresh memo through MemoCodec, the
// way a resumed or merged job replays them, and checks that every one
// verified.
func replayMemo(t *testing.T, arts []CellArtifact) *sweep.Memo {
	t.Helper()
	m := sweep.NewMemo(0)
	m.SetCodec(MemoCodec())
	if n := m.Import(arts); n != len(arts) {
		t.Fatalf("memo imported %d of %d artifacts", n, len(arts))
	}
	return m
}

// checkReplay runs fn with the artifacts replayed through an imported
// memo: it must compute no cell, offer every replayed cell to the sink
// with its artifact's bytes, and render the plain run's report.
func checkReplay(t *testing.T, fn Runner, base Options, arts []CellArtifact) {
	t.Helper()
	plain, _, err := fn(base)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Memo = replayMemo(t, arts)
	var replayed artifactLog
	o.CellSink = replayed.sink
	fromCells, _, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Memo.Computes(); n != 0 {
		t.Fatalf("replayed run computed %d cells, want 0", n)
	}
	want := append([]CellArtifact(nil), arts...)
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	if got := replayed.sorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed run offered %d artifacts to the sink, want the %d replayed", len(got), len(want))
	}
	pb, _ := json.Marshal(plain)
	rb, _ := json.Marshal(fromCells)
	if string(pb) != string(rb) {
		t.Fatalf("replayed report diverged from computed report:\n%s\nvs\n%s", rb, pb)
	}
}

// TestCellCount probes sweep sizes without simulating: fig8's (workload
// x policy) matrix is 12 cells, and the probe must return before any
// cell runs — microseconds, not the sweep's full cost.
func TestCellCount(t *testing.T) {
	n, err := CellCount("fig8", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("CellCount(fig8): %v", err)
	}
	if n != 12 {
		t.Fatalf("fig8 cell count = %d, want 12", n)
	}
	// Every whitelisted experiment must honor the probe — a shardable id
	// whose body stopped flowing through sweepCells would break shard
	// execution silently.
	for _, id := range ShardableExperiments() {
		if n, err := CellCount(id, Options{Quick: true, Seed: 1}); err != nil || n < 2 {
			t.Errorf("CellCount(%s) = %d, %v; every shardable experiment needs a probe-able sweep", id, n, err)
		}
	}
	if _, err := CellCount("nope", Options{}); err == nil {
		t.Fatal("CellCount accepted an unknown experiment")
	}
	// hwcost has no sweep: the probe range is ignored and CellCount must
	// say so rather than return a bogus count.
	if _, err := CellCount("hwcost", Options{Quick: true}); err == nil || !strings.Contains(err.Error(), "not shardable") {
		t.Fatalf("CellCount(hwcost) = %v, want a not-shardable error", err)
	}
}

// TestSweepRangeValidation exercises the range guard rails directly on
// a registry runner.
func TestSweepRangeValidation(t *testing.T) {
	fn := Registry()["fig8"]
	// Out of bounds: [0, 99) on a 12-cell sweep.
	_, _, err := fn(Options{Quick: true, Seed: 1, CellRange: &CellRange{Lo: 0, Hi: 99}})
	var rd *RangeDone
	if err == nil || errors.As(err, &rd) {
		t.Fatalf("out-of-bounds range: err = %v, want a validation error", err)
	}
	// A valid sub-range completes with the sentinel carrying the total.
	_, _, err = fn(Options{Quick: true, Seed: 1, CellRange: &CellRange{Lo: 10, Hi: 12}})
	if !errors.As(err, &rd) || rd.Total != 12 {
		t.Fatalf("valid range: err = %v, want RangeDone{Total: 12}", err)
	}
}

// TestRangeArtifactsReplay is the decomposition soundness check the
// shard merge relies on, for every distinct shardable run at quick
// scale: CellCount is the total the run's Progress hook reports; the
// artifacts of two disjoint ranges, replayed through a memo into a full
// run, compute nothing, reach the sink with their bytes, and yield a
// report byte-identical to an untouched full run. Under -short (the
// race pass) it keeps the runs whose cells are cheapest.
func TestRangeArtifactsReplay(t *testing.T) {
	runs := []string{"fig1", "fig3", "fig6", "fig8", "fig9", "fig12", "fig13", "tab3", "tail", "polgrid"}
	aliases := map[string]string{"fig7": "fig6", "tab2": "fig6", "fig10": "fig9", "fig11": "fig9"}
	for _, id := range ShardableExperiments() {
		run := id
		if a, ok := aliases[id]; ok {
			run = a
		}
		if !slices.Contains(runs, run) {
			t.Errorf("shardable %s is neither a listed run nor an alias of one", id)
		}
	}
	if testing.Short() {
		runs = []string{"fig6", "fig8", "tab3", "polgrid"}
	}
	for _, id := range runs {
		t.Run(id, func(t *testing.T) {
			fn := Registry()[id]
			base := Options{Quick: true, Seed: 1}
			n, err := CellCount(id, base)
			if err != nil {
				t.Fatal(err)
			}
			var sunk artifactLog
			for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
				o := base
				o.CellRange = &CellRange{Lo: r[0], Hi: r[1]}
				o.CellSink = sunk.sink
				var rd *RangeDone
				if _, _, err := fn(o); !errors.As(err, &rd) {
					t.Fatalf("range %v: %v", r, err)
				}
			}
			// Both full runs checkReplay makes report progress; each
			// ends at n of n.
			var done, total int
			full := base
			full.Hooks.Progress = func(d, tot int, _ float64) { done, total = d, tot }
			checkReplay(t, fn, full, sunk.arts)
			if done != n || total != n {
				t.Fatalf("Progress reported %d of %d cells, CellCount %d", done, total, n)
			}
		})
	}
}

// TestCellRoundTrip pins the verify-on-both-ends contract of
// encodeCell/decodeCell.
func TestCellRoundTrip(t *testing.T) {
	type cell struct {
		V int     `json:"v"`
		F float64 `json:"f"`
	}
	raw, ok := encodeCell(cell{V: 3, F: 1.5})
	if !ok {
		t.Fatal("encodeCell rejected a clean value")
	}
	got, ok := decodeCell[cell](raw)
	if !ok || got != (cell{V: 3, F: 1.5}) {
		t.Fatalf("round trip = %+v, %v", got, ok)
	}
	// Corruption modes all read as a miss, never as a wrong value:
	for name, val := range map[string]string{
		"unknown field": `{"v":3,"f":1.5,"junk":1}`,
		"truncated":     `{"v":3`,
		"lossy":         `{"v":3,"f":1.50}`, // re-marshals to different bytes
		"wrong shape":   `[3]`,
		"empty":         ``,
	} {
		if _, ok := decodeCell[cell](json.RawMessage(val)); ok {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}
	// Values that cannot marshal at all yield no artifact.
	if _, ok := encodeCell(math.NaN()); ok {
		t.Error("encodeCell accepted an unmarshalable value")
	}
}
