package exp

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
)

// artifactLog collects a run's CellSink calls. A parallel sweep calls
// the sink from concurrent cells, so appends are locked.
type artifactLog struct {
	mu   sync.Mutex
	arts []CellArtifact
}

func (l *artifactLog) sink(a CellArtifact) {
	l.mu.Lock()
	l.arts = append(l.arts, a.Compact())
	l.mu.Unlock()
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

// TestRangeArtifactsReplay is the decomposition soundness check at the
// exp layer: two disjoint ranges produce artifacts; replaying them into
// a full run must yield a report byte-identical to an untouched full
// run — and the replayed run must not re-offer replayed cells to the
// sink.
func TestRangeArtifactsReplay(t *testing.T) {
	fn := Registry()["fig8"]
	base := Options{Quick: true, Seed: 1}

	var sunk artifactLog
	for _, r := range [][2]int{{0, 7}, {7, 12}} {
		o := base
		o.CellRange = &CellRange{Lo: r[0], Hi: r[1]}
		o.CellSink = sunk.sink
		var rd *RangeDone
		if _, _, err := fn(o); !errors.As(err, &rd) {
			t.Fatalf("range %v: %v", r, err)
		}
	}
	if len(sunk.arts) != 12 {
		t.Fatalf("collected %d artifacts from 12 cells", len(sunk.arts))
	}

	plain, _, err := fn(base)
	if err != nil {
		t.Fatal(err)
	}
	var replayed artifactLog
	o := base
	o.CellSource = NewCellSet(sunk.arts)
	o.CellSink = replayed.sink
	fromCells, _, err := fn(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.arts) != 0 {
		t.Fatalf("replayed run re-offered %d cells to the sink", len(replayed.arts))
	}
	pb, _ := json.Marshal(plain)
	rb, _ := json.Marshal(fromCells)
	if string(pb) != string(rb) {
		t.Fatalf("replayed report diverged from computed report:\n%s\nvs\n%s", rb, pb)
	}
}

// TestCellRoundTrip pins the verify-on-both-ends contract of
// encodeCell/cellFromSet.
func TestCellRoundTrip(t *testing.T) {
	type cell struct {
		V int     `json:"v"`
		F float64 `json:"f"`
	}
	raw, ok := encodeCell(cell{V: 3, F: 1.5})
	if !ok {
		t.Fatal("encodeCell rejected a clean value")
	}
	set := NewCellSet([]CellArtifact{{Key: "k", Value: raw}})
	got, ok := cellFromSet[cell](set, "k")
	if !ok || got != (cell{V: 3, F: 1.5}) {
		t.Fatalf("round trip = %+v, %v", got, ok)
	}
	// Corruption modes all read as a miss, never as a wrong value:
	for name, val := range map[string]string{
		"unknown field": `{"v":3,"f":1.5,"junk":1}`,
		"truncated":     `{"v":3`,
		"lossy":         `{"v":3,"f":1.50}`, // re-marshals to different bytes
		"wrong shape":   `[3]`,
	} {
		s := NewCellSet([]CellArtifact{{Key: "k", Value: json.RawMessage(val)}})
		if _, ok := cellFromSet[cell](s, "k"); ok {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}
	if _, ok := cellFromSet[cell](nil, "k"); ok {
		t.Error("nil set returned a hit")
	}
	// Values that cannot marshal at all yield no artifact.
	if _, ok := encodeCell(math.NaN()); ok {
		t.Error("encodeCell accepted an unmarshalable value")
	}
}
