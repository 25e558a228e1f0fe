package server

import (
	"encoding/json"
	"strings"
	"testing"

	"greendimm/internal/exp"
)

// fig8Quick is the shard-test workhorse: a real 12-cell matrix sweep
// cheap enough to run many times (quick mode, ~2ms/cell).
func fig8Quick() JobSpec {
	return JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "fig8", Quick: true, Seed: 1}}
}

// TestRangeJobsReassembleFullReport is the server-level decomposition
// check: disjoint range jobs return artifact sets; replaying their
// union into a full run reproduces the uninterrupted report byte for
// byte. This is exactly the contract the cluster's shard merge and the
// store's crash resume both stand on.
func TestRangeJobsReassembleFullReport(t *testing.T) {
	want, err := Execute(fig8Quick(), RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Text == "" {
		t.Fatal("full run rendered no report")
	}

	var arts []exp.CellArtifact
	for _, r := range [][2]int{{0, 5}, {5, 12}} {
		spec := fig8Quick()
		spec.Cells = &CellRangeSpec{Lo: r[0], Hi: r[1]}
		res, err := Execute(spec, RunHooks{})
		if err != nil {
			t.Fatalf("range %v: %v", r, err)
		}
		// Range results are pure artifact payloads: no rendering, no
		// execution accounting — the bytes depend on the spec alone.
		if res.Text != "" || res.SimSeconds != 0 || len(res.Tables) != 0 {
			t.Fatalf("range %v result carries more than artifacts: %+v", r, res)
		}
		if len(res.Cells) != r[1]-r[0] {
			t.Fatalf("range %v returned %d cells", r, len(res.Cells))
		}
		for i := 1; i < len(res.Cells); i++ {
			if res.Cells[i-1].Key >= res.Cells[i].Key {
				t.Fatalf("range %v cells not sorted by key", r)
			}
		}
		arts = append(arts, res.Cells...)
	}

	got, err := Execute(fig8Quick(), RunHooks{Cells: arts})
	if err != nil {
		t.Fatal(err)
	}
	// Text (the full rendering of tables and series) is the byte-identity
	// check; SimSeconds legitimately differs — replayed cells simulate
	// nothing.
	if got.Text != want.Text {
		t.Fatalf("report reassembled from range artifacts diverged:\n%s\nvs\n%s", got.Text, want.Text)
	}
	wb, _ := json.Marshal(want.Tables)
	gb, _ := json.Marshal(got.Tables)
	if string(wb) != string(gb) {
		t.Fatal("tables diverged between full run and artifact replay")
	}
}

// TestRangeResubmissionReturnsJournaledCells: a range job's result is
// the artifacts its run offers to the sink. A resubmission that misses
// the result cache resumes from the journal, whose cells replay through
// the memo and still reach the sink, so it returns the same artifacts
// byte for byte, not an empty set.
func TestRangeResubmissionReturnsJournaledCells(t *testing.T) {
	s, err := Open(Config{Workers: 1, QueueDepth: 4, CacheEntries: 1, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	spec := fig8Quick()
	spec.Cells = &CellRangeSpec{Lo: 0, Hi: 3}
	first := runToSuccess(t, s, spec)
	if len(first.Result.Cells) != 3 {
		t.Fatalf("first run returned %d artifacts, want 3", len(first.Result.Cells))
	}
	// Another job takes the one cache slot, so the resubmission runs.
	runToSuccess(t, s, quickSpec("tab3", 0))
	again := runToSuccess(t, s, spec)
	if again.Cached {
		t.Fatal("resubmission was a cache hit; the other job did not evict it")
	}
	if again.ResumedCells != 3 {
		t.Fatalf("resubmission resumed %d journaled cells, want 3", again.ResumedCells)
	}
	fb, _ := json.Marshal(first.Result.Cells)
	ab, _ := json.Marshal(again.Result.Cells)
	if string(ab) != string(fb) {
		t.Fatalf("resubmission returned\n%s\nfirst run returned\n%s", ab, fb)
	}
}

// TestRangeSpecValidation pins the API-facing range errors.
func TestRangeSpecValidation(t *testing.T) {
	spec := fig8Quick()
	spec.Cells = &CellRangeSpec{Lo: 3, Hi: 3}
	if _, err := Execute(spec, RunHooks{}); err == nil || !strings.Contains(err.Error(), "0 <= lo < hi") {
		t.Fatalf("empty range: %v", err)
	}
	spec = JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "hwcost"}, Cells: &CellRangeSpec{Lo: 0, Hi: 1}}
	if _, err := Execute(spec, RunHooks{}); err == nil || !strings.Contains(err.Error(), "does not support cell ranges") {
		t.Fatalf("non-shardable experiment accepted a range: %v", err)
	}
	if n, err := CellCount(fig8Quick()); err != nil || n != 12 {
		t.Fatalf("CellCount = %d, %v", n, err)
	}
	if _, err := CellCount(JobSpec{Kind: KindVMServer, VMServer: &exp.VMScenario{Hours: 0.01}}); err == nil {
		t.Fatal("CellCount accepted a vmserver spec")
	}
}

// TestSortCells pins canonicalization: sorted, same-bytes duplicates
// collapse, conflicting duplicates are an error (a broken determinism
// invariant must surface, not resolve by picking a winner).
func TestSortCells(t *testing.T) {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	out, err := sortCells([]exp.CellArtifact{
		{Key: "b", Value: raw(`2`)},
		{Key: "a", Value: raw(`1`)},
		{Key: "b", Value: raw(`2`)},
	})
	if err != nil || len(out) != 2 || out[0].Key != "a" || out[1].Key != "b" {
		t.Fatalf("sortCells = %v, %v", out, err)
	}
	if _, err := sortCells([]exp.CellArtifact{
		{Key: "a", Value: raw(`1`)},
		{Key: "a", Value: raw(`2`)},
	}); err == nil {
		t.Fatal("conflicting duplicate keys did not error")
	}
}
