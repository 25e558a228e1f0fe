package exp

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestPolicyGridShape checks the ablation grid itself: 6 pipelines x 3
// apps in row-major order, every cell populated from a real dynamics
// run, and the four renderers laid out one row per pipeline.
func TestPolicyGridShape(t *testing.T) {
	r, err := RunPolicyGrid(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 3 || len(r.Cells) != 18 {
		t.Fatalf("grid = %d apps x %d cells, want 3 x 18", len(r.Apps), len(r.Cells))
	}
	pols := r.policies()
	if len(pols) != 6 {
		t.Fatalf("distinct policies = %d (%v), want 6", len(pols), pols)
	}
	// The paper baseline leads the grid under its legacy bare fingerprint;
	// tracker-backed pipelines carry their tracker and explicit params.
	if pols[0] != "free-first" {
		t.Fatalf("first policy = %q, want the free-first baseline", pols[0])
	}
	trackerBacked := 0
	for _, p := range pols[1:] {
		if strings.Contains(p, "/") && strings.Contains(p, "{") {
			trackerBacked++
		}
	}
	if trackerBacked != 5 {
		t.Fatalf("tracker-backed fingerprints = %d of %v, want 5", trackerBacked, pols[1:])
	}
	// age-threshold is ablated under both trackers — the tracker axis.
	for _, want := range []string{"age-threshold/idle-age", "age-threshold/access-count"} {
		found := false
		for _, p := range pols {
			if strings.HasPrefix(p, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("grid is missing the %s pipeline", want)
		}
	}

	for i, c := range r.Cells {
		// Row-major (policy, app): app cycles fastest.
		if c.App != r.Apps[i%len(r.Apps)] || c.Policy != pols[i/len(r.Apps)] {
			t.Fatalf("cell %d = (%s, %s), want (%s, %s)", i, c.Policy, c.App,
				pols[i/len(r.Apps)], r.Apps[i%len(r.Apps)])
		}
		if c.OfflinedGB <= 0 || c.OfflinedGB > 4 {
			t.Errorf("cell %d: off-lined %vGB outside (0, movable 4GB]", i, c.OfflinedGB)
		}
		if c.OnOffEvents <= 0 {
			t.Errorf("cell %d (%s, %s): no on/off-lining events; the cell measured nothing", i, c.Policy, c.App)
		}
		// Every pipeline here is informed (none picks blind like Fig. 8's
		// random baseline), so migration failures must stay rare even with
		// failProb 0.9 and kernel-page leaks enabled.
		if c.Failures < 0 {
			t.Errorf("cell %d: negative failure count %d", i, c.Failures)
		}
	}
	// The policy axis has to matter: the idle-age gate makes age-threshold
	// trade off-lined capacity for stability against the greedy free-first
	// baseline on every app.
	for a := range r.Apps {
		free, aged := r.Cells[a], r.Cells[len(r.Apps)+a]
		if aged.OfflinedGB >= free.OfflinedGB {
			t.Errorf("%s: age-threshold off-lined %vGB >= free-first %vGB; the pipeline is not ablating anything",
				r.Apps[a], aged.OfflinedGB, free.OfflinedGB)
		}
	}

	for _, tab := range []*struct {
		name string
		t    interface {
			Rows() int
			Label(int) string
		}
	}{
		{"offlined", r.OfflinedTable()},
		{"failures", r.FailureTable()},
		{"churn", r.ChurnTable()},
		{"overhead", r.OverheadTable()},
	} {
		if tab.t.Rows() != 6 {
			t.Errorf("%s table has %d rows, want 6", tab.name, tab.t.Rows())
		}
		if tab.t.Label(0) != "free-first" {
			t.Errorf("%s table row 0 = %q", tab.name, tab.t.Label(0))
		}
	}
}

// TestPolicyGridDeterminismAcrossParallelism: the grid must be exactly
// reproducible whether its 18 cells run sequentially or race across 8
// sweep workers — the property memoization and shard merging rely on.
func TestPolicyGridDeterminismAcrossParallelism(t *testing.T) {
	base, err := RunPolicyGrid(Options{Quick: true, Seed: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := json.Marshal(base)
	for _, par := range []int{2, 8} {
		got, err := RunPolicyGrid(Options{Quick: true, Seed: 1, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if gb, _ := json.Marshal(got); string(gb) != string(bb) {
			t.Errorf("parallelism %d diverged from sequential:\n%s\nvs\n%s", par, gb, bb)
		}
	}
}

// TestPolicyGridShardCells: polgrid is a first-class Shardable — an
// 18-cell probe, disjoint cell ranges whose artifacts replay through a
// memo into the byte-identical full report, computing nothing and
// offering all 18 cells to the sink, exactly like the paper matrices.
func TestPolicyGridShardCells(t *testing.T) {
	n, err := CellCount("polgrid", Options{Quick: true, Seed: 1})
	if err != nil || n != 18 {
		t.Fatalf("CellCount(polgrid) = %d, %v; want 18", n, err)
	}

	fn := Registry()["polgrid"]
	base := Options{Quick: true, Seed: 1}
	var sunk artifactLog
	for _, rng := range [][2]int{{0, 10}, {10, 18}} {
		o := base
		o.CellRange = &CellRange{Lo: rng[0], Hi: rng[1]}
		o.CellSink = sunk.sink
		var rd *RangeDone
		if _, _, err := fn(o); !errors.As(err, &rd) || rd.Total != 18 {
			t.Fatalf("range %v: err = %v, want RangeDone{Total: 18}", rng, err)
		}
	}
	if len(sunk.arts) != 18 {
		t.Fatalf("collected %d artifacts from 18 cells", len(sunk.arts))
	}

	checkReplay(t, fn, base, sunk.arts)
}
