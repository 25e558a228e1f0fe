package core

import (
	"encoding/json"
	"math"
	"testing"

	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

func TestPolicySpecNormalization(t *testing.T) {
	// The zero spec is the paper's production policy.
	norm, err := PolicySpec{}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Name != PolicyFreeFirst || norm.Tracker != "" || norm.Params != nil {
		t.Errorf("zero spec normalized to %+v, want bare free-first", norm)
	}

	// Tracker-driven policies fill their default tracker and every param.
	norm, err = PolicySpec{Name: PolicyAgeThreshold}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Tracker != TrackerIdleAge {
		t.Errorf("tracker = %q, want default idle-age", norm.Tracker)
	}
	if norm.Params["min_idle_s"] != 5 {
		t.Errorf("params = %v, want min_idle_s default 5", norm.Params)
	}
	// Normalization is idempotent.
	again, err := norm.Normalized()
	if err != nil || again.Fingerprint() != norm.Fingerprint() {
		t.Errorf("not idempotent: %v, %s vs %s", err, again.Fingerprint(), norm.Fingerprint())
	}
	// A tracker's own params join the schema.
	norm, err = PolicySpec{Name: PolicyHeatTier}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Params["tiers"] != 4 || norm.Params["halflife_s"] != 10 {
		t.Errorf("heat-tier params = %v, want tiers=4 halflife_s=10", norm.Params)
	}

	bad := []PolicySpec{
		{Name: "bogus"},
		{Tracker: TrackerIdleAge},                                                                    // tracker without a name
		{Name: PolicyFreeFirst, Tracker: TrackerIdleAge},                                             // trackerless policy + tracker
		{Name: PolicyRandom, Params: map[string]float64{"x": 1}},                                     // trackerless policy + params
		{Name: PolicyAgeThreshold, Tracker: "bogus"},                                                 // unknown tracker
		{Name: PolicyAgeThreshold, Params: map[string]float64{"nope": 1}},                            // unknown param
		{Name: PolicyHeatTier, Params: map[string]float64{"tiers": 1000}},                            // out of range
		{Name: PolicyHysteresis, Params: map[string]float64{"hold_s": -1}},                           // below min
		{Name: PolicyHeatTier, Tracker: TrackerIdleAge, Params: map[string]float64{"halflife_s": 3}}, // param of the non-selected tracker
	}
	for _, s := range bad {
		if _, err := s.Normalized(); err == nil {
			t.Errorf("spec %+v normalized without error", s)
		}
	}
}

func TestPolicySpecJSONForms(t *testing.T) {
	// Canonical legacy specs marshal to the pre-pipeline bare string.
	b, err := json.Marshal(PolicySpec{Name: PolicyRemovableFirst})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"removable-first"` {
		t.Errorf("legacy spec marshaled to %s, want bare string", b)
	}
	// Tracker-backed specs marshal to the object form and round-trip.
	spec, err := PolicySpec{Name: PolicyAgeThreshold}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err = json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != '{' {
		t.Errorf("tracker-backed spec marshaled to %s, want an object", b)
	}
	var back PolicySpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != spec.Fingerprint() {
		t.Errorf("round trip changed the spec: %s vs %s", back.Fingerprint(), spec.Fingerprint())
	}
	// Both wire forms parse.
	if err := json.Unmarshal([]byte(`"random"`), &back); err != nil || back.Name != PolicyRandom {
		t.Errorf("bare string form: %v, %+v", err, back)
	}
	// Unknown object keys are spec errors, not silent defaults.
	if err := json.Unmarshal([]byte(`{"name":"random","oops":1}`), &back); err == nil {
		t.Error("unknown policy object key accepted")
	}
}

func TestTrackerIdleAge(t *testing.T) {
	tr := newIdleAgeTracker(4, 2*sim.Second)
	// Unobserved blocks age from construction.
	if got := tr.IdleAge(0, 10*sim.Second); got != 8*sim.Second {
		t.Errorf("unobserved idle age = %v, want 8s", got)
	}
	tr.Observe(0, 9*sim.Second)
	if got := tr.IdleAge(0, 10*sim.Second); got != 1*sim.Second {
		t.Errorf("idle age after observe = %v, want 1s", got)
	}
	// Ages never go negative, and heat falls with age.
	if got := tr.IdleAge(0, 8*sim.Second); got != 0 {
		t.Errorf("negative age not clamped: %v", got)
	}
	if h0, h1 := tr.Heat(0, 10*sim.Second), tr.Heat(1, 10*sim.Second); h0 <= h1 {
		t.Errorf("recently-touched heat %v not above idle heat %v", h0, h1)
	}
	// Out-of-range observes are ignored, not panics (taps cover the whole
	// machine; trackers only the managed blocks).
	tr.Observe(-1, sim.Second)
	tr.Observe(99, sim.Second)
}

func TestTrackerAccessCountDecay(t *testing.T) {
	tr := newAccessCountTracker(2, 0, 10) // 10s half-life
	tr.Observe(0, 0)
	tr.Observe(0, 0)
	if got := tr.Heat(0, 0); got != 2 {
		t.Fatalf("heat after two observes = %v, want 2", got)
	}
	// One half-life on: half the count. Reads must not mutate state, so a
	// second read at the same instant sees the same value.
	if got := tr.Heat(0, 10*sim.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("heat after one half-life = %v, want 1", got)
	}
	if got := tr.Heat(0, 10*sim.Second); math.Abs(got-1) > 1e-9 {
		t.Errorf("second read diverged: %v (reads must be pure)", got)
	}
	// Observing decays first, then adds one.
	tr.Observe(0, 10*sim.Second)
	if got := tr.Heat(0, 10*sim.Second); math.Abs(got-2) > 1e-9 {
		t.Errorf("heat after decayed observe = %v, want 2", got)
	}
	// IdleAge tracks the last touch, independent of the decayed count.
	if got := tr.IdleAge(0, 25*sim.Second); got != 15*sim.Second {
		t.Errorf("idle age = %v, want 15s", got)
	}
	if got := tr.IdleAge(1, 25*sim.Second); got != 25*sim.Second {
		t.Errorf("untouched idle age = %v, want 25s", got)
	}
}

// pipelineView builds a SelectView over a fresh 1GB machine (32 fully
// free 32MB blocks) for direct policy unit tests.
func pipelineView(t *testing.T) (*SelectView, *kernel.Mem) {
	t.Helper()
	mem, err := kernel.New(kernel.Config{TotalBytes: 1 << 30, PageBytes: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: 32 * oneMB})
	if err != nil {
		t.Fatal(err)
	}
	return &SelectView{First: 0, Last: hp.Blocks(), Attempted: make([]bool, hp.Blocks()), HP: hp}, mem
}

func TestAgeThresholdPicksOldestIdle(t *testing.T) {
	v, _ := pipelineView(t)
	tr := newIdleAgeTracker(32, 0)
	v.Tracker, v.Now = tr, 20*sim.Second
	p := &ageThreshold{minIdle: 5 * sim.Second}

	// All blocks idle 20s: the tie breaks to the highest index, matching
	// free-first's address bias.
	if got := p.PickVictim(v); got != 31 {
		t.Errorf("all-idle pick = %d, want 31", got)
	}
	// Only block 3 stays idle past the threshold.
	for i := 0; i < 32; i++ {
		if i != 3 {
			tr.Observe(i, 18*sim.Second)
		}
	}
	if got := p.PickVictim(v); got != 3 {
		t.Errorf("pick = %d, want the only old block 3", got)
	}
	// Nothing clears min_idle_s: no victim, rather than a young one.
	tr.Observe(3, 19*sim.Second)
	if got := p.PickVictim(v); got != -1 {
		t.Errorf("pick = %d, want -1 under the idle gate", got)
	}
}

func TestHeatTierPicksColdestBottomTier(t *testing.T) {
	v, _ := pipelineView(t)
	tr := newAccessCountTracker(32, 0, 10)
	v.Tracker, v.Now = tr, sim.Second
	p := &heatTier{tiers: 4}

	// Block 5 is hot (8 accesses), block 9 lukewarm (3), the rest cold.
	for i := 0; i < 8; i++ {
		tr.Observe(5, sim.Second)
	}
	for i := 0; i < 3; i++ {
		tr.Observe(9, sim.Second)
	}
	// Bottom tier is heat <= 8/4 = 2: all zero-heat blocks qualify, the
	// lukewarm block does not, and ties break to the highest index.
	if got := p.PickVictim(v); got != 31 {
		t.Errorf("pick = %d, want coldest highest-index 31", got)
	}
	v.Attempted[31] = true
	if got := p.PickVictim(v); got != 30 {
		t.Errorf("pick after attempt = %d, want 30", got)
	}
}

func TestHysteresisVeto(t *testing.T) {
	p := &hysteresis{hold: 10 * sim.Second}
	v := &SelectView{
		Now:        15 * sim.Second,
		OfflinedAt: []sim.Time{0, 8 * sim.Second, 14 * sim.Second},
	}
	if p.KeepOffline(v, 0) {
		t.Error("block off-lined 15s ago still held down (hold 10s)")
	}
	if !p.KeepOffline(v, 1) || !p.KeepOffline(v, 2) {
		t.Error("fresh off-linings not held down")
	}
}

func TestHysteresisPressureOverride(t *testing.T) {
	// Even a unanimous veto (hold_s far above the run length) must not
	// stop on-lining under memory pressure.
	r := newRig(t, Config{
		Period: 100 * sim.Millisecond, MaxOfflinePerTick: 32,
		Policy: PolicySpec{Name: PolicyHysteresis, Params: map[string]float64{"hold_s": 1e6}},
	}, kernel.Config{})
	if _, err := r.mem.AllocPages(200*oneMB/pageSize, true, 5); err != nil {
		t.Fatal(err)
	}
	r.d.Start()
	r.eng.RunUntil(2 * sim.Second)
	offlined := r.d.OfflinedBlocks()
	if offlined == 0 {
		t.Fatal("setup: nothing off-lined")
	}
	if _, err := r.mem.AllocPages(80*oneMB/pageSize, true, 6); err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(r.eng.Now() + 2*sim.Second)
	if got := r.d.OfflinedBlocks(); got >= offlined {
		t.Errorf("pressure did not override the veto: %d -> %d off-lined blocks", offlined, got)
	}
}

func TestProactiveOfflinesUsedBlocks(t *testing.T) {
	v, mem := pipelineView(t)
	tr := newIdleAgeTracker(32, 0)
	v.Tracker, v.Now = tr, 20*sim.Second
	p := &proactiveOffline{minIdle: 2 * sim.Second}

	// Ages tie everywhere: fewest used pages wins, then the highest index
	// — with the low blocks holding pages, that is the top free block.
	if got := p.PickVictim(v); got != 31 {
		t.Errorf("pick = %d, want 31", got)
	}
	// Touch every free block recently; only the used low blocks stay
	// eligible. proactive picks among them (free-first never would).
	for i := 7; i < 32; i++ {
		tr.Observe(i, 19*sim.Second)
	}
	if _, err := mem.AllocPages(200*oneMB/pageSize, true, 5); err != nil {
		t.Fatal(err)
	}
	if got := p.PickVictim(v); got < 0 || got > 6 {
		t.Errorf("pick = %d, want an idle in-use block in [0, 6]", got)
	}
}

// TestDaemonTickAllocFree asserts the daemon tick hot path's
// zero-allocation contract for every registered policy: the steady-state
// tick, a full victim-selection scan, and the on-lining veto all run
// without allocating once scratch state is warm. This is the gate that
// keeps the pipeline redesign from taxing the million-tick runs.
func TestDaemonTickAllocFree(t *testing.T) {
	for _, d := range policyDefs {
		spec := PolicySpec{Name: d.info.Name}
		t.Run(spec.Name, func(t *testing.T) {
			r := newRig(t, Config{
				Period: 100 * sim.Millisecond, MaxOfflinePerTick: 32, Policy: spec,
			}, kernel.Config{})
			if _, err := r.mem.AllocPages(200*oneMB/pageSize, true, 5); err != nil {
				t.Fatal(err)
			}
			r.d.Start()
			// Long enough for the slowest idle gate (age-threshold's 5s)
			// to open and the daemon to settle inside the threshold band.
			r.eng.RunUntil(20 * sim.Second)
			r.d.Stop()

			if got := testing.AllocsPerRun(100, func() { r.d.Tick() }); got != 0 {
				t.Errorf("steady-state tick allocates %.1f times", got)
			}
			clear(r.d.sel.attempted)
			r.d.selectBlock(r.d.sel.attempted) // warm the policy's scratch
			if got := testing.AllocsPerRun(100, func() {
				r.d.selectBlock(r.d.sel.attempted)
			}); got != 0 {
				t.Errorf("victim selection allocates %.1f times", got)
			}
			if got := testing.AllocsPerRun(100, func() { r.d.keepOffline(0) }); got != 0 {
				t.Errorf("on-lining veto allocates %.1f times", got)
			}
		})
	}
}

// TestDaemonTickLoopSteadyStateAllocs drives the engine itself across
// steady-state monitor periods, so the timer that re-arms each tick is
// measured along with Tick: 100 periods per run must not allocate once.
func TestDaemonTickLoopSteadyStateAllocs(t *testing.T) {
	for _, d := range policyDefs {
		spec := PolicySpec{Name: d.info.Name}
		t.Run(spec.Name, func(t *testing.T) {
			const period = 100 * sim.Millisecond
			r := newRig(t, Config{Period: period, MaxOfflinePerTick: 32, Policy: spec}, kernel.Config{})
			if _, err := r.mem.AllocPages(200*oneMB/pageSize, true, 5); err != nil {
				t.Fatal(err)
			}
			r.d.Start()
			r.eng.RunUntil(20 * sim.Second)
			ticks := r.d.Stats().Ticks
			if got := testing.AllocsPerRun(1, func() {
				r.eng.RunUntil(r.eng.Now() + 100*period)
			}); got != 0 {
				t.Errorf("100 monitor periods allocate %.0f times", got)
			}
			if n := r.d.Stats().Ticks - ticks; n < 200 {
				t.Fatalf("ran %d ticks, want 100 per run (warm-up and measured)", n)
			}
		})
	}
}
