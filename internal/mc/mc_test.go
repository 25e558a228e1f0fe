package mc

import (
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/power"
	"greendimm/internal/sim"
)

func newTestController(t *testing.T, interleaved, lowPower bool) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:         dram.Org64GB(),
		Timing:      dram.DDR4_2133(),
		Interleaved: interleaved,
		LowPower:    lowPower,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestSingleReadLatency(t *testing.T) {
	eng, c := newTestController(t, true, false)
	var lat sim.Time = -1
	if err := c.Submit(0, false, func(l sim.Time) { lat = l }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Cold read: tRCD + tCL + tBL = 15+15+4 cycles of 938ps ~= 31.9ns.
	want := dram.DDR4_2133().TRCD + dram.DDR4_2133().TCL + dram.DDR4_2133().TBL
	if lat != want {
		t.Errorf("cold read latency = %v, want %v", lat, want)
	}
	st := c.Stats()
	if st.Reads != 1 || st.RowMisses != 1 || st.Activations != 1 {
		t.Errorf("stats = %+v, want 1 read / 1 miss / 1 act", st)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	tm := dram.DDR4_2133()
	// Same bank, same row (hit) vs same bank different row (conflict).
	eng, c := newTestController(t, false, false)
	var latHit, latConf sim.Time
	// Contiguous mapping: consecutive addresses in one row; +rowSize*banks
	// stays same bank different row. One row spans Columns/BL lines of
	// 64B = 8KB per bank... easier: same line twice = hit.
	if err := c.Submit(0, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(64, false, func(l sim.Time) { latHit = l }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	st := c.Stats()
	if st.RowHits != 1 {
		t.Fatalf("expected 1 row hit, got %+v", st)
	}

	eng2, c2 := newTestController(t, false, false)
	rowBytes := uint64(8 << 10) // 1024 cols x 64 bits / 8 = 8KB per rank-row... per bank row span in contiguous map: cols*64B = 8KB
	if err := c2.Submit(0, false, nil); err != nil {
		t.Fatal(err)
	}
	// Different row, same bank: in contiguous map row bits sit above
	// bank+bankgroup bits; jump by rowSpan*banks.
	confAddr := rowBytes * 16
	if err := c2.Submit(confAddr, false, func(l sim.Time) { latConf = l }); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	if c2.Stats().RowConflicts != 1 {
		t.Fatalf("expected 1 conflict, got %+v", c2.Stats())
	}
	if latHit >= latConf {
		t.Errorf("row hit latency %v not faster than conflict %v", latHit, latConf)
	}
	if latConf < tm.TRP+tm.TRCD+tm.TCL {
		t.Errorf("conflict latency %v too fast", latConf)
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	// N requests to N different banks should finish far sooner than N
	// requests to conflicting rows of one bank.
	tm := dram.DDR4_2133()
	run := func(addrs []uint64) sim.Time {
		eng, c := newTestController(t, false, false)
		var last sim.Time
		for _, a := range addrs {
			if err := c.Submit(a, false, func(l sim.Time) {
				if end := eng.Now(); end > last {
					last = end
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		return last
	}
	rowBytes := uint64(8 << 10)
	var parallel, serial []uint64
	for i := 0; i < 8; i++ {
		parallel = append(parallel, uint64(i)*rowBytes) // different banks
		serial = append(serial, uint64(i)*rowBytes*16)  // same bank, different rows
	}
	tp, ts := run(parallel), run(serial)
	if tp >= ts {
		t.Errorf("bank-parallel %v not faster than serial %v", tp, ts)
	}
	if ts < 7*tm.TRC {
		t.Errorf("serial conflicts %v faster than 7 x tRC; timing not enforced", ts)
	}
}

func TestInterleavingImprovesThroughput(t *testing.T) {
	// A sequential stream through interleaved mapping spreads over 4
	// channels and finishes ~4x faster than through contiguous mapping
	// (paper Fig. 3a mechanism).
	run := func(interleaved bool) sim.Time {
		eng, c := newTestController(t, interleaved, false)
		const n = 512
		next := uint64(0)
		var submit func()
		inFlight := 0
		issued := 0
		submit = func() {
			for inFlight < 32 && issued < n {
				a := next
				next += 64
				if err := c.Submit(a, false, func(sim.Time) {
					inFlight--
					submit()
				}); err != nil {
					t.Fatal(err)
				}
				inFlight++
				issued++
			}
		}
		eng.At(0, submit)
		eng.Run()
		return eng.Now()
	}
	ti, tc := run(true), run(false)
	speedup := float64(tc) / float64(ti)
	if speedup < 2.5 {
		t.Errorf("interleaving speedup = %.2fx, want > 2.5x", speedup)
	}
}

func TestLowPowerDescent(t *testing.T) {
	// With low-power enabled and no traffic, ranks descend to
	// self-refresh and residency reflects it.
	eng, c := newTestController(t, true, true)
	if err := c.Submit(0, false, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Millisecond)
	c.Finalize()
	if f := c.SelfRefreshFraction(); f < 0.95 {
		t.Errorf("self-refresh fraction after long idle = %.3f, want > 0.95", f)
	}
}

// TestResidencyFractionsRequireFinalize pins that the residency readers,
// like Activity, refuse to run before Finalize: until then an idle
// descent's steps are written only when the rank is next read. After
// 100 us with no traffic every rank spent 1 us in standby, 63 us in
// power-down and 36 us in self-refresh.
func TestResidencyFractionsRequireFinalize(t *testing.T) {
	eng, c := newTestController(t, true, true)
	eng.RunUntil(100 * sim.Microsecond)
	for name, read := range map[string]func() float64{
		"SelfRefreshFraction": c.SelfRefreshFraction,
		"LowPowerFraction":    c.LowPowerFraction,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s before Finalize did not panic", name)
				}
			}()
			read()
		}()
	}
	c.Finalize()
	if got := c.SelfRefreshFraction(); got != 0.36 {
		t.Errorf("SelfRefreshFraction = %v, want 0.36", got)
	}
	if got := c.LowPowerFraction(); got != 0.99 {
		t.Errorf("LowPowerFraction = %v, want 0.99", got)
	}
}

func TestNoLowPowerWithoutPolicy(t *testing.T) {
	eng, c := newTestController(t, true, false)
	if err := c.Submit(0, false, nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Millisecond)
	c.Finalize()
	if f := c.LowPowerFraction(); f != 0 {
		t.Errorf("low-power fraction = %v with policy disabled, want 0", f)
	}
}

func TestInterleavedTrafficPreventsSelfRefresh(t *testing.T) {
	// The paper's central observation (Fig. 3b): a small footprint with
	// steady traffic under interleaving keeps every rank awake.
	eng, c := newTestController(t, true, true)
	footprint := uint64(64 << 20)
	g := sim.NewRNG(42)
	var tick func()
	tick = func() {
		a := (g.Uint64() % footprint) &^ 63
		_ = c.Submit(a, false, nil)
		// One request every 500ns, uniform over the footprint: each of
		// the 16 ranks sees a request every ~8us on average, far inside
		// the 64us self-refresh timeout -- the interleaved-traffic regime
		// the paper describes.
		if eng.Now() < 20*sim.Millisecond {
			eng.After(500*sim.Nanosecond, tick)
		}
	}
	eng.At(0, tick)
	eng.Run()
	c.Finalize()
	if f := c.SelfRefreshFraction(); f > 0.05 {
		t.Errorf("self-refresh fraction = %.3f under interleaved traffic, want ~0", f)
	}
}

func TestContiguousTrafficLetsOtherRanksSleep(t *testing.T) {
	// Same traffic without interleaving: 15 of 16 ranks idle -> high
	// self-refresh residency (paper Fig. 3b "w/o interleaving": ~54%).
	eng, c := newTestController(t, false, true)
	footprint := uint64(64 << 20)
	g := sim.NewRNG(42)
	var tick func()
	tick = func() {
		a := (g.Uint64() % footprint) &^ 63
		_ = c.Submit(a, false, nil)
		if eng.Now() < 20*sim.Millisecond {
			eng.After(500*sim.Nanosecond, tick)
		}
	}
	eng.At(0, tick)
	eng.Run()
	c.Finalize()
	if f := c.SelfRefreshFraction(); f < 0.80 {
		t.Errorf("self-refresh fraction = %.3f, want > 0.80 (15/16 ranks idle)", f)
	}
}

func TestWakeUpPenaltyApplied(t *testing.T) {
	tm := dram.DDR4_2133()
	eng, c := newTestController(t, true, true)
	var first, second sim.Time
	if err := c.Submit(0, false, func(l sim.Time) { first = l }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Let every rank fall into self-refresh, then access again.
	eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	if err := c.Submit(0, false, func(l sim.Time) { second = l }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	c.Finalize()
	if second < first+tm.TXS {
		t.Errorf("post-sleep latency %v < cold latency %v + tXS %v", second, first, tm.TXS)
	}
	if c.Stats().WakeUps == 0 {
		t.Error("no wakeups recorded")
	}
}

func TestRefreshesCounted(t *testing.T) {
	eng, c := newTestController(t, true, false)
	eng.RunUntil(sim.Time(100) * dram.DDR4_2133().TREFI)
	c.Finalize()
	// 16 ranks x ~100 tREFI intervals.
	want := int64(16 * 100)
	got := c.Stats().Refreshes
	if got < want*9/10 || got > want*11/10 {
		t.Errorf("refreshes = %d, want ~%d", got, want)
	}
}

func TestSelfRefreshSuppressesREF(t *testing.T) {
	// Ranks in self-refresh must not receive controller REF commands.
	eng, c := newTestController(t, true, true)
	eng.RunUntil(100 * sim.Millisecond)
	c.Finalize()
	// All ranks asleep almost immediately: far fewer REFs than nominal.
	nominal := int64(16 * (100 * sim.Millisecond / dram.DDR4_2133().TREFI))
	if got := c.Stats().Refreshes; got > nominal/10 {
		t.Errorf("refreshes = %d with all ranks in self-refresh, want < %d", got, nominal/10)
	}
}

func TestActivityCoversWindow(t *testing.T) {
	eng, c := newTestController(t, true, true)
	for i := 0; i < 100; i++ {
		if err := c.Submit(uint64(i*64), i%3 == 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(5 * sim.Millisecond)
	c.Finalize()
	a := c.Activity()
	m, err := power.NewModel(dram.Org64GB())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FromActivity(a); err != nil {
		t.Errorf("activity rejected by power model: %v", err)
	}
	if a.Reads == 0 || a.Writes == 0 {
		t.Error("reads/writes not recorded")
	}
	st := c.Stats()
	if a.Activations != st.Activations || a.Reads != st.Reads || a.Writes != st.Writes || a.Refreshes != st.Refreshes {
		t.Errorf("Activity counters (ACT %d, RD %d, WR %d, REF %d) differ from Stats (%d, %d, %d, %d)",
			a.Activations, a.Reads, a.Writes, a.Refreshes, st.Activations, st.Reads, st.Writes, st.Refreshes)
	}
}

func TestDPDSubmitPanics(t *testing.T) {
	eng, c := newTestController(t, true, false)
	if err := c.EnterGroupDPD(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("submit to deep-powered-down group did not panic")
		}
	}()
	_ = c.Submit(0, false, nil) // group 0 covers the first 1GB
	eng.Run()
}

func TestDPDExitHandshake(t *testing.T) {
	eng, c := newTestController(t, true, false)
	if err := c.EnterGroupDPD(3); err != nil {
		t.Fatal(err)
	}
	if !c.GroupRegister().Down(3) {
		t.Fatal("group 3 not down")
	}
	var readyAt sim.Time = -1
	if err := c.ExitGroupDPD(3, func() { readyAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	start := eng.Now()
	eng.Run()
	if readyAt != start+dram.DDR4_2133().TDPDX {
		t.Errorf("ready at %v, want start+tDPDX = %v", readyAt, start+dram.DDR4_2133().TDPDX)
	}
	if !c.GroupRegister().Ready(3) {
		t.Error("group 3 not ready after exit")
	}
}

func TestDPDFractionTimeWeighted(t *testing.T) {
	eng, c := newTestController(t, true, false)
	// Half the groups down for the full window -> average 0.5.
	for g := 0; g < 32; g++ {
		if err := c.EnterGroupDPD(g); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(sim.Second)
	c.Finalize()
	a := c.Activity()
	if a.DPDFrac < 0.49 || a.DPDFrac > 0.51 {
		t.Errorf("DPDFrac = %v, want ~0.5", a.DPDFrac)
	}
}

func TestQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org: dram.Org64GB(), Timing: dram.DDR4_2133(), Interleaved: false, MaxQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	filled := 0
	for i := 0; i < 10; i++ {
		err := c.Submit(uint64(i)*64*4, false, nil) // same channel (contiguous map)
		if err == nil {
			filled++
		} else if err != ErrQueueFull {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if filled != 4 {
		t.Errorf("accepted %d requests with queue of 4", filled)
	}
	eng.Run()
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Org: dram.Org{}, Timing: dram.DDR4_2133()}); err == nil {
		t.Error("invalid org accepted")
	}
	bad := Config{Org: dram.Org64GB(), Timing: dram.DDR4_2133(),
		PowerDownAfter: sim.Millisecond, SelfRefreshAfter: sim.Microsecond}
	if _, err := New(eng, bad); err == nil {
		t.Error("inverted timeouts accepted")
	}
	cfgBadTiming := Config{Org: dram.Org64GB(), Timing: dram.Timing{}}
	if _, err := New(eng, cfgBadTiming); err == nil {
		t.Error("zero timing accepted")
	}
}

func TestSubmitOutOfRange(t *testing.T) {
	_, c := newTestController(t, true, false)
	if err := c.Submit(1<<40, false, nil); err == nil {
		t.Error("out-of-range address accepted")
	}
}

func TestReadLatencyDistributionPopulated(t *testing.T) {
	eng, c := newTestController(t, true, false)
	for i := 0; i < 200; i++ {
		if err := c.Submit(uint64(i)*64, false, nil); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 100*sim.Nanosecond)
	}
	eng.Run()
	c.Finalize()
	d := &c.Stats().ReadLatency
	if d.N() != 200 {
		t.Fatalf("latency samples = %d, want 200", d.N())
	}
	if d.Mean() <= 0 || d.Percentile(99) < d.Mean() {
		t.Errorf("latency stats implausible: mean=%v p99=%v", d.Mean(), d.Percentile(99))
	}
}
