package mc

import (
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/power"
	"greendimm/internal/sim"
)

// TestFAWLimitsActivates: five row-conflict activates to distinct rows of
// distinct banks in one rank must span at least tFAW.
func TestFAWLimitsActivates(t *testing.T) {
	tm := dram.DDR4_2133()
	eng, c := newTestController(t, false, false)
	// Contiguous map: distinct banks within rank 0 are 8KB apart.
	rowBytes := uint64(8 << 10)
	var last sim.Time
	for i := 0; i < 5; i++ {
		if err := c.Submit(uint64(i)*rowBytes, false, func(sim.Time) {
			last = eng.Now()
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	// The fifth ACT cannot start before tFAW after the first; its data
	// lands at least tFAW + tRCD + tCL into the run.
	if min := tm.TFAW + tm.TRCD + tm.TCL; last < min {
		t.Errorf("five activates completed at %v, before tFAW gate %v", last, min)
	}
}

// TestRefreshBlocksBank: a request arriving while its rank is refreshing
// waits out tRFC.
func TestRefreshBlocksBank(t *testing.T) {
	tm := dram.DDR4_2133()
	eng, c := newTestController(t, false, false)
	// Advance to just after a refresh fires (tREFI).
	eng.RunUntil(tm.TREFI + sim.Nanosecond)
	var lat sim.Time
	if err := c.Submit(0, false, func(l sim.Time) { lat = l }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	cold := tm.TRCD + tm.TCL + tm.TBL
	if lat < cold+tm.TRFC/2 {
		t.Errorf("latency during refresh = %v, want >= cold %v + most of tRFC %v", lat, cold, tm.TRFC)
	}
}

// TestRefreshClosesOpenRows: a REF, and a wake from self-refresh, close
// the row an earlier access left open, so the next access to that row is
// a row miss that pays the activate. With neither in between it hits.
func TestRefreshClosesOpenRows(t *testing.T) {
	tm := dram.DDR4_2133()
	cold := tm.TRCD + tm.TCL + tm.TBL
	cases := []struct {
		name     string
		lowPower bool
		secondAt sim.Time // the first access is at t=0; the first REF at tREFI
		hit      bool
		refs     bool     // REFs issued between the two accesses
		wake     sim.Time // exit penalty the second access pays
	}{
		{"no REF between", false, 2 * sim.Microsecond, true, false, 0},
		{"REF between", false, tm.TREFI + tm.TRFC + sim.Microsecond, false, true, 0},
		// Self-refresh from 1 us of idleness, well before the first REF.
		{"self-refresh exit between", true, 5 * sim.Microsecond, false, false, tm.TXS},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			c, err := New(eng, Config{
				Org: dram.Org64GB(), Timing: tm, LowPower: tc.lowPower,
				PowerDownAfter: 100 * sim.Nanosecond, SelfRefreshAfter: sim.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(0, false, nil); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(tc.secondAt)
			before := c.Stats()
			var lat sim.Time
			if err := c.Submit(0, false, func(l sim.Time) { lat = l }); err != nil {
				t.Fatal(err)
			}
			eng.Run()
			after := c.Stats()
			if got := before.Refreshes > 0; got != tc.refs {
				t.Fatalf("REFs before the second access = %d, want any: %v", before.Refreshes, tc.refs)
			}
			if woke := after.WakeUps - before.WakeUps; (woke > 0) != (tc.wake > 0) {
				t.Fatalf("second access woke the rank %d times, want a wake: %v", woke, tc.wake > 0)
			}
			hits, misses := after.RowHits-before.RowHits, after.RowMisses-before.RowMisses
			if tc.hit {
				if hits != 1 || misses != 0 || lat >= cold {
					t.Errorf("hits +%d, misses +%d, latency %v; want a row hit faster than %v", hits, misses, lat, cold)
				}
			} else if hits != 0 || misses != 1 || lat < tc.wake+cold {
				t.Errorf("hits +%d, misses +%d, latency %v; want a row miss of at least wake %v + tRCD+tCL+tBL %v",
					hits, misses, lat, tc.wake, cold)
			}
		})
	}
}

// TestRefreshCountIndependentOfDPD: refresh energy scaling is the power
// model's job; the controller still issues REF commands to awake ranks,
// and the Activity carries the time-averaged DPD fraction so the model
// can discount them.
func TestRefreshCountIndependentOfDPD(t *testing.T) {
	eng, c := newTestController(t, true, false)
	for g := 32; g < 64; g++ {
		if err := c.EnterGroupDPD(g); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(50 * dram.DDR4_2133().TREFI)
	c.Finalize()
	a := c.Activity()
	if a.Refreshes == 0 {
		t.Error("no refreshes issued")
	}
	if a.DPDFrac < 0.49 || a.DPDFrac > 0.51 {
		t.Errorf("DPDFrac = %v, want 0.5", a.DPDFrac)
	}
	// The power model must accept and discount it.
	m, err := power.NewModel(dram.Org64GB())
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.FromActivity(power.Activity{
		Window: a.Window, StandbyT: a.StandbyT, ActiveT: a.ActiveT,
		PowerDnT: a.PowerDnT, SelfRefT: a.SelfRefT, Refreshes: a.Refreshes,
	})
	if err != nil {
		t.Fatal(err)
	}
	down, err := m.FromActivity(a)
	if err != nil {
		t.Fatal(err)
	}
	if down.RefreshW >= full.RefreshW {
		t.Errorf("refresh power not discounted: %v vs %v", down.RefreshW, full.RefreshW)
	}
	if down.BackgroundW >= full.BackgroundW {
		t.Errorf("background power not discounted: %v vs %v", down.BackgroundW, full.BackgroundW)
	}
}

// TestDPDReentry: groups can cycle down/up/down with consistent register
// state and time-weighted fraction.
func TestDPDReentry(t *testing.T) {
	eng, c := newTestController(t, true, false)
	if err := c.EnterGroupDPD(7); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(250 * sim.Millisecond)
	ready := false
	if err := c.ExitGroupDPD(7, func() { ready = true }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(500 * sim.Millisecond)
	if !ready || !c.GroupRegister().Ready(7) {
		t.Fatal("group did not become ready")
	}
	if err := c.EnterGroupDPD(7); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Second)
	c.Finalize()
	// Down for [0, 250ms) and [500ms, 1s): average 0.75/64.
	got := c.Activity().DPDFrac
	want := 0.75 / 64
	if got < want*0.95 || got > want*1.05 {
		t.Errorf("time-weighted DPDFrac = %v, want ~%v", got, want)
	}
}

// TestAccessesByRank: counters track per-rank submissions.
func TestAccessesByRank(t *testing.T) {
	eng, c := newTestController(t, false, false)
	// Contiguous: rank 1 of channel 0 starts at 4GB.
	for i := 0; i < 7; i++ {
		if err := c.Submit(4<<30+uint64(i)*64, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := c.Submit(uint64(i)*64, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	acc := c.AccessesByRank()
	if acc[0] != 3 || acc[1] != 7 {
		t.Errorf("per-rank accesses = %v, want rank0=3 rank1=7", acc[:4])
	}
	total := int64(0)
	for _, a := range acc {
		total += a
	}
	if total != 10 {
		t.Errorf("total accesses = %d", total)
	}
}

// TestWritesCompleteAndCount: writes flow through the full path.
func TestWriteLatencyUsesCWL(t *testing.T) {
	tm := dram.DDR4_2133()
	eng, c := newTestController(t, true, false)
	var wLat, rLat sim.Time
	if err := c.Submit(0, true, func(l sim.Time) { wLat = l }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	eng2, c2 := newTestController(t, true, false)
	if err := c2.Submit(0, false, func(l sim.Time) { rLat = l }); err != nil {
		t.Fatal(err)
	}
	eng2.Run()
	// CWL (11 ck) < CL (15 ck): cold write completes sooner.
	if wLat >= rLat {
		t.Errorf("write latency %v not below read latency %v", wLat, rLat)
	}
	if diff := rLat - wLat; diff != tm.TCL-tm.TCWL {
		t.Errorf("latency gap = %v, want CL-CWL = %v", diff, tm.TCL-tm.TCWL)
	}
}

// TestFinalizeIdempotentAndActivityStable: double Finalize is safe.
func TestFinalizeIdempotent(t *testing.T) {
	eng, c := newTestController(t, true, false)
	if err := c.Submit(0, false, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	c.Finalize()
	a1 := c.Activity()
	c.Finalize()
	a2 := c.Activity()
	if a1 != a2 {
		t.Error("Activity changed across Finalize calls")
	}
}

// TestClosedPagePolicy: auto-precharge turns would-be row hits into
// misses, and removes conflicts (every access activates from precharged).
func TestClosedPagePolicy(t *testing.T) {
	run := func(closed bool) *Stats {
		eng := sim.NewEngine()
		c, err := New(eng, Config{
			Org: dram.Org64GB(), Timing: dram.DDR4_2133(),
			Interleaved: false, ClosedPage: closed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// A strictly sequential stream: open-page turns it into hits.
		for i := 0; i < 64; i++ {
			if err := c.Submit(uint64(i)*64, false, nil); err != nil {
				t.Fatal(err)
			}
			eng.RunUntil(eng.Now() + 100*sim.Nanosecond)
		}
		eng.Run()
		c.Finalize()
		return c.Stats()
	}
	open := run(false)
	closed := run(true)
	if open.RowHits == 0 {
		t.Fatal("open-page saw no hits on a sequential stream")
	}
	if closed.RowHits != 0 {
		t.Errorf("closed-page recorded %d row hits; rows must auto-close", closed.RowHits)
	}
	if closed.RowConflicts != 0 {
		t.Errorf("closed-page recorded %d conflicts; precharged banks cannot conflict", closed.RowConflicts)
	}
	if closed.Activations <= open.Activations {
		t.Errorf("closed-page activations %d not above open-page %d",
			closed.Activations, open.Activations)
	}
	// Mean latency: sequential streams favor open-page.
	if closed.ReadLatency.Mean() <= open.ReadLatency.Mean() {
		t.Errorf("closed-page mean latency %.1fns not above open-page %.1fns on a sequential stream",
			closed.ReadLatency.Mean(), open.ReadLatency.Mean())
	}
}

// TestBandwidthCeilings: an ideal streaming load approaches the machine's
// theoretical bus bandwidth under interleaving (4 channels x ~17GB/s) and
// collapses to roughly one channel's worth without it.
func TestBandwidthCeilings(t *testing.T) {
	tm := dram.DDR4_2133()
	chanPeak := 64.0 / tm.TBL.Seconds() / 1e9 // GB/s of one channel's bus
	run := func(interleaved bool) float64 {
		eng := sim.NewEngine()
		c, err := New(eng, Config{
			Org: dram.Org64GB(), Timing: tm, Interleaved: interleaved, MaxQueue: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Open-loop saturating sequential stream with generous inflight.
		const n = 40000
		next := uint64(0)
		inFlight, issued := 0, 0
		var pump func()
		pump = func() {
			for inFlight < 192 && issued < n {
				if err := c.Submit(next, false, func(sim.Time) {
					inFlight--
					pump()
				}); err != nil {
					eng.After(20*sim.Nanosecond, pump)
					return
				}
				next += 64
				inFlight++
				issued++
			}
		}
		eng.At(0, pump)
		eng.Run()
		c.Finalize()
		return float64(n*64) / eng.Now().Seconds() / 1e9
	}
	bw4, bw1 := run(true), run(false)
	if bw4 < 0.75*4*chanPeak {
		t.Errorf("interleaved streaming bandwidth %.1fGB/s below 75%% of 4-channel peak %.1fGB/s",
			bw4, 4*chanPeak)
	}
	if bw1 > 1.3*chanPeak {
		t.Errorf("contiguous streaming bandwidth %.1fGB/s exceeds one channel's peak %.1fGB/s",
			bw1, chanPeak)
	}
	if bw4 < 2.5*bw1 {
		t.Errorf("channel scaling %.1f/%.1f below 2.5x", bw4, bw1)
	}
}
