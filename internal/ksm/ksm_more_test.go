package ksm

import (
	"testing"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// TestUnregisterDuringScanIsSafe: owners dying mid-pass leave dangling
// unstable-index entries; later visits must never merge against those dead
// frames (they have returned to the buddy allocator).
func TestUnregisterDuringScanIsSafe(t *testing.T) {
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: 64 << 20, PageBytes: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one page visit per chunk: full control of pass boundaries.
	d, err := New(eng, mem, Config{
		PagesPerScan: 1, ScanPeriod: sim.Millisecond, ScanCostPerPage: sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	img := []uint64{101, 102, 103}
	a := allocAndRegister(t, mem, d, 10, img, 0)
	b := allocAndRegister(t, mem, d, 11, img, 0)
	// Pass 1 (6 visits): builds checksums only.
	for i := 0; i < 6; i++ {
		d.ScanChunk()
	}
	// Pass 2 begins: owner 10's first page enters the unstable index.
	d.ScanChunk()
	if len(d.unstable) == 0 {
		t.Fatal("setup: no unstable entry yet")
	}
	// Owner 10 dies with its page sitting in the unstable index.
	d.UnregisterOwner(10)
	mem.FreeOwner(10)
	// Many further visits: owner 11 must never merge against the dead
	// entry, and nothing may crash on the freed frames.
	for i := 0; i < 60; i++ {
		d.ScanChunk()
	}
	for _, v := range b {
		if v.Merged() {
			t.Fatalf("page merged against an unregistered owner's frame")
		}
	}
	if d.SavedPages() != 0 {
		t.Errorf("SavedPages = %d", d.SavedPages())
	}
	_ = a
}

// TestWriteToUnregisteredPageFails cleanly.
func TestWriteToUnregisteredPageFails(t *testing.T) {
	_, mem, d := setup(t, 64)
	v := allocAndRegister(t, mem, d, 10, []uint64{7}, 0)
	d.UnregisterOwner(10)
	if err := d.Write(v[0], 9); err == nil {
		t.Error("write to dead page accepted")
	}
}

// TestScanCostAccounting: CPU time scales with visits.
func TestScanCostAccounting(t *testing.T) {
	eng := sim.NewEngine()
	_ = eng
	_, mem, d := setup(t, 64)
	allocAndRegister(t, mem, d, 10, make([]uint64, 100), 0)
	d.ScanChunk()
	st := d.Stats()
	if st.Scans == 0 {
		t.Fatal("no scans")
	}
	if st.CPUTime != sim.Time(st.Scans)*d.cfg.ScanCostPerPage {
		t.Errorf("CPU time %v != scans %d x cost", st.CPUTime, st.Scans)
	}
}

// TestMergeChainAfterCoWBreakRejoins: a page that broke CoW and later
// reverts to the shared content can merge again via the stable index.
func TestMergeChainAfterCoWBreakRejoins(t *testing.T) {
	_, mem, d := setup(t, 64)
	const shared = uint64(4242)
	a := allocAndRegister(t, mem, d, 10, []uint64{shared}, 0)
	b := allocAndRegister(t, mem, d, 11, []uint64{shared}, 0)
	c := allocAndRegister(t, mem, d, 12, []uint64{shared}, 0)
	scanPasses(d, 3)
	if d.SavedPages() != 2 {
		t.Fatalf("setup: saved = %d", d.SavedPages())
	}
	// a writes private content, then reverts to the shared content.
	if err := d.Write(a[0], 999); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a[0], shared); err != nil {
		t.Fatal(err)
	}
	scanPasses(d, 3)
	if !a[0].Merged() {
		t.Error("reverted page did not re-merge against the stable index")
	}
	if d.SavedPages() != 2 {
		t.Errorf("saved = %d after re-merge, want 2", d.SavedPages())
	}
	_ = b
	_ = c
}

// TestRegisterIsAtomic: a call with a foreign frame anywhere in it is
// rejected whole, registering nothing; no page of it is scanned or merged.
func TestRegisterIsAtomic(t *testing.T) {
	_, mem, d := setup(t, 64)
	mine, err := mem.AllocPages(2, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := mem.AllocPages(1, true, 11)
	if err != nil {
		t.Fatal(err)
	}
	frames := []kernel.PFN{mine[0], foreign[0], mine[1]}
	if _, err := d.Register(10, frames, []uint64{7, 8, 9}, 0); err == nil {
		t.Fatal("foreign frame accepted")
	}
	if n := d.Registered(); n != 0 {
		t.Errorf("Registered() = %d after a rejected call, want 0", n)
	}
	allocAndRegister(t, mem, d, 12, []uint64{7}, 0)
	scanPasses(d, 3)
	if st := d.Stats(); st.Merges != 0 {
		t.Errorf("merged %d pages against a rejected registration", st.Merges)
	}
}

// TestDuplicateStableDigestPanics: KSM looks a digest up in the stable
// index before promoting, so a second stable node for one digest means
// the scan logic broke.
func TestDuplicateStableDigestPanics(t *testing.T) {
	_, mem, d := setup(t, 64)
	vps := allocAndRegister(t, mem, d, 10, []uint64{7, 7, 7, 7}, 0)
	d.promote(vps[0], vps[1])
	defer func() {
		if recover() == nil {
			t.Error("second stable node for one digest did not panic")
		}
	}()
	d.promote(vps[2], vps[3])
}
