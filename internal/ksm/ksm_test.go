package ksm

import (
	"testing"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

const pageSize = 4096

func setup(t *testing.T, totalMB int64) (*sim.Engine, *kernel.Mem, *Daemon) {
	t.Helper()
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: totalMB << 20, PageBytes: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(eng, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, mem, d
}

// allocAndRegister gives owner n pages with the given digests.
func allocAndRegister(t *testing.T, mem *kernel.Mem, d *Daemon, owner uint32, digests []uint64, vol float64) []*VPage {
	t.Helper()
	frames, err := mem.AllocPages(int64(len(digests)), true, owner)
	if err != nil {
		t.Fatal(err)
	}
	vps, err := d.Register(owner, frames, digests, vol)
	if err != nil {
		t.Fatal(err)
	}
	return vps
}

// scanPasses runs enough chunks for k full passes over the registered set.
func scanPasses(d *Daemon, k int) {
	per := d.cfg.PagesPerScan
	need := (d.Registered()/per + 2) * k
	for i := 0; i < need; i++ {
		d.ScanChunk()
	}
}

func TestMergeIdenticalPagesAcrossOwners(t *testing.T) {
	_, mem, d := setup(t, 64)
	// Two VMs with the same 100-page image; second pass merges them
	// (first pass builds checksums, second inserts + merges).
	img := make([]uint64, 100)
	for i := range img {
		img[i] = uint64(0xABC0 + i)
	}
	a := allocAndRegister(t, mem, d, 10, img, 0)
	b := allocAndRegister(t, mem, d, 11, img, 0)
	before := mem.Meminfo().UsedBytes
	scanPasses(d, 3)
	if d.SavedPages() != 100 {
		t.Fatalf("SavedPages = %d, want 100", d.SavedPages())
	}
	if got := mem.Meminfo().UsedBytes; got != before-100*pageSize {
		t.Errorf("used = %d, want %d", got, before-100*pageSize)
	}
	if d.StableLen() != 100 {
		t.Errorf("stable index holds %d nodes, want 100", d.StableLen())
	}
	for i := range img {
		if !a[i].Merged() || !b[i].Merged() {
			t.Fatalf("page %d not merged", i)
		}
		if a[i].Frame() != b[i].Frame() {
			t.Fatalf("page %d sharers on different frames", i)
		}
		if mem.Owner(a[i].Frame()) != Owner {
			t.Fatalf("shared frame owned by %d, not KSM", mem.Owner(a[i].Frame()))
		}
	}
}

func TestThirdSharerJoinsStableTree(t *testing.T) {
	_, mem, d := setup(t, 64)
	img := []uint64{42, 43, 44}
	allocAndRegister(t, mem, d, 10, img, 0)
	allocAndRegister(t, mem, d, 11, img, 0)
	scanPasses(d, 3)
	if d.SavedPages() != 3 {
		t.Fatalf("SavedPages = %d", d.SavedPages())
	}
	// A third VM arrives: its pages merge against the STABLE index on the
	// first visit (no checksum wait).
	c := allocAndRegister(t, mem, d, 12, img, 0)
	scanPasses(d, 1)
	if d.SavedPages() != 6 {
		t.Errorf("SavedPages = %d after third sharer, want 6", d.SavedPages())
	}
	if !c[0].Merged() {
		t.Error("third sharer not merged")
	}
	if d.StableLen() != 3 {
		t.Errorf("stable nodes = %d, want 3 (no duplicates)", d.StableLen())
	}
}

func TestUniqueContentNeverMerges(t *testing.T) {
	_, mem, d := setup(t, 64)
	u1 := []uint64{1, 2, 3, 4, 5}
	u2 := []uint64{6, 7, 8, 9, 10}
	allocAndRegister(t, mem, d, 10, u1, 0)
	allocAndRegister(t, mem, d, 11, u2, 0)
	scanPasses(d, 5)
	if d.SavedPages() != 0 {
		t.Errorf("unique pages merged: %d", d.SavedPages())
	}
}

func TestVolatilePagesResistMerging(t *testing.T) {
	_, mem, d := setup(t, 64)
	img := make([]uint64, 50)
	for i := range img {
		img[i] = 7777 // all identical
	}
	allocAndRegister(t, mem, d, 10, img, 1.0) // mutates every visit
	scanPasses(d, 5)
	if d.SavedPages() != 0 {
		t.Errorf("fully-volatile pages merged: %d", d.SavedPages())
	}
}

func TestCoWBreak(t *testing.T) {
	_, mem, d := setup(t, 64)
	img := []uint64{99}
	a := allocAndRegister(t, mem, d, 10, img, 0)
	b := allocAndRegister(t, mem, d, 11, img, 0)
	scanPasses(d, 3)
	if d.SavedPages() != 1 {
		t.Fatalf("setup merge failed: saved=%d", d.SavedPages())
	}
	used := mem.Meminfo().UsedBytes
	if err := d.Write(a[0], 12345); err != nil {
		t.Fatal(err)
	}
	if a[0].Merged() {
		t.Error("writer still merged after CoW")
	}
	if !b[0].Merged() {
		t.Error("other sharer lost its mapping")
	}
	if a[0].Frame() == b[0].Frame() {
		t.Error("writer still on shared frame")
	}
	if got := mem.Meminfo().UsedBytes; got != used+pageSize {
		t.Errorf("used after CoW = %d, want %d", got, used+pageSize)
	}
	if d.Stats().CoWBreaks != 1 {
		t.Errorf("CoWBreaks = %d", d.Stats().CoWBreaks)
	}
	// Second sharer writes too: stable node refcount hits zero, the
	// shared frame is freed.
	stableFrame := b[0].Frame()
	if err := d.Write(b[0], 54321); err != nil {
		t.Fatal(err)
	}
	if d.StableLen() != 0 {
		t.Error("stable node not removed at refcount zero")
	}
	if mem.State(stableFrame) != kernel.PageFree {
		t.Errorf("shared frame %d not freed: %v", stableFrame, mem.State(stableFrame))
	}
	if d.SavedPages() != 0 {
		t.Errorf("SavedPages = %d after both broke", d.SavedPages())
	}
}

func TestUnregisterOwnerReleasesShares(t *testing.T) {
	_, mem, d := setup(t, 64)
	img := []uint64{5, 6}
	allocAndRegister(t, mem, d, 10, img, 0)
	b := allocAndRegister(t, mem, d, 11, img, 0)
	scanPasses(d, 3)
	if d.SavedPages() != 2 {
		t.Fatalf("setup merge failed: %d", d.SavedPages())
	}
	// VM 10 dies.
	d.UnregisterOwner(10)
	mem.FreeOwner(10)
	// VM 11 still maps the shared frames (refcount dropped 2 -> 1).
	if !b[0].Merged() || !b[1].Merged() {
		t.Error("survivor lost merged mappings")
	}
	if d.StableLen() != 2 {
		t.Errorf("stable nodes = %d, want 2", d.StableLen())
	}
	// VM 11 dies too: shared frames must be freed, memory returns to
	// exactly the boot state.
	d.UnregisterOwner(11)
	mem.FreeOwner(11)
	if got := mem.Meminfo().UsedBytes; got != 0 {
		t.Errorf("used = %d after all owners died, want 0", got)
	}
	if d.Registered() != 0 {
		t.Errorf("registered = %d", d.Registered())
	}
}

func TestMigrationFollowsContent(t *testing.T) {
	_, mem, d := setup(t, 64)
	img := []uint64{77}
	a := allocAndRegister(t, mem, d, 10, img, 0)
	b := allocAndRegister(t, mem, d, 11, img, 0)
	scanPasses(d, 3)
	if !a[0].Merged() {
		t.Fatal("setup merge failed")
	}
	shared := a[0].Frame()
	dst, err := mem.MigratePage(shared, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Frame() != dst || b[0].Frame() != dst {
		t.Errorf("sharer frames not updated: a=%d b=%d dst=%d", a[0].Frame(), b[0].Frame(), dst)
	}
	// Exclusive page migration updates its VPage too.
	c := allocAndRegister(t, mem, d, 12, []uint64{123}, 0)
	dst2, err := mem.MigratePage(c[0].Frame(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Frame() != dst2 {
		t.Error("exclusive page frame not updated after migration")
	}
}

func TestPeriodicScanViaEngine(t *testing.T) {
	eng, mem, d := setup(t, 64)
	img := make([]uint64, 2500) // bigger than one 1000-page chunk
	for i := range img {
		img[i] = uint64(i)
	}
	allocAndRegister(t, mem, d, 10, img, 0)
	allocAndRegister(t, mem, d, 11, img, 0)
	passes := 0
	d.OnFullPass(func() { passes++ })
	d.Start()
	eng.RunUntil(2 * sim.Second)
	// 2s / 50ms = 40 chunks x 1000 pages = 8 passes over 5000 pages.
	if passes < 5 {
		t.Errorf("full passes = %d, want >= 5", passes)
	}
	if d.SavedPages() != 2500 {
		t.Errorf("SavedPages = %d, want 2500", d.SavedPages())
	}
	d.Stop()
	st := d.Stats()
	if st.Scans == 0 || st.CPUTime == 0 {
		t.Error("scan accounting empty")
	}
}

func TestCPUShareMatchesPaper(t *testing.T) {
	_, _, d := setup(t, 64)
	if got := d.CPUShare(); got < 0.08 || got > 0.12 {
		t.Errorf("ksmd CPU share = %.3f, want ~0.10 (paper §5.3)", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	_, mem, d := setup(t, 64)
	frames, _ := mem.AllocPages(2, true, 10)
	if _, err := d.Register(10, frames, []uint64{1}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := d.Register(10, frames, []uint64{1, 2}, 1.5); err == nil {
		t.Error("bad volatility accepted")
	}
	if _, err := d.Register(99, frames, []uint64{1, 2}, 0); err == nil {
		t.Error("wrong owner accepted")
	}
	if _, err := New(nil, mem, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestMergedPagesSurviveMixedChurn(t *testing.T) {
	// Stress: owners arrive with partially shared content, write, die.
	// Accounting must stay exact.
	_, mem, d := setup(t, 128)
	g := sim.NewRNG(5)
	alive := map[uint32][]*VPage{}
	next := uint32(100)
	for iter := 0; iter < 200; iter++ {
		switch g.Intn(3) {
		case 0: // birth: 30 pages, half from a shared pool of 40 digests
			digests := make([]uint64, 30)
			for i := range digests {
				if g.Bool(0.5) {
					digests[i] = uint64(g.Intn(40))
				} else {
					digests[i] = g.Uint64() | 1<<63
				}
			}
			alive[next] = allocAndRegister(t, mem, d, next, digests, 0.01)
			next++
		case 1: // a random write
			for o, vps := range alive {
				_ = o
				if len(vps) > 0 {
					_ = d.Write(vps[g.Intn(len(vps))], g.Uint64())
				}
				break
			}
		case 2: // death
			for o := range alive {
				d.UnregisterOwner(o)
				mem.FreeOwner(o)
				delete(alive, o)
				break
			}
		}
		d.ScanChunk()
		// Invariant: saved pages == sum of merged vpages - stable nodes.
		merged := int64(0)
		for _, vps := range alive {
			for _, v := range vps {
				if v.Merged() {
					merged++
				}
			}
		}
		if want := merged - int64(d.StableLen()); d.SavedPages() != want {
			t.Fatalf("iter %d: SavedPages=%d, merged=%d stable=%d",
				iter, d.SavedPages(), merged, d.StableLen())
		}
	}
	// Teardown everything; memory must return to zero used.
	for o := range alive {
		d.UnregisterOwner(o)
		mem.FreeOwner(o)
	}
	if mem.Meminfo().UsedBytes != 0 {
		t.Errorf("used = %d after teardown", mem.Meminfo().UsedBytes)
	}
}
