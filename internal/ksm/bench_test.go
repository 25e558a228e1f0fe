package ksm

import (
	"testing"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// guestContent gives a guest's frames vmtrace-shaped content: about half
// are image pages, image<<32 | pageIdx%2048, in ascending order; the rest
// are unique.
func guestContent(g *sim.RNG, frames []kernel.PFN, image uint64) (imgF []kernel.PFN, imgD []uint64, uniqF []kernel.PFN, uniqD []uint64) {
	for i, f := range frames {
		if g.Bool(0.5) {
			imgF = append(imgF, f)
			imgD = append(imgD, image<<32|uint64(i%2048))
		} else {
			uniqF = append(uniqF, f)
			uniqD = append(uniqD, g.Uint64()|1<<63)
		}
	}
	return imgF, imgD, uniqF, uniqD
}

// registerGuest allocates one guest's pages and registers them with
// guestContent: image pages with no volatility, unique pages 2% volatile.
func registerGuest(tb testing.TB, mem *kernel.Mem, d *Daemon, g *sim.RNG, owner uint32, image uint64, pages int64) {
	tb.Helper()
	frames, err := mem.AllocPages(pages, true, owner)
	if err != nil {
		tb.Fatal(err)
	}
	imgF, imgD, uniqF, uniqD := guestContent(g, frames, image)
	if _, err := d.Register(owner, imgF, imgD, 0); err != nil {
		tb.Fatal(err)
	}
	if _, err := d.Register(owner, uniqF, uniqD, 0.02); err != nil {
		tb.Fatal(err)
	}
}

// residentGuests boots a daemon on 1 GB of 4 KB pages with 16 guests of
// 8,192 pages over four base images (owners 100-115).
func residentGuests(tb testing.TB) (*kernel.Mem, *Daemon, *sim.RNG) {
	tb.Helper()
	mem, err := kernel.New(kernel.Config{TotalBytes: 1 << 30, PageBytes: pageSize})
	if err != nil {
		tb.Fatal(err)
	}
	d, err := New(sim.NewEngine(), mem, DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	g := sim.NewRNG(1)
	for vm := 0; vm < 16; vm++ {
		registerGuest(tb, mem, d, g, uint32(100+vm), uint64(1+vm%4), 8192)
	}
	return mem, d, g
}

// BenchmarkScanChunk measures one wake-up (1,000 page visits) over the 16
// resident guests. A full pass runs first, so the stable index holds
// every image page.
func BenchmarkScanChunk(b *testing.B) {
	_, d, _ := residentGuests(b)
	scanPasses(d, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ScanChunk()
	}
}

// BenchmarkRegisterUnregister measures one guest's 8,192 pages advised
// mergeable and torn down again among the 16 resident guests: Register of
// its image and unique halves, then UnregisterOwner, which compacts the
// whole scan list. The guest's frames stay allocated between ops.
func BenchmarkRegisterUnregister(b *testing.B) {
	mem, d, g := residentGuests(b)
	scanPasses(d, 2)
	const owner = 200
	frames, err := mem.AllocPages(8192, true, owner)
	if err != nil {
		b.Fatal(err)
	}
	imgF, imgD, uniqF, uniqD := guestContent(g, frames, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Register(owner, imgF, imgD, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Register(owner, uniqF, uniqD, 0.02); err != nil {
			b.Fatal(err)
		}
		d.UnregisterOwner(owner)
	}
}

// TestScanLoopSteadyStateAllocs drives the engine itself across
// steady-state scan periods, so the timer that re-arms each wake-up is
// measured along with ScanChunk: 100 periods (about twelve passes over
// eight guests) per run must not allocate once.
func TestScanLoopSteadyStateAllocs(t *testing.T) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 256 << 20, PageBytes: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	d, err := New(eng, mem, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewRNG(1)
	for vm := 0; vm < 8; vm++ {
		registerGuest(t, mem, d, g, uint32(100+vm), uint64(1+vm%4), 1024)
	}
	d.Start()
	period := DefaultConfig().ScanPeriod
	eng.RunUntil(200 * period)
	if got := testing.AllocsPerRun(1, func() { eng.RunUntil(eng.Now() + 100*period) }); got != 0 {
		t.Errorf("100 scan periods allocate %.0f times", got)
	}
	if st := d.Stats(); st.Scans != 400*int64(d.cfg.PagesPerScan) || st.Merges == 0 {
		t.Fatalf("scanned %d pages with %d merges, want 400 chunks of %d and some merging", st.Scans, st.Merges, d.cfg.PagesPerScan)
	}
}
