package hotplug

import (
	"testing"

	"greendimm/internal/kernel"
)

// newGB64 builds the energy matrix's machine: 64 GB of 1 MB pages with
// 1 GB memory blocks.
func newGB64(tb testing.TB) (*kernel.Mem, *Manager) {
	tb.Helper()
	mem, err := kernel.New(kernel.Config{TotalBytes: 64 << 30, PageBytes: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	mgr, err := New(mem, Config{BlockBytes: 1 << 30})
	if err != nil {
		tb.Fatal(err)
	}
	return mem, mgr
}

// cycle off-lines then on-lines block i, failing on any error.
func cycle(tb testing.TB, mgr *Manager, i int) {
	if _, err := mgr.Offline(i); err != nil {
		tb.Fatal(err)
	}
	if _, err := mgr.Online(i); err != nil {
		tb.Fatal(err)
	}
}

// TestOfflineOnlineSteadyStateAllocs: once one cycle has sized Offline's
// isolation buffer, off-lining and on-lining a free block allocates
// nothing (the latency distributions' amortized growth rounds to 0).
func TestOfflineOnlineSteadyStateAllocs(t *testing.T) {
	_, mgr := newGB64(t)
	cycle(t, mgr, 5) // warm-up
	if avg := testing.AllocsPerRun(100, func() { cycle(t, mgr, 5) }); avg != 0 {
		t.Fatalf("Offline+Online of a free 1 GB block allocates %.2f times per cycle, want 0", avg)
	}
}

// BenchmarkOfflineOnline times one Offline+Online cycle of a 1 GB block
// of 1 MB pages: free (isolation only), and used, with 64 movable pages
// to migrate. The used block is block 0 with nothing below it, so
// re-allocating its owner after each cycle (untimed) puts the pages
// back in it.
func BenchmarkOfflineOnline(b *testing.B) {
	b.Run("free", func(b *testing.B) {
		_, mgr := newGB64(b)
		cycle(b, mgr, 5)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, mgr, 5)
		}
	})
	b.Run("used", func(b *testing.B) {
		mem, mgr := newGB64(b)
		const owner, pages = 7, 64
		refill := func() {
			mem.FreeOwner(owner)
			pfns, err := mem.AllocPages(pages, true, owner)
			if err != nil {
				b.Fatal(err)
			}
			if lo, hi := mgr.Range(0); pfns[0] < lo || pfns[len(pfns)-1] >= hi {
				b.Fatalf("refill landed at PFN %d, outside block 0", pfns[0])
			}
		}
		refill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(b, mgr, 0)
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		if got := mgr.Stats().MigratedPages; got != int64(b.N)*pages {
			b.Fatalf("migrated %d pages over %d cycles, want %d each", got, b.N, pages)
		}
	})
}
