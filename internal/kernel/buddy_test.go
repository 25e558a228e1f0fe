package kernel

import (
	"testing"

	"greendimm/internal/sim"
)

// TestBuddySteadyStateAllocs: taking and returning a single page must not
// allocate. The cycle below hands out and takes back PFN 301, a free
// order-0 block whose buddy is allocated, so it neither splits nor
// coalesces; a PFN that large would be heap-allocated if a free list
// boxed it.
func TestBuddySteadyStateAllocs(t *testing.T) {
	b, err := newBuddy(0, 4096, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		if _, ok := b.alloc(0); !ok {
			t.Fatal("alloc failed on an empty zone")
		}
	}
	b.freeBlock(301, 0)
	var got PFN
	allocs := testing.AllocsPerRun(1000, func() {
		got, _ = b.alloc(0)
		b.freeBlock(got, 0)
	})
	if got != 301 {
		t.Fatalf("alloc(0) = %d, want the lowest free page 301", got)
	}
	if allocs != 0 {
		t.Errorf("alloc(0)+freeBlock = %v allocs/op, want 0", allocs)
	}
}

// benchMem boots a 64 GB machine of 1 MB pages, the size of the traced
// replicas' kernels.
func benchMem(b *testing.B) *Mem {
	m, err := New(Config{TotalBytes: 64 << 30, PageBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkBuddyDrain is one drain of the low memory per op: fill a
// quarter of memory, migrate the lower half of those pages out of their
// range one at a time, as off-lining the bottom blocks does, then free
// every page. Each migration allocates one destination page, so most
// lookups first pass over empty low orders.
func BenchmarkBuddyDrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := benchMem(b)
		b.StartTimer()
		quarter := m.NPages() / 4
		if _, err := m.AllocPages(quarter, true, 1); err != nil {
			b.Fatal(err)
		}
		hi := PFN(quarter / 2)
		for p := PFN(0); p < hi; p++ {
			if _, err := m.MigratePage(p, 0, hi); err != nil {
				b.Fatal(err)
			}
		}
		m.FreeOwner(1)
		for p := PFN(0); p < hi; p++ {
			m.Unisolate(p)
		}
	}
}

// BenchmarkBuddyChurn frees one random page and allocates one page per op
// on a machine half full of single-page allocations.
func BenchmarkBuddyChurn(b *testing.B) {
	b.ReportAllocs()
	m := benchMem(b)
	pfns, err := m.AllocPages(m.NPages()/2, true, 1)
	if err != nil {
		b.Fatal(err)
	}
	g := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := g.Intn(len(pfns))
		m.FreePage(pfns[j])
		got, err := m.AllocPages(1, true, 1)
		if err != nil {
			b.Fatal(err)
		}
		pfns[j] = got[0]
	}
}
