package ksm

import (
	"testing"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// BenchmarkScanChunk measures one wake-up (1,000 page visits) over 16
// guests of 8,192 pages with vmtrace-shaped content: half of each guest's
// pages are image pages, image<<32 | pageIdx%2048 over four base images,
// registered in ascending order; the rest are unique and 2% volatile. A
// full pass runs first, so the stable index holds every image page.
func BenchmarkScanChunk(b *testing.B) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 1 << 30, PageBytes: pageSize})
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(sim.NewEngine(), mem, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := sim.NewRNG(1)
	for vm := 0; vm < 16; vm++ {
		owner, image := uint32(100+vm), uint64(1+vm%4)
		frames, err := mem.AllocPages(8192, true, owner)
		if err != nil {
			b.Fatal(err)
		}
		var imgF, uniqF []kernel.PFN
		var imgD, uniqD []uint64
		for i, f := range frames {
			if g.Bool(0.5) {
				imgF = append(imgF, f)
				imgD = append(imgD, image<<32|uint64(i%2048))
			} else {
				uniqF = append(uniqF, f)
				uniqD = append(uniqD, g.Uint64()|1<<63)
			}
		}
		if _, err := d.Register(owner, imgF, imgD, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Register(owner, uniqF, uniqD, 0.02); err != nil {
			b.Fatal(err)
		}
	}
	scanPasses(d, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ScanChunk()
	}
}
