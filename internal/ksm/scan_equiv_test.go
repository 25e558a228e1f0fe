package ksm

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// The first three files under testdata/scan_equiv were written by the
// build whose stable and unstable indexes were unbalanced binary search
// trees keyed by digest. Comparing against them proves the digest-keyed
// maps make every merge decision the trees made, at the same scan visit:
// Stats, the saved and stable counts, and a hash of every live page's
// frame, merge state and digest after each chunk. The private case was
// written by the build whose frame index was a map keyed by PFN; it holds
// the PFN-indexed slice to the same migrations.

// scanEquivCase is one daemon configuration of the golden set.
type scanEquivCase struct {
	name  string
	chunk int // PagesPerScan
	steps int // chunks scanned, one guest operation before each
	seed  int64
	// private: guests also hold memory they never advise mergeable, and
	// half the migrations move all of one guest's such frames. Ramps take
	// it first, so frames that merging freed come back as such memory,
	// where a frame-index entry that outlived its page would move a merged
	// page's frame.
	private bool
}

func scanEquivCases() []scanEquivCase {
	return []scanEquivCase{
		{"chunk7-seed1", 7, 900, 1, false},
		{"chunk64-seed2", 64, 300, 2, false},
		{"chunk1000-seed3", 1000, 120, 3, false},
		{"chunk16-seed4-private", 16, 600, 4, true},
	}
}

// equivImagePages is the number of distinct pages per base image. Guests
// register their pages in address order, so image digests arrive in
// ascending runs of this length, as vmtrace's do with 2,048.
const equivImagePages = 96

// equivVM is one guest: owner, base image, pages registered so far, and
// the frames it holds unregistered.
type equivVM struct {
	owner   uint32
	image   uint64
	ramped  int64
	pages   []*VPage
	private []kernel.PFN
}

// scanEquivReport drives one case and renders one line per chunk. Before
// each chunk one guest operation runs: a birth (often on a new base image,
// so fresh digests pass through the unstable index), a ramp that registers
// more pages, an external write (to another page of the guest's image, to
// one of eight pooled digests shared by every guest, or to unique
// content), a death (UnregisterOwner then FreeOwner), or the migration of
// a random page's frame. Image pages never change on their own; private
// pages carry 5% volatility. With tc.private, each ramp first allocates up
// to seven frames that are never registered.
func scanEquivReport(t *testing.T, tc scanEquivCase) string {
	t.Helper()
	mem, err := kernel.New(kernel.Config{TotalBytes: 32 << 20, PageBytes: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PagesPerScan = tc.chunk
	cfg.Seed = tc.seed
	d, err := New(sim.NewEngine(), mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewRNG(tc.seed)
	var vms []*equivVM
	owner, images := uint32(100), uint64(1)

	register := func(vm *equivVM, frames []kernel.PFN, digests []uint64, vol float64) {
		if len(frames) == 0 {
			return
		}
		vps, err := d.Register(vm.owner, frames, digests, vol)
		if err != nil {
			t.Fatal(err)
		}
		vm.pages = append(vm.pages, vps...)
	}
	ramp := func(vm *equivVM, n int64) string {
		var k int64
		if tc.private {
			k = 1 + g.Int63n(7)
			frames, err := mem.AllocPages(k, true, vm.owner)
			if err != nil {
				return "ramp-private-oom"
			}
			vm.private = append(vm.private, frames...)
		}
		frames, err := mem.AllocPages(n, true, vm.owner)
		if err != nil {
			return "ramp-oom"
		}
		var imgF, uniqF []kernel.PFN
		var imgD, uniqD []uint64
		for i, f := range frames {
			if idx := vm.ramped + int64(i); g.Bool(0.5) {
				imgF = append(imgF, f)
				imgD = append(imgD, vm.image<<32|uint64(idx%equivImagePages))
			} else {
				uniqF = append(uniqF, f)
				uniqD = append(uniqD, g.Uint64()|1<<63)
			}
		}
		vm.ramped += n
		register(vm, imgF, imgD, 0)
		register(vm, uniqF, uniqD, 0.05)
		if tc.private {
			return fmt.Sprintf("ramp %d +%d private +%d", vm.owner, n, k)
		}
		return fmt.Sprintf("ramp %d +%d", vm.owner, n)
	}
	randomPage := func() *VPage {
		vm := vms[g.Intn(len(vms))]
		if len(vm.pages) == 0 {
			return nil
		}
		return vm.pages[g.Intn(len(vm.pages))]
	}

	var b strings.Builder
	for step := 0; step < tc.steps; step++ {
		var op string
		switch r := g.Intn(20); {
		case len(vms) == 0 || r < 3 && len(vms) < 6:
			image := images + 1
			if len(vms) > 0 && g.Bool(0.7) {
				image = vms[g.Intn(len(vms))].image
			} else {
				images++
			}
			vm := &equivVM{owner: owner, image: image}
			owner++
			vms = append(vms, vm)
			op = "birth " + ramp(vm, 20+g.Int63n(60))
		case r < 6:
			vm := vms[g.Intn(len(vms))]
			if vm.ramped >= 150 {
				op = "ramp-full"
				break
			}
			op = ramp(vm, 10+g.Int63n(30))
		case r < 11:
			v := randomPage()
			if v == nil {
				op = "write-none"
				break
			}
			var digest uint64
			switch w := g.Intn(10); {
			case w < 4:
				digest = uint64(1+g.Intn(int(images)))<<32 | uint64(g.Intn(equivImagePages))
			case w < 7:
				digest = 0x5<<56 | uint64(g.Intn(8))
			default:
				digest = g.Uint64() | 1<<63
			}
			if err := d.Write(v, digest); err != nil {
				op = "write-oom"
				break
			}
			op = fmt.Sprintf("write %x", digest)
		case r < 13:
			i := g.Intn(len(vms))
			vm := vms[i]
			vms = append(vms[:i], vms[i+1:]...)
			d.UnregisterOwner(vm.owner)
			op = fmt.Sprintf("death %d freed %d", vm.owner, mem.FreeOwner(vm.owner))
		case r < 16:
			if tc.private && g.Bool(0.5) {
				vm := vms[g.Intn(len(vms))]
				op = fmt.Sprintf("migrate-private %d", vm.owner)
				for j, src := range vm.private {
					dst, err := mem.MigratePage(src, src, src+1)
					if err != nil {
						op += " oom"
						break
					}
					vm.private[j] = dst
					mem.Unisolate(src)
					op += fmt.Sprintf(" %d->%d", src, dst)
				}
				break
			}
			v := randomPage()
			if v == nil {
				op = "migrate-none"
				break
			}
			src := v.Frame()
			dst, err := mem.MigratePage(src, src, src+1)
			if err != nil {
				op = "migrate-oom"
				break
			}
			mem.Unisolate(src)
			op = fmt.Sprintf("migrate %d->%d", src, dst)
		default:
			op = "idle"
		}
		d.ScanChunk()

		h := fnv.New64a()
		for _, vm := range vms {
			for _, v := range vm.pages {
				fmt.Fprintf(h, "%d %t %x,", v.Frame(), v.Merged(), v.Digest())
			}
		}
		st := d.Stats()
		fmt.Fprintf(&b, "%d %s | scans=%d passes=%d merges=%d cow=%d cpu=%d saved=%d stable=%d reg=%d used=%d pages=%x\n",
			step, op, st.Scans, st.FullPasses, st.Merges, st.CoWBreaks, int64(st.CPUTime),
			d.SavedPages(), d.StableLen(), d.Registered(), mem.Meminfo().UsedBytes/pageSize, h.Sum64())
	}
	return b.String()
}

// TestScanEquivalenceGolden holds every case to the tree build's output.
func TestScanEquivalenceGolden(t *testing.T) {
	for _, tc := range scanEquivCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "scan_equiv", tc.name+".txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			got := scanEquivReport(t, tc)
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range gl {
				if i >= len(wl) || gl[i] != wl[i] {
					w := "<missing>"
					if i < len(wl) {
						w = wl[i]
					}
					t.Fatalf("diverged from the tree golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], w)
				}
			}
			t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
		})
	}
}
