package kernel_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// The files under testdata/buddy_equiv were written by the build whose
// buddy free lists were per-order min-heaps of head PFNs with lazy
// deletion. Comparing against them proves the per-order bitmaps hand out
// the same frames in the same order: every PFN an operation returns, the
// meminfo counters and each zone's free count after every operation.

// buddyEquivCase is one seeded operation sequence.
type buddyEquivCase struct {
	name  string
	seed  int64
	steps int
}

func buddyEquivCases() []buddyEquivCase {
	return []buddyEquivCase{
		{"seed1", 1, 700},
		{"seed2", 2, 700},
	}
}

const (
	equivPage   = 4096
	equivOwners = 6
)

// pfnRuns renders ascending runs of consecutive PFNs as "a-b".
func pfnRuns(pfns []kernel.PFN) string {
	var b strings.Builder
	for i := 0; i < len(pfns); {
		j := i
		for j+1 < len(pfns) && pfns[j+1] == pfns[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", pfns[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", pfns[i], pfns[j])
		}
		i = j + 1
	}
	return b.String()
}

// buddyEquivReport drives one case on a 64 MB machine with a 32 MB
// Movable zone, 2 MB of boot-reserved kernel memory and leaked unmovable
// pages, split into 2 MB hotplug blocks, and renders one line per
// operation. The mix: allocations of 1 to 1,500 pages, movable or not, for
// six owners; frees of one random page; LIFO partial frees; ownership
// transfers; migrations out of the source's block (the source returned to
// the allocator or left isolated) and under a predicate; and off-lining
// and on-lining of random blocks.
func buddyEquivReport(t *testing.T, tc buddyEquivCase) string {
	t.Helper()
	mem, err := kernel.New(kernel.Config{
		TotalBytes: 64 << 20, PageBytes: equivPage, MovableBytes: 32 << 20,
		KernelReservedBytes: 2 << 20, UnmovableLeakEvery: 8, Seed: tc.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: 2 << 20, MigrateAttemptFailProb: 0.02, Seed: tc.seed})
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewRNG(tc.seed)
	randomPage := func() (uint32, kernel.PFN, bool) {
		o := uint32(1 + g.Intn(equivOwners))
		n := mem.OwnerPageCount(o)
		if n == 0 {
			return o, 0, false
		}
		return o, mem.OwnerPage(o, g.Int63n(n)), true
	}

	var b strings.Builder
	for step := 0; step < tc.steps; step++ {
		var op string
		switch r := g.Intn(20); {
		case r < 6:
			var n int64
			switch s := g.Intn(10); {
			case s < 4:
				n = 1
			case s < 7:
				n = 2 + g.Int63n(15)
			case s < 9:
				n = 17 + g.Int63n(184)
			default:
				n = 201 + g.Int63n(1300)
			}
			movable, o := g.Bool(0.7), uint32(1+g.Intn(equivOwners))
			pfns, err := mem.AllocPages(n, movable, o)
			if err != nil {
				op = fmt.Sprintf("alloc %d %t %d: %v", n, movable, o, err)
				break
			}
			op = fmt.Sprintf("alloc %d %t %d -> %s", n, movable, o, pfnRuns(pfns))
		case r < 9:
			o, p, ok := randomPage()
			if !ok {
				op = "free-none"
				break
			}
			mem.FreePage(p)
			op = fmt.Sprintf("free %d of %d", p, o)
		case r < 11:
			o := uint32(1 + g.Intn(equivOwners))
			op = fmt.Sprintf("free-owner %d -> %d", o, mem.FreeOwnerPages(o, 1+g.Int63n(800)))
		case r < 12:
			o, p, ok := randomPage()
			if !ok {
				op = "reassign-none"
				break
			}
			to := uint32(1 + g.Intn(equivOwners))
			mem.Reassign(p, to)
			op = fmt.Sprintf("reassign %d %d->%d", p, o, to)
		case r < 15:
			_, p, ok := randomPage()
			if !ok {
				op = "migrate-none"
				break
			}
			blk := int(int64(p) * equivPage / hp.BlockBytes())
			lo, hi := hp.Range(blk)
			dst, err := mem.MigratePage(p, lo, hi)
			if err != nil {
				op = fmt.Sprintf("migrate %d: %v", p, err)
				break
			}
			keep := g.Bool(0.5)
			if !keep {
				mem.Unisolate(p)
			}
			op = fmt.Sprintf("migrate %d -> %d isolated=%t", p, dst, keep)
		case r < 16:
			_, p, ok := randomPage()
			if !ok {
				op = "migrate-avoid-none"
				break
			}
			mod := kernel.PFN(2 + g.Intn(3))
			dst, err := mem.MigratePageAvoid(p, func(q kernel.PFN) bool { return q%mod == 0 })
			if err != nil {
				op = fmt.Sprintf("migrate-avoid %d: %v", p, err)
				break
			}
			mem.Unisolate(p)
			op = fmt.Sprintf("migrate-avoid %d %%%d -> %d", p, mod, dst)
		case r < 18:
			blk := g.Intn(hp.Blocks())
			if hp.State(blk) == hotplug.BlockOffline {
				op = fmt.Sprintf("offline %d: already", blk)
				break
			}
			lat, err := hp.Offline(blk)
			op = fmt.Sprintf("offline %d: %d %v", blk, int64(lat), err)
		default:
			var off []int
			for i := 0; i < hp.Blocks(); i++ {
				if hp.State(i) == hotplug.BlockOffline {
					off = append(off, i)
				}
			}
			if len(off) == 0 {
				op = "online-none"
				break
			}
			blk := off[g.Intn(len(off))]
			lat, err := hp.Online(blk)
			op = fmt.Sprintf("online %d: %d %v", blk, int64(lat), err)
		}
		mi := mem.Meminfo()
		normal, movable := kernel.ZoneFree(mem)
		fmt.Fprintf(&b, "%d %s | total=%d free=%d used=%d zones=%d/%d\n", step, op,
			mi.TotalBytes/equivPage, mi.FreeBytes/equivPage, mi.UsedBytes/equivPage, normal, movable)
	}
	return b.String()
}

// TestBuddyEquivalenceGolden holds every case to the heap build's output.
func TestBuddyEquivalenceGolden(t *testing.T) {
	for _, tc := range buddyEquivCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "buddy_equiv", tc.name+".txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			got := buddyEquivReport(t, tc)
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
					t.Fatalf("diverged from the heap golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], w)
				}
			}
			t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
		})
	}
}
