package baseline

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"greendimm/internal/addr"
	"greendimm/internal/dram"
	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// scanOracle is Scan as it was before pages in fully-seen ranks were
// skipped: it samples every allocated page. TestScanMatchesOracle holds
// Scan to it.
func scanOracle(mem *kernel.Mem, m *addr.Mapper) Occupancy {
	o := m.Org()
	occ := Occupancy{
		RankUsed: make([]bool, o.TotalRanks()),
		BankUsed: make([]bool, o.TotalRanks()*o.Banks()),
	}
	pageBytes := mem.PageBytes()
	remaining := len(occ.BankUsed)
	mark := func(pa uint64) {
		loc, err := m.Decode(pa)
		if err != nil {
			return
		}
		rank := loc.Channel*o.RanksPerChannel() + loc.Rank
		occ.RankUsed[rank] = true
		if fb := loc.FlatBank(o); !occ.BankUsed[fb] {
			occ.BankUsed[fb] = true
			remaining--
		}
	}
	for pfn := kernel.PFN(0); pfn < kernel.PFN(mem.NPages()) && remaining > 0; pfn++ {
		st := mem.State(pfn)
		if st != kernel.PageMovable && st != kernel.PageUnmovable {
			continue
		}
		base := uint64(pfn) * uint64(pageBytes)
		before := remaining
		for off := int64(0); off < pageBytes && remaining > 0; off += 8192 {
			mark(base + uint64(off))
		}
		if before == remaining {
			continue
		}
		lines := pageBytes / 64
		if lines > 1024 {
			lines = 1024
		}
		for k := int64(1); k < lines && remaining > 0; k++ {
			mark(base + uint64(k*64))
		}
	}
	return occ
}

// smallOrg is the smallest legal organization with ranks: 2 GB ranks of
// x16 4 Gb devices, 8 GB in all, so 4 KB pages keep the frame array small.
func smallOrg(channels, ranksPerChannel int) dram.Org {
	o := dram.Org64GB()
	o.Channels, o.DIMMsPerChannel, o.RanksPerDIMM = channels, 1, ranksPerChannel
	o.DeviceWidth = 16
	return o
}

// randomMem boots a machine of o's capacity with a random Movable zone,
// boot reservation and scattered unmovable leaks, then applies ops random
// steps: movable and unmovable allocations, LIFO frees, single-page holes
// and hotplug off/on-lining of 1/64-capacity blocks. check runs on the
// state after every third step.
func randomMem(t *testing.T, g *sim.RNG, o dram.Org, pageBytes int64, ops int, check func(*kernel.Mem)) {
	t.Helper()
	total := o.TotalBytes()
	block := total / 64
	mem, err := kernel.New(kernel.Config{
		TotalBytes:          total,
		PageBytes:           pageBytes,
		MovableBytes:        block * int64(g.Intn(33)),
		KernelReservedBytes: pageBytes * g.Int63n(4096),
		UnmovableLeakEvery:  1 + g.Intn(2),
		Seed:                g.Int63n(1 << 62),
	})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: block, MigrateAttemptFailProb: 0.2, Seed: g.Int63n(1 << 62)})
	if err != nil {
		t.Fatal(err)
	}
	npages := mem.NPages()
	for op := 1; op <= ops; op++ {
		owner := uint32(1 + g.Intn(6))
		switch g.Intn(5) {
		case 0, 1:
			n := 1 + g.Int63n(npages/24)
			if g.Bool(0.3) {
				n = 1 + g.Int63n(64)
			}
			if _, err := mem.AllocPages(n, g.Bool(0.8), owner); err != nil && !errors.Is(err, kernel.ErrNoMemory) {
				t.Fatal(err)
			}
		case 2:
			mem.FreeOwnerPages(owner, g.Int63n(mem.OwnerPageCount(owner)+1))
		case 3:
			for k := mem.OwnerPageCount(owner) / 2; k > 0; k-- {
				mem.FreePage(mem.OwnerPage(owner, g.Int63n(mem.OwnerPageCount(owner))))
			}
		case 4:
			b := g.Intn(hp.Blocks())
			if hp.State(b) == hotplug.BlockOnline {
				_, _ = hp.Offline(b) // EBUSY and EAGAIN are states too
			} else if _, err := hp.Online(b); err != nil {
				t.Fatal(err)
			}
		}
		if op%3 == 0 {
			check(mem)
		}
	}
}

// TestScanMatchesOracle compares Scan with the full walk over random
// allocator states, on both layouts: 1 MB pages on the 64 GB machine, and
// 4 KB pages on 8 GB machines with two channels (where a 4 KB page is
// rank-local only on the contiguous map) and with one channel (where it
// is rank-local on both). Scattered leaks and holes leave ranks with only
// some banks seen, which a rank skipped too early would miss.
func TestScanMatchesOracle(t *testing.T) {
	cases := []struct {
		org       dram.Org
		pageBytes int64
		seeds     int
	}{
		{dram.Org64GB(), 1 << 20, 6},
		{smallOrg(2, 2), 4 << 10, 5},
		{smallOrg(1, 4), 4 << 10, 5},
	}
	for _, tc := range cases {
		var mappers []*addr.Mapper
		for _, intlv := range []bool{false, true} {
			m, err := addr.NewMapper(tc.org, intlv)
			if err != nil {
				t.Fatal(err)
			}
			mappers = append(mappers, m)
		}
		for seed := int64(1); seed <= int64(tc.seeds); seed++ {
			name := fmt.Sprintf("%dch_%dB_seed%d", tc.org.Channels, tc.pageBytes, seed)
			t.Run(name, func(t *testing.T) {
				partial := 0
				randomMem(t, sim.NewRNG(seed), tc.org, tc.pageBytes, 12, func(mem *kernel.Mem) {
					for _, m := range mappers {
						got, want := Scan(mem, m), scanOracle(mem, m)
						if !slices.Equal(got.BankUsed, want.BankUsed) || !slices.Equal(got.RankUsed, want.RankUsed) {
							t.Fatalf("interleaved=%v: Scan idle ranks/banks %d/%d, oracle %d/%d",
								m.Interleaved(), got.IdleRanks(), got.IdleBanks(), want.IdleRanks(), want.IdleBanks())
						}
						if partiallySeen(want, tc.org.Banks()) {
							partial++
						}
					}
				})
				// 4 KB pages on the contiguous map see one bank each, so
				// the leaks must leave some rank partly seen: that is the
				// state an early skip gets wrong.
				if tc.pageBytes == 4<<10 && partial == 0 {
					t.Fatal("no state left a rank partly seen")
				}
			})
		}
	}
}

// partiallySeen reports whether some rank has both seen and unseen banks.
func partiallySeen(occ Occupancy, banks int) bool {
	for r := range occ.RankUsed {
		n := 0
		for _, u := range occ.BankUsed[r*banks : (r+1)*banks] {
			if u {
				n++
			}
		}
		if n > 0 && n < banks {
			return true
		}
	}
	return false
}
