package addr

import (
	"fmt"
	"testing"
	"testing/quick"

	"greendimm/internal/dram"
)

func mustMapper(t *testing.T, o dram.Org, interleaved bool) *Mapper {
	t.Helper()
	m, err := NewMapper(o, interleaved)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTotalBitsCoverCapacity(t *testing.T) {
	for _, intlv := range []bool{true, false} {
		m := mustMapper(t, dram.Org64GB(), intlv)
		if got, want := m.TotalBits(), 36; got != want { // 64GB = 2^36
			t.Errorf("intlv=%v: TotalBits = %d, want %d", intlv, got, want)
		}
	}
	m := mustMapper(t, dram.Org256GB(), true)
	if got, want := m.TotalBits(), 38; got != want {
		t.Errorf("256GB TotalBits = %d, want %d", got, want)
	}
}

// edgeOrgs lists the organizations whose bounds TestDecodeRejectsOutOfRange
// and TestWithinRankMatchesDecode pin: both presets and every
// OrgWithCapacity size from 64 GB to 1 TB.
func edgeOrgs(t *testing.T) map[string]dram.Org {
	t.Helper()
	orgs := map[string]dram.Org{"Org64GB": dram.Org64GB(), "Org256GB": dram.Org256GB()}
	for _, gb := range []int{64, 128, 256, 512, 1024} {
		o, err := dram.OrgWithCapacity(gb)
		if err != nil {
			t.Fatal(err)
		}
		orgs[fmt.Sprintf("OrgWithCapacity(%d)", gb)] = o
	}
	return orgs
}

// TestDecodeRejectsOutOfRange pins Decode's bounds at the edge on both
// layouts: the last line below capacity decodes, and capacity itself fails
// with the message that names both.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	for name, o := range edgeOrgs(t) {
		for _, intlv := range []bool{true, false} {
			m := mustMapper(t, o, intlv)
			capacity := uint64(o.TotalBytes())
			for _, pa := range []uint64{0, capacity - 64} {
				if _, err := m.Decode(pa); err != nil {
					t.Errorf("%s intlv=%v: address %#x rejected: %v", name, intlv, pa, err)
				}
			}
			want := fmt.Sprintf("addr: physical address %#x beyond capacity %#x", capacity, capacity)
			if _, err := m.Decode(capacity); err == nil || err.Error() != want {
				t.Errorf("%s intlv=%v: Decode(capacity) error = %v, want %q", name, intlv, err, want)
			}
		}
	}
}

// TestWithinRankMatchesDecode derives the largest rank-local block from
// Decode alone (the lowest address bit whose flip changes the channel or
// rank) and checks WithinRank against it for every power-of-two size.
func TestWithinRankMatchesDecode(t *testing.T) {
	for name, o := range edgeOrgs(t) {
		for _, intlv := range []bool{true, false} {
			m := mustMapper(t, o, intlv)
			low := m.TotalBits()
			for b := 0; b < m.TotalBits(); b++ {
				l, err := m.Decode(1 << b)
				if err != nil {
					t.Fatal(err)
				}
				if l.Channel != 0 || l.Rank != 0 {
					low = b
					break
				}
			}
			for j := 0; j <= m.TotalBits()+1; j++ {
				n := int64(1) << j
				if got, want := m.WithinRank(n), j <= low; got != want {
					t.Errorf("%s intlv=%v: WithinRank(%d) = %v, want %v", name, intlv, n, got, want)
				}
			}
			for _, n := range []int64{0, -64, 3 << 6} {
				if m.WithinRank(n) {
					t.Errorf("%s intlv=%v: WithinRank(%d) = true", name, intlv, n)
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, intlv := range []bool{true, false} {
		m := mustMapper(t, dram.Org64GB(), intlv)
		f := func(raw uint64) bool {
			pa := (raw % uint64(m.Org().TotalBytes())) &^ 63 // line aligned
			l, err := m.Decode(pa)
			if err != nil {
				return false
			}
			return m.Encode(l) == pa
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("intlv=%v: %v", intlv, err)
		}
	}
}

func TestDecodeFieldsInRange(t *testing.T) {
	for _, intlv := range []bool{true, false} {
		m := mustMapper(t, dram.Org64GB(), intlv)
		o := m.Org()
		f := func(raw uint64) bool {
			pa := raw % uint64(o.TotalBytes())
			l, err := m.Decode(pa)
			if err != nil {
				return false
			}
			return l.Channel >= 0 && l.Channel < o.Channels &&
				l.Rank >= 0 && l.Rank < o.RanksPerChannel() &&
				l.BankGroup >= 0 && l.BankGroup < o.BankGroups &&
				l.Bank >= 0 && l.Bank < o.BanksPerGroup &&
				l.Row >= 0 && l.Row < o.Rows() &&
				l.Col >= 0 && l.Col < o.Columns/o.BurstLength
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("intlv=%v: %v", intlv, err)
		}
	}
}

func TestInterleavingDispersesConsecutiveLines(t *testing.T) {
	// Paper §3.3: with interleaving, consecutive cache lines land on
	// different channels; a small footprint still touches every rank.
	m := mustMapper(t, dram.Org64GB(), true)
	chans := map[int]bool{}
	ranks := map[[2]int]bool{}
	const footprint = 64 << 20 // 64MB, the libquantum example
	for pa := uint64(0); pa < footprint; pa += 64 {
		l, err := m.Decode(pa)
		if err != nil {
			t.Fatal(err)
		}
		chans[l.Channel] = true
		ranks[[2]int{l.Channel, l.Rank}] = true
	}
	if len(chans) != 4 {
		t.Errorf("64MB footprint touched %d channels, want 4", len(chans))
	}
	if len(ranks) != 16 {
		t.Errorf("64MB footprint touched %d ranks, want all 16", len(ranks))
	}
	// Adjacent lines must differ in channel.
	l0, _ := m.Decode(0)
	l1, _ := m.Decode(64)
	if l0.Channel == l1.Channel {
		t.Error("adjacent lines on same channel under interleaving")
	}
}

func TestContiguousKeepsSmallFootprintLocal(t *testing.T) {
	// Without interleaving, a 64MB footprint stays inside one rank of one
	// channel, so the other 15 ranks can idle (paper Fig. 3b).
	m := mustMapper(t, dram.Org64GB(), false)
	ranks := map[[2]int]bool{}
	const footprint = 64 << 20
	for pa := uint64(0); pa < footprint; pa += 4096 {
		l, err := m.Decode(pa)
		if err != nil {
			t.Fatal(err)
		}
		ranks[[2]int{l.Channel, l.Rank}] = true
	}
	if len(ranks) != 1 {
		t.Errorf("64MB footprint touched %d ranks without interleaving, want 1", len(ranks))
	}
}

func TestSubArrayGroupFromTopBits(t *testing.T) {
	// Paper §4.1: the most significant address bits select the sub-array
	// group, identically across channels/ranks/banks.
	m := mustMapper(t, dram.Org64GB(), true)
	cap64 := uint64(64 << 30)
	cases := []struct {
		pa   uint64
		want int
	}{
		{0, 0},
		{cap64/64 - 64, 0},         // last line of first 1GB slice
		{cap64 / 64, 1},            // first line of second slice
		{cap64 - 64, 63},           // last line of memory
		{cap64 / 2, 32},            // midpoint
		{3 * (cap64 / 64), 3},      // slice 3 start
		{3*(cap64/64) + 555*64, 3}, // inside slice 3
	}
	for _, c := range cases {
		got, err := m.SubArrayGroup(c.pa)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("SubArrayGroup(%#x) = %d, want %d", c.pa, got, c.want)
		}
	}
}

func TestGroupAddressRange(t *testing.T) {
	m := mustMapper(t, dram.Org64GB(), true)
	lo, hi, err := m.GroupAddressRange(5)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo != 1<<30 {
		t.Errorf("group range size = %d, want 1GB", hi-lo)
	}
	// Every address in the range decodes to group 5; boundary addresses
	// outside do not.
	for _, pa := range []uint64{lo, lo + 64, hi - 64, (lo + hi) / 2 &^ 63} {
		g, err := m.SubArrayGroup(pa)
		if err != nil {
			t.Fatal(err)
		}
		if g != 5 {
			t.Errorf("SubArrayGroup(%#x) = %d inside range of group 5", pa, g)
		}
	}
	if g, _ := m.SubArrayGroup(lo - 64); g != 4 {
		t.Errorf("address below range in group %d, want 4", g)
	}
	if g, _ := m.SubArrayGroup(hi); g != 6 {
		t.Errorf("address above range in group %d, want 6", g)
	}
	if _, _, err := m.GroupAddressRange(64); err == nil {
		t.Error("out-of-range group accepted")
	}
}

func TestGroupRangeSpansAllBanksAllRanks(t *testing.T) {
	// The key interleaving-agnostic property (paper Fig. 4): one group's
	// address range maps onto EVERY channel, rank, and bank, always with
	// rows in the same top-row-bits window.
	m := mustMapper(t, dram.Org64GB(), true)
	o := m.Org()
	lo, hi, err := m.GroupAddressRange(7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{} // flat bank index
	rowsPerSA := o.Rows() / o.SubArraysPerBank
	// Stride co-prime-ish with the interleave fields so low address bits
	// sweep every channel/rank/bank combination.
	for pa := lo; pa < hi; pa += 1<<20 + 64 {
		l, err := m.Decode(pa)
		if err != nil {
			t.Fatal(err)
		}
		if l.Row/rowsPerSA != 7 {
			t.Fatalf("pa %#x row %d outside sub-array 7", pa, l.Row)
		}
		seen[l.FlatBank(o)] = true
	}
	wantBanks := o.TotalRanks() * o.Banks()
	if len(seen) != wantBanks {
		t.Errorf("group 7 touched %d banks, want all %d", len(seen), wantBanks)
	}
}

func TestContiguousGroupRangeUnavailable(t *testing.T) {
	m := mustMapper(t, dram.Org64GB(), false)
	if _, _, err := m.GroupAddressRange(0); err == nil {
		t.Error("contiguous mapping should not offer a single group range")
	}
}

func TestSubArrayGroupOfRow(t *testing.T) {
	m := mustMapper(t, dram.Org64GB(), true)
	rowsPerSA := m.Org().RowsPerSubArray()
	for _, c := range []struct{ row, want int }{
		{0, 0}, {rowsPerSA - 1, 0}, {rowsPerSA, 1}, {32767, 63},
	} {
		if got := m.SubArrayGroupOfRow(c.row); got != c.want {
			t.Errorf("SubArrayGroupOfRow(%d) = %d, want %d", c.row, got, c.want)
		}
	}
}

func TestMapperRejectsInvalidOrg(t *testing.T) {
	o := dram.Org64GB()
	o.Channels = 3 // not a power of two
	if _, err := NewMapper(o, true); err == nil {
		t.Error("3-channel org accepted")
	}
	if _, err := NewMapper(dram.Org{}, true); err == nil {
		t.Error("zero org accepted")
	}
}

func TestBijectionAcrossAllGroups(t *testing.T) {
	// Property: Decode is injective on line addresses — two distinct
	// sampled line addresses never map to the same location.
	m := mustMapper(t, dram.Org64GB(), true)
	seen := make(map[Loc]uint64)
	for pa := uint64(0); pa < 1<<24; pa += 64 {
		l, err := m.Decode(pa)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[l]; dup {
			t.Fatalf("addresses %#x and %#x collide at %+v", prev, pa, l)
		}
		seen[l] = pa
	}
}
