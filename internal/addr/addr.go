// Package addr maps physical addresses to DRAM locations (channel, rank,
// bank group, bank, row, column) and back.
//
// Two mappings are provided:
//
//   - Interleaved (the default on commercial servers, paper §3.3/Fig. 5):
//     cache-line-adjacent addresses rotate across channels, then ranks,
//     then banks, so contiguous physical memory is dispersed for
//     memory-level parallelism.
//   - Contiguous ("w/o interleaving"): each channel, then rank, owns a
//     contiguous slab of the address space.
//
// The property GreenDIMM exploits holds in BOTH mappings: the most
// significant bits of the physical address select the row's most
// significant bits, which select the sub-array. A contiguous 1/64th slice
// at the top of the address space therefore maps to the same sub-array
// group in every channel, rank and bank (paper §4.1).
package addr

import (
	"fmt"
	"math/bits"

	"greendimm/internal/dram"
)

// Loc identifies one cache-line-sized piece of DRAM.
type Loc struct {
	Channel   int
	Rank      int // rank index within the channel
	BankGroup int
	Bank      int // bank index within the bank group
	Row       int
	Col       int // column in cache-line (burst) units
}

// FlatBank returns a dense index identifying (channel, rank, bankgroup,
// bank) — handy for per-bank bookkeeping arrays.
func (l Loc) FlatBank(o dram.Org) int {
	banks := o.Banks()
	rank := l.Channel*o.RanksPerChannel() + l.Rank
	return rank*banks + l.BankGroup*o.BanksPerGroup + l.Bank
}

// Mapper translates between physical addresses and DRAM locations.
type Mapper struct {
	org         dram.Org
	interleaved bool

	lineBits int // log2(64)
	chanBits int
	colBits  int
	bgBits   int
	bankBits int
	rankBits int
	rowBits  int
	saBits   int // sub-array-select bits (top of row)

	// capacity is org.TotalBytes(), computed once: Decode's bounds check
	// runs on every request, and Org's value receivers copy the struct.
	capacity uint64
	// rankSpan is the size of the largest aligned block that the layout
	// keeps inside one (channel, rank): 1 << the lowest channel or rank
	// address bit (see WithinRank).
	rankSpan uint64
}

// NewMapper builds a mapper for the organization. Interleaved selects the
// channel/rank/bank-rotating layout; otherwise the contiguous layout.
func NewMapper(o dram.Org, interleaved bool) (*Mapper, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	log2 := func(n int, what string) (int, error) {
		if n <= 0 || n&(n-1) != 0 {
			return 0, fmt.Errorf("addr: %s count %d not a power of two", what, n)
		}
		return bits.TrailingZeros(uint(n)), nil
	}
	m := &Mapper{org: o, interleaved: interleaved}
	var err error
	if m.chanBits, err = log2(o.Channels, "channel"); err != nil {
		return nil, err
	}
	if m.rankBits, err = log2(o.RanksPerChannel(), "rank"); err != nil {
		return nil, err
	}
	if m.bgBits, err = log2(o.BankGroups, "bank group"); err != nil {
		return nil, err
	}
	if m.bankBits, err = log2(o.BanksPerGroup, "bank"); err != nil {
		return nil, err
	}
	if m.rowBits, err = log2(o.Rows(), "row"); err != nil {
		return nil, err
	}
	if m.saBits, err = log2(o.SubArraysPerBank, "sub-array"); err != nil {
		return nil, err
	}
	// Column bits counted in cache-line units: a 1024-column x8 device
	// delivers 8 lines... more precisely, one row across a rank holds
	// rowBytes = Columns * busWidth/8 bytes = Columns*8 bytes; in 64-byte
	// lines that is Columns/8 lines.
	lines := o.Columns / o.BurstLength
	if m.colBits, err = log2(lines, "column-line"); err != nil {
		return nil, err
	}
	m.lineBits = 6 // 64B cache lines
	m.capacity = uint64(o.TotalBytes())
	// The lowest address bit that selects a channel or rank. Contiguous:
	// the rank and channel fields sit together above the row. Interleaved:
	// the channel field sits right above the line offset, the rank field
	// above colLow, bank group and bank. A field of width 0 selects nothing.
	low := m.TotalBits()
	if m.interleaved {
		if m.rankBits > 0 {
			low = m.lineBits + m.chanBits + min(colLow, m.colBits) + m.bgBits + m.bankBits
		}
		if m.chanBits > 0 {
			low = m.lineBits
		}
	} else if m.rankBits+m.chanBits > 0 {
		low = m.lineBits + m.colBits + m.bankBits + m.bgBits + m.rowBits
	}
	m.rankSpan = 1 << low
	return m, nil
}

// colLow is how many low column bits the interleaved layout places below
// the bank-group bits.
const colLow = 2

// Org returns the organization the mapper was built for.
func (m *Mapper) Org() dram.Org { return m.org }

// Interleaved reports which layout the mapper uses.
func (m *Mapper) Interleaved() bool { return m.interleaved }

// TotalBits is the number of significant physical-address bits.
func (m *Mapper) TotalBits() int {
	return m.lineBits + m.chanBits + m.rankBits + m.bgBits + m.bankBits + m.colBits + m.rowBits
}

// WithinRank reports whether every n-byte block that starts at a multiple
// of n lies inside one (channel, rank): on the contiguous layout any block
// up to one rank's slab, on the interleaved layout one cache line when
// there is more than one channel. Such a block's addresses all decode to
// the channel and rank of its first byte.
func (m *Mapper) WithinRank(n int64) bool {
	return n > 0 && m.rankSpan%uint64(n) == 0
}

// Decode maps a physical address to its DRAM location. Addresses beyond
// the installed capacity return an error.
func (m *Mapper) Decode(pa uint64) (Loc, error) {
	if pa >= m.capacity {
		return Loc{}, fmt.Errorf("addr: physical address %#x beyond capacity %#x", pa, m.capacity)
	}
	a := pa >> m.lineBits
	take := func(n int) int {
		v := int(a & ((1 << n) - 1))
		a >>= n
		return v
	}
	var l Loc
	if m.interleaved {
		// From LSB: channel | column-low | bank group | bank | rank |
		// column-high | row. Splitting the column around the bank bits
		// keeps row-buffer locality for streams while still rotating
		// consecutive lines across channels and banks.
		l.Channel = take(m.chanBits)
		cl := take(min(colLow, m.colBits))
		l.BankGroup = take(m.bgBits)
		l.Bank = take(m.bankBits)
		l.Rank = take(m.rankBits)
		ch := take(max(m.colBits-colLow, 0))
		l.Col = ch<<min(colLow, m.colBits) | cl
		l.Row = take(m.rowBits)
	} else {
		// From LSB: column | bank | bank group | row | rank | channel.
		// A contiguous region lives inside one bank of one rank of one
		// channel until it spills to the next.
		l.Col = take(m.colBits)
		l.Bank = take(m.bankBits)
		l.BankGroup = take(m.bgBits)
		l.Row = take(m.rowBits)
		l.Rank = take(m.rankBits)
		l.Channel = take(m.chanBits)
	}
	return l, nil
}

// Encode is the inverse of Decode: it maps a location back to the physical
// address of its first byte.
func (m *Mapper) Encode(l Loc) uint64 {
	var a uint64
	// Build from MSB down by reversing the Decode order.
	if m.interleaved {
		cLow := min(colLow, m.colBits)
		colHi := l.Col >> cLow
		colLo := l.Col & ((1 << cLow) - 1)
		a = uint64(l.Row)
		a = a<<(m.colBits-cLow) | uint64(colHi)
		a = a<<m.rankBits | uint64(l.Rank)
		a = a<<m.bankBits | uint64(l.Bank)
		a = a<<m.bgBits | uint64(l.BankGroup)
		a = a<<cLow | uint64(colLo)
		a = a<<m.chanBits | uint64(l.Channel)
	} else {
		a = uint64(l.Channel)
		a = a<<m.rankBits | uint64(l.Rank)
		a = a<<m.rowBits | uint64(l.Row)
		a = a<<m.bgBits | uint64(l.BankGroup)
		a = a<<m.bankBits | uint64(l.Bank)
		a = a<<m.colBits | uint64(l.Col)
	}
	return a << m.lineBits
}

// SubArrayGroup returns the sub-array group index (0..SubArraysPerBank-1)
// that the address's row falls in: the top saBits of the row address
// (paper §4.1, global row decoder).
func (m *Mapper) SubArrayGroup(pa uint64) (int, error) {
	l, err := m.Decode(pa)
	if err != nil {
		return 0, err
	}
	return l.Row >> (m.rowBits - m.saBits), nil
}

// SubArrayGroupOfRow maps a row index to its sub-array group.
func (m *Mapper) SubArrayGroupOfRow(row int) int {
	return row >> (m.rowBits - m.saBits)
}

// GroupAddressRange returns the contiguous physical-address range
// [lo, hi) that maps to sub-array group g — valid for the interleaved
// mapping, where the row MSBs are the physical-address MSBs, so each group
// owns exactly one contiguous 1/64th slice of the address space. This is
// the correspondence GreenDIMM uses to pick which OS memory block to
// off-line.
func (m *Mapper) GroupAddressRange(g int) (lo, hi uint64, err error) {
	n := m.org.SubArraysPerBank
	if g < 0 || g >= n {
		return 0, 0, fmt.Errorf("addr: sub-array group %d out of range %d", g, n)
	}
	if !m.interleaved {
		// Contiguous mapping scatters a group into one slice per
		// (channel, rank); there is no single contiguous range.
		return 0, 0, fmt.Errorf("addr: contiguous mapping has no single range per group")
	}
	size := m.capacity / uint64(n)
	return uint64(g) * size, uint64(g+1) * size, nil
}
