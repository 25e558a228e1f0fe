// Package baseline implements the comparison points of the paper's §6.2:
//
//   - srf_only: the controller's own rank idle policy (power-down, then
//     self-refresh). This needs no code here — it is mc.Config.LowPower.
//   - RAMZzz (Wu et al., SC'12): rank-aware placement that packs pages
//     into few hot ranks and aggressively demotes the resulting cold
//     ranks to self-refresh.
//   - PASR (mobile-DRAM partial-array self-refresh): banks holding no
//     live data stop refreshing and power down.
//
// The paper itself models both baselines analytically — "we model power
// reduction by them based on the number of idle ranks/banks" (§6.2) — and
// this package does the same: it derives rank/bank occupancy from the real
// allocator state through the real address mapper (which is what makes
// both collapse under interleaving: every rank and bank holds part of any
// footprint), then adjusts the measured controller activity.
package baseline

import (
	"greendimm/internal/addr"
	"greendimm/internal/kernel"
	"greendimm/internal/power"
	"greendimm/internal/sim"
)

// Occupancy reports which ranks and banks hold at least one allocated
// page under the given address mapping, by walking the page-frame array.
type Occupancy struct {
	RankUsed []bool // indexed by global rank
	BankUsed []bool // indexed by flat bank
}

// Scan computes occupancy for the current allocator state by sampling
// every allocated page. Two sampling patterns cover both layouts: coarse
// 8KB strides sweep the contiguous map's bank bits (which sit above the
// 8KB row), and the page's first 1024 lines sweep the interleaved map's
// channel/rank/bank bits (which sit below). A page that adds nothing via
// the coarse pass cannot add anything via the fine pass either.
//
// A sample changes the result only by marking an unseen bank. So a page
// that lies inside one (channel, rank) whose banks are all seen is
// skipped: on the contiguous map one 1MB page sees every bank of its
// rank, and the rest of that rank's pages cost one decode each. The walk
// stops once every bank is seen (after one page, under interleaving).
func Scan(mem *kernel.Mem, m *addr.Mapper) Occupancy {
	o := m.Org()
	ranksPerCh, banks := o.RanksPerChannel(), o.Banks()
	occ := Occupancy{
		RankUsed: make([]bool, o.TotalRanks()),
		BankUsed: make([]bool, o.TotalRanks()*banks),
	}
	seen := make([]int, o.TotalRanks()) // banks marked, per global rank
	pageBytes := mem.PageBytes()
	rankLocal := m.WithinRank(pageBytes)
	remaining := len(occ.BankUsed)
	mark := func(pa uint64) {
		loc, err := m.Decode(pa)
		if err != nil {
			return
		}
		rank := loc.Channel*ranksPerCh + loc.Rank
		occ.RankUsed[rank] = true
		if fb := rank*banks + loc.BankGroup*o.BanksPerGroup + loc.Bank; !occ.BankUsed[fb] {
			occ.BankUsed[fb] = true
			seen[rank]++
			remaining--
		}
	}
	for pfn := kernel.PFN(0); pfn < kernel.PFN(mem.NPages()) && remaining > 0; pfn++ {
		st := mem.State(pfn)
		if st != kernel.PageMovable && st != kernel.PageUnmovable {
			continue
		}
		base := uint64(pfn) * uint64(pageBytes)
		if rankLocal {
			// Every sample decodes to base's rank, or fails as base does.
			loc, err := m.Decode(base)
			if err != nil || seen[loc.Channel*ranksPerCh+loc.Rank] == banks {
				continue
			}
		}
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

// IdleRanks counts ranks with no allocated data.
func (occ Occupancy) IdleRanks() int {
	n := 0
	for _, u := range occ.RankUsed {
		if !u {
			n++
		}
	}
	return n
}

// IdleBanks counts banks with no allocated data.
func (occ Occupancy) IdleBanks() int {
	n := 0
	for _, u := range occ.BankUsed {
		if !u {
			n++
		}
	}
	return n
}

// ApplyRAMZzz transforms measured controller activity into what RAMZzz
// would achieve: the idle (dataless) ranks' non-active residency is
// demoted entirely to self-refresh (RAMZzz's migrations guarantee they
// receive no traffic, so its aggressive demotion never pays wake-ups),
// and their share of controller refreshes disappears (self-refresh
// handles it). Ranks holding data are untouched — under interleaving that
// is all of them, which is the paper's point.
func ApplyRAMZzz(a power.Activity, occ Occupancy) power.Activity {
	total := len(occ.RankUsed)
	idle := occ.IdleRanks()
	if total == 0 || idle == 0 {
		return a
	}
	perRank := a.Window
	idleT := sim.Time(idle) * perRank
	// Idle ranks currently split between standby/power-down/self-refresh
	// (they see no traffic). Remove their share proportionally from the
	// non-active states and credit it to self-refresh.
	nonActive := a.StandbyT + a.PowerDnT + a.SelfRefT
	if nonActive < idleT {
		idleT = nonActive
	}
	if nonActive > 0 {
		scale := float64(nonActive-idleT) / float64(nonActive)
		a.StandbyT = sim.Time(float64(a.StandbyT) * scale)
		a.PowerDnT = sim.Time(float64(a.PowerDnT) * scale)
		a.SelfRefT = sim.Time(float64(a.SelfRefT)*scale) + idleT
	}
	// Controller REFs for ranks that now self-refresh go away.
	a.Refreshes = int64(float64(a.Refreshes) * float64(total-idle) / float64(total))
	return a
}

// ApplyPASR transforms activity into PASR's effect: banks with no live
// data stop refreshing and their array background power gates — expressed
// through the DPDFrac channel of the power model (the gateable-fraction
// semantics are identical; PASR is the mechanism GreenDIMM's circuit
// builds on, §4.3).
func ApplyPASR(a power.Activity, occ Occupancy) power.Activity {
	total := len(occ.BankUsed)
	if total == 0 {
		return a
	}
	frac := float64(occ.IdleBanks()) / float64(total)
	if frac > a.DPDFrac {
		a.DPDFrac = frac
	}
	return a
}

// MigrationOverhead estimates RAMZzz's page-migration cost over a window:
// it re-groups pages every epoch; the paper criticizes its need to monitor
// all pages. Returned as CPU time to charge.
func MigrationOverhead(window sim.Time, epoch sim.Time, pages int64) sim.Time {
	if epoch <= 0 {
		epoch = sim.Second
	}
	epochs := int64(window / epoch)
	// ~100ns of bookkeeping per page per epoch (access-bit scanning).
	return sim.Time(epochs * pages * 100 * int64(sim.Nanosecond) / int64(sim.Time(1)))
}
