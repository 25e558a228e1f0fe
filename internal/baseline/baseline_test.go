package baseline

import (
	"testing"

	"greendimm/internal/addr"
	"greendimm/internal/dram"
	"greendimm/internal/kernel"
	"greendimm/internal/power"
	"greendimm/internal/sim"
)

func mkMem(t *testing.T) *kernel.Mem {
	t.Helper()
	// A 64GB address space at 2MB pages keeps the frame array small.
	mem, err := kernel.New(kernel.Config{TotalBytes: 64 << 30, PageBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

func mkMapper(t *testing.T, interleaved bool) *addr.Mapper {
	t.Helper()
	m, err := addr.NewMapper(dram.Org64GB(), interleaved)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInterleavingDefeatsBaselines(t *testing.T) {
	// A 1.2GB footprint under interleaving occupies EVERY rank and bank:
	// RAMZzz and PASR find nothing to turn off (paper §3.3, Fig. 9).
	mem := mkMem(t)
	if _, err := mem.AllocPages(600, true, 5); err != nil { // 1.2GB
		t.Fatal(err)
	}
	occ := Scan(mem, mkMapper(t, true))
	if got := occ.IdleRanks(); got != 0 {
		t.Errorf("idle ranks under interleaving = %d, want 0", got)
	}
	if got := occ.IdleBanks(); got != 0 {
		t.Errorf("idle banks under interleaving = %d, want 0", got)
	}
}

func TestContiguousLeavesRanksIdle(t *testing.T) {
	mem := mkMem(t)
	if _, err := mem.AllocPages(600, true, 5); err != nil {
		t.Fatal(err)
	}
	occ := Scan(mem, mkMapper(t, false))
	// 1.2GB in 4GB ranks, allocated low-first: 1 rank used, 15 idle.
	if got := occ.IdleRanks(); got != 15 {
		t.Errorf("idle ranks = %d, want 15", got)
	}
	if got := occ.IdleBanks(); got == 0 {
		t.Error("no idle banks despite 1-rank footprint")
	}
}

func baseActivity(window sim.Time, ranks int) power.Activity {
	return power.Activity{
		Window:    window,
		StandbyT:  window * sim.Time(ranks) / 2,
		PowerDnT:  window * sim.Time(ranks) / 4,
		SelfRefT:  window * sim.Time(ranks) / 4,
		Refreshes: int64(ranks) * 1000,
	}
}

func TestApplyRAMZzzDemotesIdleRanks(t *testing.T) {
	occ := Occupancy{RankUsed: make([]bool, 16)}
	occ.RankUsed[0] = true // 15 idle
	a := baseActivity(sim.Second, 16)
	out := ApplyRAMZzz(a, occ)
	// Residency still covers window x ranks.
	if got, want := out.StandbyT+out.PowerDnT+out.SelfRefT+out.ActiveT,
		a.StandbyT+a.PowerDnT+a.SelfRefT+a.ActiveT; got != want {
		t.Errorf("residency not conserved: %v != %v", got, want)
	}
	if out.SelfRefT <= a.SelfRefT {
		t.Error("RAMZzz did not increase self-refresh residency")
	}
	// 15 of 16 ranks fully in self-refresh.
	if out.SelfRefT < 15*sim.Second {
		t.Errorf("self-refresh residency = %v, want >= 15 rank-seconds", out.SelfRefT)
	}
	if out.Refreshes >= a.Refreshes {
		t.Error("RAMZzz did not reduce controller refreshes")
	}
}

func TestApplyRAMZzzNoopWhenAllUsed(t *testing.T) {
	occ := Occupancy{RankUsed: []bool{true, true, true, true}}
	a := baseActivity(sim.Second, 4)
	if out := ApplyRAMZzz(a, occ); out != a {
		t.Error("RAMZzz changed activity with zero idle ranks")
	}
}

func TestApplyPASRGatesIdleBanks(t *testing.T) {
	occ := Occupancy{BankUsed: make([]bool, 256)}
	for i := 0; i < 64; i++ {
		occ.BankUsed[i] = true // 192 of 256 idle
	}
	a := power.Activity{Window: sim.Second, DPDFrac: 0}
	out := ApplyPASR(a, occ)
	if out.DPDFrac != 0.75 {
		t.Errorf("PASR DPDFrac = %v, want 0.75", out.DPDFrac)
	}
	// Never reduces an already higher fraction.
	a.DPDFrac = 0.9
	if out := ApplyPASR(a, occ); out.DPDFrac != 0.9 {
		t.Errorf("PASR lowered DPDFrac to %v", out.DPDFrac)
	}
}

func TestBaselinesReduceEnergyOnlyWithoutInterleaving(t *testing.T) {
	// End-to-end shape check for Fig. 9's message: compute DRAM power for
	// a 1.2GB-footprint idle-ish machine under both mappings.
	mem := mkMem(t)
	if _, err := mem.AllocPages(600, true, 5); err != nil {
		t.Fatal(err)
	}
	model, err := power.NewModel(dram.Org64GB())
	if err != nil {
		t.Fatal(err)
	}
	window := sim.Second
	a := power.Activity{
		Window:    window,
		StandbyT:  window * 16,
		Refreshes: 16 * int64(window/model.Timing.TREFI),
	}
	base, err := model.FromActivity(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, intlv := range []bool{true, false} {
		occ := Scan(mem, mkMapper(t, intlv))
		ramzzz, err := model.FromActivity(ApplyRAMZzz(a, occ))
		if err != nil {
			t.Fatal(err)
		}
		pasr, err := model.FromActivity(ApplyPASR(a, occ))
		if err != nil {
			t.Fatal(err)
		}
		if intlv {
			if ramzzz.TotalW() != base.TotalW() || pasr.TotalW() != base.TotalW() {
				t.Errorf("baselines saved power under interleaving: base=%.2f ramzzz=%.2f pasr=%.2f",
					base.TotalW(), ramzzz.TotalW(), pasr.TotalW())
			}
		} else {
			if ramzzz.TotalW() >= base.TotalW()*0.9 {
				t.Errorf("RAMZzz saved too little without interleaving: %.2f vs %.2f",
					ramzzz.TotalW(), base.TotalW())
			}
			if pasr.TotalW() >= base.TotalW()*0.95 {
				t.Errorf("PASR saved too little without interleaving: %.2f vs %.2f",
					pasr.TotalW(), base.TotalW())
			}
		}
	}
}

func TestMigrationOverhead(t *testing.T) {
	oh := MigrationOverhead(10*sim.Second, sim.Second, 1000000)
	if oh <= 0 {
		t.Error("zero overhead")
	}
	// 10 epochs x 1e6 pages x 100ns = 1s of CPU.
	if oh != sim.Second {
		t.Errorf("overhead = %v, want 1s", oh)
	}
	if MigrationOverhead(10*sim.Second, 0, 100) <= 0 {
		t.Error("default epoch broken")
	}
}

// BenchmarkScan scans the energy matrix's machine (64 GB, 1 MB pages)
// holding eight copies of 429.mcf's 1,700 MB footprint, once per timing
// cell as fig9 does, under each address layout.
func BenchmarkScan(b *testing.B) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 64 << 30, PageBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for owner := uint32(100); owner < 108; owner++ {
		if _, err := mem.AllocPages(1700, true, owner); err != nil {
			b.Fatal(err)
		}
	}
	for _, intlv := range []bool{false, true} {
		name := "contiguous"
		if intlv {
			name = "interleaved"
		}
		m, err := addr.NewMapper(dram.Org64GB(), intlv)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanSink = Scan(mem, m)
			}
		})
	}
}

var scanSink Occupancy
