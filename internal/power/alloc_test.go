package power

import (
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/sim"
)

// mixedSecond is one second of the 256 GB machine with its rank time
// split across all four power states, traffic, a refresh per tREFI per
// rank and a quarter of the sub-array groups in deep power-down, so
// FromActivity evaluates every term.
func mixedSecond(m *Model) Activity {
	window := sim.Second
	ranks := sim.Time(m.Org.TotalRanks())
	q := window * ranks / 4
	return Activity{
		Window:      window,
		ActiveT:     q,
		StandbyT:    q,
		PowerDnT:    q,
		SelfRefT:    window*ranks - 3*q,
		Activations: 1 << 20,
		Reads:       2 << 20,
		Writes:      1 << 20,
		Refreshes:   int64(window/m.Timing.TREFI) * int64(ranks),
		DPDFrac:     0.25,
	}
}

// TestFromActivitySteadyStateAllocs: converting an activity summary to
// a power breakdown allocates nothing. Every timing cell and every
// VM-day sample calls FromActivity.
func TestFromActivitySteadyStateAllocs(t *testing.T) {
	m := mustModel(t, dram.Org256GB())
	a := mixedSecond(m)
	var total float64
	avg := testing.AllocsPerRun(1000, func() {
		b, err := m.FromActivity(a)
		if err != nil {
			t.Fatal(err)
		}
		total += b.TotalW()
	})
	if avg != 0 {
		t.Fatalf("FromActivity allocates %.2f times per call, want 0", avg)
	}
	if total <= 0 {
		t.Fatalf("FromActivity summed to %v W over the runs, want > 0", total)
	}
}

// BenchmarkFromActivity times one power evaluation of a mixed-state
// second on the 256 GB machine, the power-accounting layer's unit of
// work.
func BenchmarkFromActivity(b *testing.B) {
	m, err := NewModel(dram.Org256GB())
	if err != nil {
		b.Fatal(err)
	}
	a := mixedSecond(m)
	var total float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := m.FromActivity(a)
		if err != nil {
			b.Fatal(err)
		}
		total += br.TotalW()
	}
	if total <= 0 {
		b.Fatalf("FromActivity summed to %v W, want > 0", total)
	}
}
