package mc

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/sim"
)

// The files under testdata/refresh_equiv were written by the build that
// still ran one self-rescheduling refresh event per rank and reset every
// bank's readyAt and openRow on each REF and wake-up. Comparing against
// them proves the controller-wide refresh event and the per-rank row
// epoch reproduce that model exactly: every Stats counter, the read
// latency summary and the rank state residencies.

// refreshEquivCase is one controller configuration of the golden matrix.
type refreshEquivCase struct {
	name string
	cfg  Config
}

// refreshEquivCases spans {contiguous, interleaved} x {open, closed page}
// x five idle policies: off, the 1 us/64 us default, 0.2 us/4 us (self-
// refresh before the first REF of an idle stretch), 10 us/1 ms, and
// power-down at tREFI with self-refresh at 2 tREFI, whose idle steps land
// on the same instants as the first two refresh rounds.
func refreshEquivCases() []refreshEquivCase {
	tm := dram.DDR4_2133()
	policies := []struct {
		name     string
		lowPower bool
		pd, sr   sim.Time
	}{
		{"lp-off", false, 0, 0},
		{"lp-default", true, 0, 0},
		{"lp-0.2us-4us", true, 200 * sim.Nanosecond, 4 * sim.Microsecond},
		{"lp-10us-1ms", true, 10 * sim.Microsecond, sim.Millisecond},
		{"lp-trefi-2trefi", true, tm.TREFI, 2 * tm.TREFI},
	}
	var out []refreshEquivCase
	for _, interleaved := range []bool{false, true} {
		for _, closed := range []bool{false, true} {
			for _, p := range policies {
				mapping, page := "contiguous", "open"
				if interleaved {
					mapping = "interleaved"
				}
				if closed {
					page = "closed"
				}
				out = append(out, refreshEquivCase{
					name: mapping + "_" + page + "_" + p.name,
					cfg: Config{
						Org: dram.Org64GB(), Timing: tm,
						Interleaved: interleaved, ClosedPage: closed,
						LowPower: p.lowPower, PowerDownAfter: p.pd, SelfRefreshAfter: p.sr,
					},
				})
			}
		}
	}
	return out
}

// driveRefreshEquiv schedules seeded mixed read/write traffic until
// horizon. Activity comes in phases: a random subset of six 256 KiB home
// regions receives bursts of consecutive lines (one row per bank under
// either map, so open-page runs hit), then every region goes quiet for
// 5-30 us (several tREFI), 70-300 us (past the 64 us self-refresh
// timeout) or 1.1-3 ms (past the 1 ms one). Some bursts start exactly on
// a refresh instant. Traffic begins after 2 tREFI, so the first two
// refresh rounds meet ranks still in their initial idle descent.
func driveRefreshEquiv(eng *sim.Engine, c *Controller, seed int64, horizon sim.Time) {
	g := sim.NewRNG(seed)
	tREFI := c.cfg.Timing.TREFI
	const region = 256 << 10
	total := uint64(c.cfg.Org.TotalBytes())
	homes := make([]uint64, 6)
	for i := range homes {
		homes[i] = g.Uint64() % (total / region) * region
	}
	span := func(lo, hi sim.Time) sim.Time { return lo + sim.Time(g.Int63n(int64(hi-lo))) }

	var active []uint64
	var phaseEnd sim.Time
	newPhase := func(at sim.Time) {
		active = active[:0]
		for _, h := range homes {
			if g.Bool(0.5) {
				active = append(active, h)
			}
		}
		if len(active) == 0 {
			active = append(active, homes[g.Intn(len(homes))])
		}
		phaseEnd = at + span(20*sim.Microsecond, 200*sim.Microsecond)
	}

	var burst func()
	burst = func() {
		now := eng.Now()
		home := active[g.Intn(len(active))]
		pa := home + uint64(g.Int63n(region/64))*64
		at := now
		for n := 1 + g.Intn(8); n > 0 && pa < home+region; n-- {
			a, write := pa, g.Bool(0.3)
			eng.At(at, func() { _ = c.SubmitCall(a, write, nil, 0) })
			at += sim.Time(g.Intn(4)) * 15 * sim.Nanosecond
			pa += 64
		}
		next := now + span(sim.Nanosecond, 3*sim.Microsecond)
		if next >= phaseEnd {
			switch r := g.Float64(); {
			case r < 0.4:
				next = phaseEnd + span(5*sim.Microsecond, 30*sim.Microsecond)
			case r < 0.75:
				next = phaseEnd + span(70*sim.Microsecond, 300*sim.Microsecond)
			default:
				next = phaseEnd + span(1100*sim.Microsecond, 3*sim.Millisecond)
			}
			newPhase(next)
		}
		if g.Bool(0.05) {
			next = (next/tREFI + 1) * tREFI
		}
		if next < horizon {
			eng.At(next, burst)
		}
	}
	start := 2*tREFI + span(sim.Nanosecond, sim.Microsecond)
	newPhase(start)
	eng.At(start, burst)
}

// refreshEquivReport runs one case and renders every Stats counter, the
// read-latency N/mean/p50/p99 and the rank-state residency totals.
func refreshEquivReport(t *testing.T, cfg Config) string {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 30 * sim.Millisecond
	driveRefreshEquiv(eng, c, 7, horizon)
	eng.RunUntil(horizon)
	c.Finalize()
	var b strings.Builder
	writeStatsReport(&b, c)
	return b.String()
}

// writeStatsReport renders every Stats counter, the read-latency
// N/mean/p50/p99 and the rank-state residency totals of a finalized
// controller.
func writeStatsReport(b *strings.Builder, c *Controller) {
	st, a := c.Stats(), c.Activity()
	row := func(k string, v any) { fmt.Fprintf(b, "%s %v\n", k, v) }
	row("reads", st.Reads)
	row("writes", st.Writes)
	row("activations", st.Activations)
	row("refreshes", st.Refreshes)
	row("row_hits", st.RowHits)
	row("row_misses", st.RowMisses)
	row("row_conflicts", st.RowConflicts)
	row("wakeups", st.WakeUps)
	row("read_latency_n", st.ReadLatency.N())
	ns := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row("read_latency_mean_ns", ns(st.ReadLatency.Mean()))
	row("read_latency_p50_ns", ns(st.ReadLatency.Percentile(50)))
	row("read_latency_p99_ns", ns(st.ReadLatency.Percentile(99)))
	row("active_ps", int64(a.ActiveT))
	row("standby_ps", int64(a.StandbyT))
	row("powerdown_ps", int64(a.PowerDnT))
	row("selfrefresh_ps", int64(a.SelfRefT))
}

// TestRefreshEquivalenceGolden holds every case of the matrix to the
// per-rank-refresh build's output.
func TestRefreshEquivalenceGolden(t *testing.T) {
	for _, tc := range refreshEquivCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "refresh_equiv", tc.name+".txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if got := refreshEquivReport(t, tc.cfg); got != string(want) {
				t.Errorf("diverged from the per-rank-refresh golden:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
