package mc

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greendimm/internal/addr"
	"greendimm/internal/dram"
	"greendimm/internal/sim"
)

// The files under testdata/frfcfs_equiv were written by the build that
// kept one FR-FCFS queue per channel and rescanned all of it on every
// pick. Comparing against them proves the per-bank queues issue the same
// request at every step: each request's completion instant, in completion
// order, plus every Stats counter and the rank state residencies.

// frfcfsEquivCases spans {contiguous, interleaved} x {open, closed page},
// with the default idle policy so that wake-ups stagger rank readiness.
func frfcfsEquivCases() []refreshEquivCase {
	var out []refreshEquivCase
	for _, interleaved := range []bool{false, true} {
		for _, closed := range []bool{false, true} {
			mapping, page := "contiguous", "open"
			if interleaved {
				mapping = "interleaved"
			}
			if closed {
				page = "closed"
			}
			out = append(out, refreshEquivCase{
				name: mapping + "_" + page,
				cfg: Config{
					Org: dram.Org64GB(), Timing: dram.DDR4_2133(),
					Interleaved: interleaved, ClosedPage: closed,
					LowPower: true, MaxQueue: 20,
				},
			})
		}
	}
	return out
}

// issueRecorder logs each completion as "id completion_ps".
type issueRecorder struct {
	eng *sim.Engine
	b   strings.Builder
}

func (r *issueRecorder) Complete(id uint64, _ sim.Time) {
	fmt.Fprintf(&r.b, "%d %d\n", id, int64(r.eng.Now()))
}

// driveFRFCFSEquiv submits n seeded requests in bursts that all arrive at
// one instant (or two, a few ns apart), so queues run deep, arrival ties
// are the rule and MaxQueue turns requests away ("full id" lines). A
// burst is one of three shapes:
//   - hot bank: 6-24 requests spread over 2-4 rows of one bank, so a
//     bank's oldest request is often not its open-row hit;
//   - stream: 4-16 consecutive lines from a random base;
//   - scatter: 4-16 random lines across the whole capacity.
//
// Gaps between bursts are mostly short; one in ten is 5-80 us, past the
// power-down timeout, so wake-ups make ranks ready at different times.
func driveFRFCFSEquiv(eng *sim.Engine, c *Controller, rec *issueRecorder, seed int64, n int) {
	g := sim.NewRNG(seed)
	o := c.cfg.Org
	m := c.mapper
	lines := uint64(o.TotalBytes()) / 64
	rowSpan := o.Rows()
	cols := o.Columns / o.BurstLength
	next := uint64(1)

	submit := func(pa uint64, write bool) {
		id := next
		next++
		if err := c.SubmitCall(pa, write, rec, id); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				panic(err)
			}
			fmt.Fprintf(&rec.b, "full %d\n", id)
		}
	}
	var burst func()
	burst = func() {
		var addrs []uint64
		switch r := g.Float64(); {
		case r < 0.45:
			l := addr.Loc{
				Channel:   g.Intn(o.Channels),
				Rank:      g.Intn(o.RanksPerChannel()),
				BankGroup: g.Intn(o.BankGroups),
				Bank:      g.Intn(o.BanksPerGroup),
			}
			rows := make([]int, 2+g.Intn(3))
			for i := range rows {
				rows[i] = g.Intn(rowSpan)
			}
			for k := 6 + g.Intn(19); k > 0; k-- {
				l.Row, l.Col = rows[g.Intn(len(rows))], g.Intn(cols)
				addrs = append(addrs, m.Encode(l))
			}
		case r < 0.75:
			pa := g.Uint64() % lines * 64
			for k := 4 + g.Intn(13); k > 0 && pa < lines*64; k-- {
				addrs = append(addrs, pa)
				pa += 64
			}
		default:
			for k := 4 + g.Intn(13); k > 0; k-- {
				addrs = append(addrs, g.Uint64()%lines*64)
			}
		}
		split := len(addrs)
		if g.Bool(0.3) {
			split = g.Intn(len(addrs))
		}
		for _, pa := range addrs[:split] {
			submit(pa, g.Bool(0.3))
		}
		if rest := addrs[split:]; len(rest) > 0 {
			writes := make([]bool, len(rest))
			for i := range writes {
				writes[i] = g.Bool(0.3)
			}
			eng.After(sim.Time(1+g.Intn(20))*sim.Nanosecond, func() {
				for i, pa := range rest {
					submit(pa, writes[i])
				}
			})
		}
		if next+uint64(len(addrs)) > uint64(n) {
			return
		}
		gap := sim.Time(100+g.Intn(1900)) * sim.Nanosecond
		if g.Bool(0.1) {
			gap = sim.Time(5+g.Intn(75)) * sim.Microsecond
		}
		eng.After(gap, burst)
	}
	eng.At(sim.Microsecond, burst)
}

// frfcfsEquivReport runs one case and renders the completion log, then
// the controller's writeStatsReport, and releases the controller.
func frfcfsEquivReport(t *testing.T, cfg Config) string {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &issueRecorder{eng: eng}
	driveFRFCFSEquiv(eng, c, rec, 11, 2500)
	eng.Run()
	c.Finalize()
	writeStatsReport(&rec.b, c)
	c.Release()
	return rec.b.String()
}

// TestFRFCFSIssueOrderGolden holds every case to the single-queue
// build's completion log. Each case runs twice, the second time on the
// read-latency buffers the first run's controller released.
func TestFRFCFSIssueOrderGolden(t *testing.T) {
	for _, tc := range frfcfsEquivCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "frfcfs_equiv", tc.name+".txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			for run := 1; run <= 2; run++ {
				got := frfcfsEquivReport(t, tc.cfg)
				if got == string(want) {
					continue
				}
				g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(g) && i < len(w); i++ {
					if g[i] != w[i] {
						t.Fatalf("run %d diverged from the single-queue golden at line %d: got %q, want %q", run, i+1, g[i], w[i])
					}
				}
				t.Fatalf("run %d diverged from the single-queue golden: %d lines, want %d", run, len(g), len(w))
			}
		})
	}
}
