package exp

import (
	"fmt"

	"greendimm/internal/dram"
	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/ramzzz"
	"greendimm/internal/report"
	"greendimm/internal/sim"
)

// RAMZzzRow is one mapping's measurement.
type RAMZzzRow struct {
	Interleaved   bool
	WithDaemon    bool
	SRFraction    float64
	MigratedPages int64
}

// RAMZzzResult validates the implemented RAMZzz daemon (internal/ramzzz)
// against the analytic model the Fig. 9 comparison uses: on a contiguous
// mapping with a footprint scattered over several ranks, migrations
// consolidate data and raise self-refresh residency; on an interleaved
// mapping the daemon is inert — the paper's core criticism.
type RAMZzzResult struct {
	Rows []RAMZzzRow
}

// RunRAMZzz executes the four-cell comparison, one sweep cell per
// (mapping, daemon) combination.
func RunRAMZzz(opts Options) (RAMZzzResult, error) {
	rows := make([]RAMZzzRow, 4)
	err := opts.sweepCells(len(rows), func(i int, h Hooks) error {
		interleaved, withDaemon := i/2 == 1, i%2 == 1
		row, err := runRAMZzzCell(interleaved, withDaemon, opts.cellOptions(h))
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return RAMZzzResult{}, err
	}
	return RAMZzzResult{Rows: rows}, nil
}

func runRAMZzzCell(interleaved, withDaemon bool, opts Options) (RAMZzzRow, error) {
	org := dram.Org64GB()
	eng := opts.newEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: org.TotalBytes(), PageBytes: 1 << 20})
	if err != nil {
		return RAMZzzRow{}, err
	}
	ctrl, err := mc.New(eng, mc.Config{
		Org: org, Timing: dram.DDR4_2133(), Interleaved: interleaved, LowPower: true,
	})
	if err != nil {
		return RAMZzzRow{}, err
	}
	// A hot 2GB owner in (half of) rank 0 plus cold remnants scattered
	// over ranks 1 and 2 — the fragmentation RAMZzz repairs by packing
	// the remnants into rank 0's free space.
	if _, err := mem.AllocPages(2048, true, 10); err != nil {
		return RAMZzzRow{}, err
	}
	for o := uint32(11); o < 13; o++ {
		if _, err := mem.AllocPages(4096, true, o); err != nil {
			return RAMZzzRow{}, err
		}
	}
	mem.FreeOwnerPages(11, 4096-256)
	mem.FreeOwnerPages(12, 4096-256)

	var daemon *ramzzz.Daemon
	if withDaemon {
		cfg := ramzzz.DefaultConfig()
		cfg.Epoch = opts.horizon(200*sim.Millisecond) / 8
		daemon, err = ramzzz.New(eng, mem, ctrl.Mapper(), ctrl, cfg)
		if err != nil {
			return RAMZzzRow{}, err
		}
		daemon.Start()
	}
	// Mostly-hot traffic to owner 10, with a trickle (3%) to the cold
	// remnants: enough to keep their ranks bouncing out of self-refresh
	// until RAMZzz relocates the data (the cold-rank problem RAMZzz
	// solves).
	g := sim.NewRNG(opts.Seed + 77)
	horizon := opts.horizon(200 * sim.Millisecond)
	var tick func()
	tick = func() {
		owner := uint32(10)
		if g.Bool(0.03) {
			owner = uint32(11 + g.Intn(2))
		}
		n := mem.OwnerPageCount(owner)
		pfn := mem.OwnerPage(owner, g.Int63n(n))
		off := uint64(g.Int63n(mem.PageBytes()/64) * 64)
		_ = ctrl.SubmitCall(uint64(pfn)*uint64(mem.PageBytes())+off, false, nil, 0)
		if eng.Now() < horizon {
			eng.After(1*sim.Microsecond, tick)
		}
	}
	eng.At(0, tick)
	eng.RunUntil(horizon)
	ctrl.Finalize()

	row := RAMZzzRow{Interleaved: interleaved, WithDaemon: withDaemon,
		SRFraction: ctrl.SelfRefreshFraction()}
	if daemon != nil {
		row.MigratedPages = daemon.Stats().MigratedPages
	}
	return row, nil
}

// Table renders the comparison.
func (r RAMZzzResult) Table() *report.Table {
	t := report.NewTable("RAMZzz (implemented) vs mapping: self-refresh residency",
		"sr frac", "migrated pages")
	for _, row := range r.Rows {
		label := "contiguous"
		if row.Interleaved {
			label = "interleaved"
		}
		if row.WithDaemon {
			label += " + ramzzz"
		}
		t.AddRow(label, row.SRFraction, float64(row.MigratedPages))
	}
	return t
}

// Find returns the row for a configuration.
func (r RAMZzzResult) Find(interleaved, withDaemon bool) (RAMZzzRow, error) {
	for _, row := range r.Rows {
		if row.Interleaved == interleaved && row.WithDaemon == withDaemon {
			return row, nil
		}
	}
	return RAMZzzRow{}, fmt.Errorf("exp: missing RAMZzz cell")
}
