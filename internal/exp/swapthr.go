package exp

import (
	"fmt"

	"greendimm/internal/core"
	"greendimm/internal/kernel"
	"greendimm/internal/report"
	"greendimm/internal/sim"
	"greendimm/internal/workload"
)

// SwapThrRow is one off_thr setting's thrashing measurement.
type SwapThrRow struct {
	Label       string
	OffThr      float64
	Adaptive    bool
	SwapOutGB   float64
	SwapInGB    float64
	SlowdownPct float64 // estimated from swap I/O time over the run
	Onlines     int64
	OfflinedGB  float64 // time-averaged off-lined capacity
}

// SwapThrResult backs the paper's §4.2 observation: "the system
// performance dramatically degrades when the threshold is less than 10%
// because pages are frequently swapped between the main memory and the
// storage." A bursty workload against an aggressively off-lined machine
// must fault through the swap device whenever a burst outruns the
// daemon's 1-second on-lining loop; a 10% reserve absorbs the bursts.
type SwapThrResult struct {
	Rows []SwapThrRow
}

// swapCostPerPage is the modelled I/O time to move one 1MB frame to or
// from an NVMe-class swap device (~3GB/s effective).
const swapCostPerPage = 330 * sim.Microsecond

// RunSwapThreshold sweeps off_thr under a bursty footprint, plus the
// adaptive "+ alpha" policy over a tight 2% base. The five settings run
// as independent sweep cells.
func RunSwapThreshold(opts Options) (SwapThrResult, error) {
	settings := []struct {
		thr      float64
		adaptive bool
	}{
		{0.02, false}, {0.05, false}, {0.10, false}, {0.20, false}, {0.02, true},
	}
	rows := make([]SwapThrRow, len(settings))
	err := opts.sweepCells(len(settings), func(i int, h Hooks) error {
		s := settings[i]
		row, err := runSwapCell(s.thr, s.adaptive, opts.cellOptions(h))
		if err != nil {
			if s.adaptive {
				return fmt.Errorf("adaptive: %w", err)
			}
			return fmt.Errorf("off_thr %.2f: %w", s.thr, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return SwapThrResult{}, err
	}
	return SwapThrResult{Rows: rows}, nil
}

func runSwapCell(offThr float64, adaptive bool, opts Options) (SwapThrRow, error) {
	const totalBytes = 64 << 30
	const pageBytes = 1 << 20
	const owner = 80
	eng := opts.newEngine()
	mem, err := kernel.New(kernel.Config{
		TotalBytes: totalBytes, PageBytes: pageBytes,
		KernelReservedBytes: 1 << 30, Seed: opts.Seed,
	})
	if err != nil {
		return SwapThrRow{}, err
	}
	defer mem.Release() // see runTiming
	mem.ConfigureSwap(32 << 30)
	// Direct reclaim: the faulting application evicts its own coldest
	// pages, kswapd-style.
	mem.SetReclaimer(func(pages int64) bool {
		n, err := mem.SwapOutOwnerPages(owner, pages+256)
		return err == nil && n > 0
	})
	hp, err := newHotplugBlock(mem, 512<<20, opts.Seed)
	if err != nil {
		return SwapThrRow{}, err
	}
	ctrl := core.NewRegisterController(eng, 64)
	daemon, err := core.New(eng, mem, hp, ctrl, core.Config{
		Period:            sim.Second,
		OffThr:            offThr,
		OnThr:             offThr * 0.7,
		AdaptiveAlpha:     adaptive,
		MaxOfflinePerTick: 16,
		Seed:              opts.Seed,
	})
	if err != nil {
		return SwapThrRow{}, err
	}
	// Bursty footprint: 2GB base with repeated sharp 6GB spikes.
	prof := workload.Profile{
		Name: "bursty", MPKI: 20, FootprintMB: 8 << 10, IPC: 1, MLP: 4,
		ReadFrac: 0.7, SeqProb: 0.5,
		Phases: burstPhases(10, 0.25, 1.0),
	}
	const duration = 120 * sim.Second
	fd, err := workload.NewFootprintDriver(eng, mem, prof, owner, duration, 500*sim.Millisecond)
	if err != nil {
		return SwapThrRow{}, err
	}
	// The application touches its whole working set: swapped pages fault
	// back in between bursts (the other half of a thrash round trip).
	var faultIn func()
	faultIn = func() {
		if n := mem.SwappedPageCount(owner); n > 0 {
			_, _ = mem.SwapInOwnerPages(owner, n)
		}
		if eng.Now() < duration {
			eng.AfterDaemon(700*sim.Millisecond, faultIn)
		}
	}
	fd.Start()
	daemon.Start()
	eng.AtDaemon(300*sim.Millisecond, faultIn)
	eng.RunUntil(duration)

	outs, ins := mem.SwapTraffic()
	ioTime := sim.Time(outs+ins) * swapCostPerPage
	label := fmt.Sprintf("off_thr %.0f%%", offThr*100)
	if adaptive {
		label = fmt.Sprintf("off_thr %.0f%% + alpha", offThr*100)
	}
	return SwapThrRow{
		Label:       label,
		OffThr:      offThr,
		Adaptive:    adaptive,
		SwapOutGB:   float64(outs) * pageBytes / float64(1<<30),
		SwapInGB:    float64(ins) * pageBytes / float64(1<<30),
		SlowdownPct: float64(ioTime) / float64(duration) * 100,
		Onlines:     daemon.Stats().Onlines,
		OfflinedGB:  daemon.AvgOfflinedBlocks() * float64(hp.BlockBytes()) / float64(1<<30),
	}, nil
}

// burstPhases builds n sharp spikes: short peaks over a low base.
func burstPhases(n int, lo, hi float64) []workload.PhasePoint {
	pts := make([]workload.PhasePoint, 0, 3*n+1)
	for i := 0; i < n; i++ {
		base := float64(i) / float64(n)
		w := 1.0 / float64(n)
		pts = append(pts,
			workload.PhasePoint{Progress: base, Frac: lo},
			workload.PhasePoint{Progress: base + 0.55*w, Frac: lo},
			workload.PhasePoint{Progress: base + 0.65*w, Frac: hi},
		)
	}
	return append(pts, workload.PhasePoint{Progress: 1, Frac: lo})
}

// Table renders the sweep.
func (r SwapThrResult) Table() *report.Table {
	t := report.NewTable("Swap-threshold ablation: off_thr vs thrashing (bursty 8GB workload, 120s)",
		"swap-out GB", "swap-in GB", "est. slowdown %", "onlines", "offlined GB")
	for _, row := range r.Rows {
		t.AddRow(row.Label,
			row.SwapOutGB, row.SwapInGB, row.SlowdownPct, float64(row.Onlines), row.OfflinedGB)
	}
	return t
}
