package exp

import (
	"fmt"

	"greendimm/internal/core"
	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/sim"
	"greendimm/internal/workload"
)

// DynamicsRun is one footprint-dynamics run of GreenDIMM against an
// application on the 64GB machine: the measurement behind Figs. 6, 7, 8,
// 11 and Tables 2/3. No individual memory requests are simulated; the
// kernel allocator, hotplug manager and daemon run for real over the
// application's footprint curve.
type DynamicsRun struct {
	App      string
	BlockMB  int64
	Duration sim.Time

	// OnOffEvents counts on-linings + off-linings after the warm-up burst
	// (the first 10%% of the run, when the daemon drains the initially
	// free region) — the steady-state churn Table 2 reports.
	OnOffEvents    int64
	Offlines       int64 // full-run counts
	Onlines        int64
	EBusyFailures  int64
	EAgainFailures int64

	OfflinedEndBytes int64   // capacity off-lined when the run ends (Fig. 6)
	OfflinedAvgBytes float64 // time-weighted average
	AvgDPDFrac       float64 // machine-wide deep-power-down fraction

	OverheadFrac float64 // execution-time increase estimate (Figs. 7/11)

	OfflineLatMeanMs float64 // Table 3 rows
	OnlineLatMeanMs  float64
	EBusyLatMeanMs   float64
	EAgainLatMeanMs  float64
}

// dynamicsConfig parameterizes runDynamics.
type dynamicsConfig struct {
	prof     workload.Profile
	blockMB  int64
	duration sim.Time
	policy   core.PolicySpec
	// movableGB bounds off-lining to a movablecore=-style region at the
	// top of memory (0: whole memory eligible).
	movableGB int64
	// groupMB is the sub-array-group (power-management unit) size.
	groupMB int64
	// failProb is the hotplug per-attempt migration failure probability.
	failProb float64
	// leakEvery scatters kernel pages into the region (Fig. 8 setup).
	leakEvery int
	seed      int64
	hooks     Hooks
}

// indirectStallPerEvent models the execution-time cost of one on/off-lining
// beyond the raw operation latency: TLB shootdowns, page-table walk misses
// and cache pollution after page migration. Memory-intensive applications
// (high MPKI) pay more per event. Calibrated so Fig. 7's band (<3% at
// 128MB blocks) holds; see EXPERIMENTS.md.
func indirectStallPerEvent(prof workload.Profile) sim.Time {
	return sim.Time(float64(4*sim.Millisecond) + 0.7*prof.MPKI*float64(sim.Millisecond))
}

// runDynamics plays the footprint curve under a GreenDIMM daemon.
func runDynamics(cfg dynamicsConfig) (DynamicsRun, error) {
	const totalBytes = 64 << 30
	const pageBytes = 1 << 20
	eng := cfg.hooks.newEngine()
	kcfg := kernel.Config{
		TotalBytes:          totalBytes,
		PageBytes:           pageBytes,
		KernelReservedBytes: 1 << 30, // the kernel's own ~1GB
		Seed:                cfg.seed,
	}
	if cfg.movableGB > 0 {
		kcfg.MovableBytes = cfg.movableGB << 30
	}
	if cfg.leakEvery > 0 {
		kcfg.UnmovableLeakEvery = cfg.leakEvery
	}
	mem, err := kernel.New(kcfg)
	if err != nil {
		return DynamicsRun{}, err
	}
	defer mem.Release() // see runTiming
	hp, err := hotplug.New(mem, hotplug.Config{
		BlockBytes:             cfg.blockMB << 20,
		MigrateAttemptFailProb: cfg.failProb,
		Seed:                   cfg.seed,
	})
	if err != nil {
		return DynamicsRun{}, err
	}
	groupMB := cfg.groupMB
	if groupMB == 0 {
		groupMB = totalBytes >> 20 / 64
	}
	ctrl := core.NewRegisterController(eng, int(totalBytes/(groupMB<<20)))
	dcfg := core.Config{
		Period: sim.Second,
		Policy: cfg.policy,
		// A tight on/off hysteresis band: the paper's daemon reacts to
		// footprint swings of a few hundred MB (Table 2's churn), which
		// requires on_thr close to off_thr.
		OffThr:     0.10,
		OnThr:      0.085,
		GroupBytes: groupMB << 20,
		Seed:       cfg.seed,
	}
	if cfg.movableGB > 0 {
		dcfg.OfflinableBytes = cfg.movableGB << 30
	}
	daemon, err := core.New(eng, mem, hp, ctrl, dcfg)
	if err != nil {
		return DynamicsRun{}, err
	}
	var stall sim.Time
	daemon.SetStallSink(func(d sim.Time) { stall += d })
	daemon.AttachKernelTap()

	const owner = 50
	fd, err := workload.NewFootprintDriver(eng, mem, cfg.prof, owner,
		cfg.duration, 500*sim.Millisecond)
	if err != nil {
		return DynamicsRun{}, err
	}
	// Tracker-driven policies additionally see the application touch its
	// resident set, not just allocate/free events (no-op otherwise).
	if tap := daemon.AccessTap(); tap != nil {
		fd.SetAccessTap(tap)
	}
	fd.Start()
	daemon.Start()
	eng.RunUntil(cfg.duration / 10)
	warm := daemon.Stats()
	eng.RunUntil(cfg.duration)
	daemon.Stop()
	// See runTiming: interruption is an error, not a result.
	if eng.Interrupted() {
		return DynamicsRun{}, ErrInterrupted
	}

	ds := daemon.Stats()
	hs := hp.Stats()
	events := (ds.Offlines + ds.Onlines) - (warm.Offlines + warm.Onlines)
	allEvents := ds.Offlines + ds.Onlines
	overhead := (float64(stall) + float64(allEvents)*float64(indirectStallPerEvent(cfg.prof))) /
		float64(cfg.duration)
	return DynamicsRun{
		App:              cfg.prof.Name,
		BlockMB:          cfg.blockMB,
		Duration:         cfg.duration,
		OnOffEvents:      events,
		Offlines:         ds.Offlines,
		Onlines:          ds.Onlines,
		EBusyFailures:    ds.EBusyFailures,
		EAgainFailures:   ds.EAgainFailures,
		OfflinedEndBytes: daemon.OfflinedBytes(),
		OfflinedAvgBytes: daemon.AvgOfflinedBlocks() * float64(hp.BlockBytes()),
		AvgDPDFrac:       daemon.AvgDPDFraction(),
		OverheadFrac:     overhead,
		OfflineLatMeanMs: hs.OfflineLat.Mean(),
		OnlineLatMeanMs:  hs.OnlineLat.Mean(),
		EBusyLatMeanMs:   hs.EBusyLat.Mean(),
		EAgainLatMeanMs:  hs.EAgainLat.Mean(),
	}, nil
}

// specDynApps returns the six §5.1 applications in the paper's order.
func specDynApps() ([]workload.Profile, error) {
	names := []string{"429.mcf", "403.gcc", "450.soplex", "470.lbm", "462.libquantum", "453.povray"}
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("exp: unknown profile %s", n)
		}
		out[i] = p
	}
	return out, nil
}
