package exp

import (
	"fmt"

	"greendimm/internal/baseline"
	"greendimm/internal/dram"
	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/power"
	"greendimm/internal/sim"
	"greendimm/internal/workload"
)

// TimingRun is one detailed (request-level) run of N copies of an
// application on the 64GB machine: the measurement behind Figs. 3, 9, 10
// and 11.
type TimingRun struct {
	App         string
	Interleaved bool
	Copies      int
	Runtime     sim.Time
	Activity    power.Activity
	Occupancy   baseline.Occupancy
	SelfRefFrac float64 // fraction of rank-time in self-refresh (Fig. 3b)
	AvgLatency  sim.Time
	CPUUtil     float64 // core-utilization estimate for system power
}

// timingConfig parameterizes runTiming.
type timingConfig struct {
	prof        workload.Profile
	interleaved bool
	copies      int
	accesses    int64 // per copy
	seed        int64
	hooks       Hooks
}

// runTiming executes the run and collects controller activity.
func runTiming(cfg timingConfig) (TimingRun, error) {
	org := dram.Org64GB()
	eng := cfg.hooks.newEngine()
	mem, err := kernel.New(kernel.Config{
		TotalBytes: org.TotalBytes(),
		PageBytes:  1 << 20, // 1MB frames keep the page array compact
	})
	if err != nil {
		return TimingRun{}, err
	}
	// The machine ends with this run: its storage goes to the next cell's
	// boot. Nothing returned below aliases it.
	defer mem.Release()
	ctrl, err := mc.New(eng, mc.Config{
		Org:         org,
		Timing:      dram.DDR4_2133(),
		Interleaved: cfg.interleaved,
		LowPower:    true,
	})
	if err != nil {
		return TimingRun{}, err
	}
	defer ctrl.Release()
	prof := cfg.prof
	copies := cfg.copies
	if copies <= 0 {
		copies = 1
	}
	// Fit the multiprogrammed footprint comfortably in memory.
	if int64(prof.FootprintMB)*int64(copies) > 48<<10 {
		prof.FootprintMB = 48 << 10 / int64(copies)
	}
	remaining := copies
	var cores []*workload.Core
	for i := 0; i < copies; i++ {
		c, err := workload.NewCore(eng, mem, ctrl, workload.CoreConfig{
			Profile:  prof,
			Owner:    uint32(100 + i),
			Accesses: cfg.accesses,
			Seed:     cfg.seed + int64(i)*7919,
		})
		if err != nil {
			return TimingRun{}, fmt.Errorf("copy %d: %w", i, err)
		}
		c.OnDone(func() { remaining-- })
		cores = append(cores, c)
	}
	occ := baseline.Scan(mem, ctrl.Mapper())
	for _, c := range cores {
		c.Start()
	}
	eng.Run()
	// An interrupted run must surface as an error, never as partial
	// stats: a partial cell that escaped with err == nil would poison
	// the shared memo and the durable job journal with wrong-but-
	// plausible bytes.
	if eng.Interrupted() {
		return TimingRun{}, ErrInterrupted
	}
	if remaining != 0 {
		return TimingRun{}, fmt.Errorf("exp: %d copies of %s unfinished", remaining, prof.Name)
	}
	ctrl.Finalize()

	var latSum sim.Time
	for _, c := range cores {
		latSum += c.AvgLatency()
	}
	// CPU utilization: copies of a core each busy for the whole run on a
	// 16-core machine (memory stalls still burn package power; the
	// paper's RAPL numbers behave the same way).
	util := float64(copies) / 16
	if util > 1 {
		util = 1
	}
	return TimingRun{
		App:         prof.Name,
		Interleaved: cfg.interleaved,
		Copies:      copies,
		Runtime:     eng.Now(),
		Activity:    ctrl.Activity(),
		Occupancy:   occ,
		SelfRefFrac: ctrl.SelfRefreshFraction(),
		AvgLatency:  latSum / sim.Time(len(cores)),
		CPUUtil:     util,
	}, nil
}

// copiesFor picks the multiprogramming degree: SPEC runs are
// rate-style multi-copy (the paper's measurements use 16 copies of mcf);
// big-footprint datacenter services run fewer instances.
func copiesFor(prof workload.Profile) int {
	if prof.FootprintMB >= 3000 {
		return 2
	}
	return 8
}

// dramPowerW converts a run's activity into average DRAM power under a
// given policy adjustment.
func dramPowerW(model *power.Model, a power.Activity) (float64, error) {
	b, err := model.FromActivity(a)
	if err != nil {
		return 0, err
	}
	return b.TotalW(), nil
}
