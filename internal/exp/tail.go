package exp

import (
	"fmt"

	"greendimm/internal/core"
	"greendimm/internal/dram"
	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/report"
	"greendimm/internal/sim"
	"greendimm/internal/workload"
)

// TailRow is one service's tail-latency comparison.
type TailRow struct {
	App          string
	BaseP95us    float64
	BaseP99us    float64
	GDP95us      float64
	GDP99us      float64
	DaemonEvents int64 // steady-state on/off-linings during the measured window
}

// TailResult backs the paper's §6.2 claim that GreenDIMM does not harm
// the tail latency of latency-critical services (data-caching,
// data-serving, web-serving): their footprints are constant, so after the
// initial drain the daemon does nothing.
type TailResult struct {
	Rows []TailRow
}

// RunTailLatency runs each latency-critical service as an open-loop
// request/response server against the detailed memory simulator, with and
// without a live GreenDIMM daemon sharing the machine, and compares
// response-time percentiles. This is the repository's fullest integration
// run: workload, controller, kernel, hotplug and daemon all in one
// simulation. The (service, with/without daemon) matrix is flattened into
// one sweep of independent cells.
func RunTailLatency(opts Options) (TailResult, error) {
	var profs []workload.Profile
	for _, prof := range workload.Datacenter() {
		if prof.LatencyCritical {
			profs = append(profs, prof)
		}
	}
	cells := make([]tailCell, 2*len(profs))
	err := opts.sweepCells(len(cells), func(i int, h Hooks) error {
		prof, withDaemon := profs[i/2], i%2 == 1
		cell, err := memoTailService(opts.cellOptions(h), prof, withDaemon)
		if err != nil {
			mode := "base"
			if withDaemon {
				mode = "greendimm"
			}
			return fmt.Errorf("%s %s: %w", prof.Name, mode, err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return TailResult{}, err
	}
	var res TailResult
	for i, prof := range profs {
		base, gd := cells[2*i], cells[2*i+1]
		res.Rows = append(res.Rows, TailRow{
			App:          prof.Name,
			BaseP95us:    base.Stats.Percentile95,
			BaseP99us:    base.Stats.Percentile99,
			GDP95us:      gd.Stats.Percentile95,
			GDP99us:      gd.Stats.Percentile99,
			DaemonEvents: gd.Events,
		})
	}
	return res, nil
}

type tailStats struct {
	Percentile95 float64
	Percentile99 float64
}

// runService simulates ~2s of service traffic; when withDaemon is set, a
// GreenDIMM daemon (100ms period, scaled from 1s to fit the window)
// off-lines the machine's free memory concurrently and charges its CPU
// cost to the server.
func runService(prof workload.Profile, withDaemon bool, opts Options) (tailStats, int64, error) {
	org := dram.Org64GB()
	eng := opts.newEngine()
	mem, err := kernel.New(kernel.Config{
		TotalBytes:          org.TotalBytes(),
		PageBytes:           1 << 20,
		KernelReservedBytes: 1 << 30,
		Seed:                opts.Seed,
	})
	if err != nil {
		return tailStats{}, 0, err
	}
	defer mem.Release() // see runTiming
	ctrl, err := mc.New(eng, mc.Config{
		Org: org, Timing: dram.DDR4_2133(), Interleaved: true, LowPower: true,
	})
	if err != nil {
		return tailStats{}, 0, err
	}
	defer ctrl.Release()
	// Fixed horizon regardless of Quick: the daemon needs its initial
	// drain (one-time, ~1s at the 100ms scaled period) to finish inside
	// the warm-up so the measured window sees steady state, as a long-
	// running service would.
	horizon := 2 * sim.Second
	warmup := horizon * 3 / 5
	svcProf := prof
	if svcProf.FootprintMB > 8<<10 {
		svcProf.FootprintMB = 8 << 10
	}
	svc, err := workload.NewService(eng, mem, ctrl, workload.ServiceConfig{
		Profile:       svcProf,
		Owner:         70,
		OpsPerSec:     20000,
		AccessesPerOp: 8,
		ComputePerOp:  12 * sim.Microsecond,
		Warmup:        warmup,
		Seed:          opts.Seed + 5,
		// 25% above the expected 20000/s x 0.8s measured window: the
		// sample buffer is preallocated and never decimates, so the
		// percentiles are computed over the identical full sample set.
		SampleCap: 20000,
	})
	if err != nil {
		return tailStats{}, 0, err
	}
	defer svc.Latency().Release()

	var daemon *core.Daemon
	var warm core.Stats
	if withDaemon {
		// 1GB blocks (the 64GB machine's sub-array-group size) keep the
		// one-time drain to ~55 operations.
		hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: 1 << 30, Seed: opts.Seed})
		if err != nil {
			return tailStats{}, 0, err
		}
		daemon, err = core.New(eng, mem, hp, ctrl, core.Config{
			Period:            100 * sim.Millisecond,
			MaxOfflinePerTick: 64,
			Seed:              opts.Seed,
		})
		if err != nil {
			return tailStats{}, 0, err
		}
		// The daemon occupies one of the machine's 16 cores; the service
		// loses that share of capacity, not the whole box.
		daemon.SetStallSink(func(d sim.Time) { svc.Stall(d / 16) })
		daemon.Start()
	}
	svc.Start()
	eng.RunUntil(warmup)
	if daemon != nil {
		warm = daemon.Stats()
	}
	eng.RunUntil(horizon)
	ctrl.Finalize()
	// See runTiming: interruption is an error, not a result.
	if eng.Interrupted() {
		return tailStats{}, 0, ErrInterrupted
	}

	if svc.Latency().N() == 0 {
		return tailStats{}, 0, fmt.Errorf("exp: no latency samples for %s", prof.Name)
	}
	var events int64
	if daemon != nil {
		ds := daemon.Stats()
		events = (ds.Offlines + ds.Onlines) - (warm.Offlines + warm.Onlines)
	}
	return tailStats{
		Percentile95: svc.Latency().Percentile(95),
		Percentile99: svc.Latency().Percentile(99),
	}, events, nil
}

// Table renders the comparison.
func (r TailResult) Table() *report.Table {
	t := report.NewTable("Tail latency of latency-critical services (us), base vs under GreenDIMM",
		"p95", "p99", "p95 gd", "p99 gd", "steady events")
	for _, row := range r.Rows {
		t.AddRow(row.App, row.BaseP95us, row.BaseP99us, row.GDP95us, row.GDP99us,
			float64(row.DaemonEvents))
	}
	return t
}

// MaxP99InflationPct reports the worst p99 increase under GreenDIMM.
func (r TailResult) MaxP99InflationPct() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.BaseP99us <= 0 {
			continue
		}
		if inc := (row.GDP99us/row.BaseP99us - 1) * 100; inc > worst {
			worst = inc
		}
	}
	return worst
}
