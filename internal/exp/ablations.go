package exp

import (
	"fmt"

	"greendimm/internal/core"
	"greendimm/internal/dram"
	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/power"
	"greendimm/internal/report"
	"greendimm/internal/sim"
	"greendimm/internal/workload"
)

// This file holds the ablation studies DESIGN.md §5 calls out: the design
// knobs the paper fixes (neighbor rule, thresholds, group granularity,
// DPD residual, rank idle timeouts), each isolated and swept.

// AblationResult aggregates every ablation table.
type AblationResult struct {
	NeighborRule *report.Table
	Thresholds   *report.Table
	GroupSize    *report.Table
	DPDResidual  *report.Table
	IdlePolicy   *report.Table
}

// RunAblations executes all ablations.
func RunAblations(opts Options) (AblationResult, error) {
	var res AblationResult
	var err error
	if res.NeighborRule, err = ablateNeighborRule(opts); err != nil {
		return res, fmt.Errorf("neighbor rule: %w", err)
	}
	if res.Thresholds, err = ablateThresholds(opts); err != nil {
		return res, fmt.Errorf("thresholds: %w", err)
	}
	if res.GroupSize, err = ablateGroupSize(opts); err != nil {
		return res, fmt.Errorf("group size: %w", err)
	}
	if res.DPDResidual, err = ablateDPDResidual(); err != nil {
		return res, fmt.Errorf("dpd residual: %w", err)
	}
	if res.IdlePolicy, err = ablateIdlePolicy(opts); err != nil {
		return res, fmt.Errorf("idle policy: %w", err)
	}
	return res, nil
}

// dynAblation runs the gcc dynamics scenario with a config mutator.
func dynAblation(opts Options, mutate func(*core.Config)) (*core.Daemon, error) {
	prof, ok := workload.ByName("403.gcc")
	if !ok {
		return nil, fmt.Errorf("exp: gcc missing")
	}
	const totalBytes = 64 << 30
	eng := opts.newEngine()
	mem, err := kernel.New(kernel.Config{
		TotalBytes: totalBytes, PageBytes: 1 << 20,
		KernelReservedBytes: 1 << 30, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	hp, err := newHotplug(mem, opts.Seed)
	if err != nil {
		return nil, err
	}
	dcfg := core.Config{Period: sim.Second, Seed: opts.Seed}
	mutate(&dcfg)
	groups := 64
	if dcfg.GroupBytes != 0 {
		groups = int(totalBytes / dcfg.GroupBytes)
	}
	ctrl := core.NewRegisterController(eng, groups)
	daemon, err := core.New(eng, mem, hp, ctrl, dcfg)
	if err != nil {
		return nil, err
	}
	fd, err := workload.NewFootprintDriver(eng, mem, prof, 50, 120*sim.Second, 500*sim.Millisecond)
	if err != nil {
		return nil, err
	}
	fd.Start()
	daemon.Start()
	eng.RunUntil(120 * sim.Second)
	return daemon, nil
}

func newHotplug(mem *kernel.Mem, seed int64) (hpManager, error) {
	return newHotplugBlock(mem, 128<<20, seed)
}

// ablateNeighborRule: the §6.1 sense-amp-sharing constraint costs some
// deep-power-down coverage for the same off-lined capacity.
func ablateNeighborRule(opts Options) (*report.Table, error) {
	rules := []bool{false, true}
	daemons := make([]*core.Daemon, len(rules))
	err := opts.sweepCells(len(rules), func(i int, h Hooks) error {
		rule := rules[i]
		d, err := dynAblation(opts.cellOptions(h), func(c *core.Config) { c.NeighborRule = rule })
		if err != nil {
			return err
		}
		daemons[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: neighbor rule (gcc, 120s)",
		"offlined GB", "avg DPD frac", "groups entered")
	for i, rule := range rules {
		d := daemons[i]
		label := "without rule"
		if rule {
			label = "with rule"
		}
		t.AddRow(label,
			float64(d.OfflinedBytes())/float64(1<<30),
			d.AvgDPDFraction(),
			float64(d.Stats().GroupsEntered))
	}
	return t, nil
}

// ablateThresholds: off_thr trades off-lined capacity against the risk of
// memory pressure (the paper observed thrashing below 10%).
func ablateThresholds(opts Options) (*report.Table, error) {
	thrs := []float64{0.05, 0.10, 0.20}
	daemons := make([]*core.Daemon, len(thrs))
	err := opts.sweepCells(len(thrs), func(i int, h Hooks) error {
		thr := thrs[i]
		d, err := dynAblation(opts.cellOptions(h), func(c *core.Config) {
			c.OffThr = thr
			c.OnThr = thr - 0.02
		})
		if err != nil {
			return err
		}
		daemons[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: off_thr reserve (gcc, 120s)",
		"offlined GB", "onlines", "events")
	for i, thr := range thrs {
		d := daemons[i]
		st := d.Stats()
		t.AddRow(fmt.Sprintf("off_thr %.0f%%", thr*100),
			float64(d.OfflinedBytes())/float64(1<<30),
			float64(st.Onlines),
			float64(st.Offlines+st.Onlines))
	}
	return t, nil
}

// ablateGroupSize: finer sub-array groups turn the same off-lined bytes
// into more deep-power-down coverage (less quantization loss).
func ablateGroupSize(opts Options) (*report.Table, error) {
	sizes := []int64{512, 1024, 2048}
	daemons := make([]*core.Daemon, len(sizes))
	err := opts.sweepCells(len(sizes), func(i int, h Hooks) error {
		groupMB := sizes[i]
		d, err := dynAblation(opts.cellOptions(h), func(c *core.Config) { c.GroupBytes = groupMB << 20 })
		if err != nil {
			return err
		}
		daemons[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: sub-array group size (gcc, 120s)",
		"groups", "avg DPD frac")
	for i, groupMB := range sizes {
		t.AddRow(fmt.Sprintf("%dMB", groupMB), float64(daemons[i].Groups()), daemons[i].AvgDPDFraction())
	}
	return t, nil
}

// ablateDPDResidual: how sensitive are the savings to the power-gate
// leakage + spare-row floor assumption?
func ablateDPDResidual() (*report.Table, error) {
	org := dram.Org64GB()
	t := report.NewTable("Ablation: deep power-down residual (64GB, 70% of groups down)",
		"idle W", "vs 0% residual")
	base := 0.0
	for i, residual := range []float64{0, 0.01, 0.02, 0.05, 0.10} {
		model, err := power.NewModel(org)
		if err != nil {
			return nil, err
		}
		model.DPDResidual = residual
		ranks := float64(org.TotalRanks())
		w := model.RankBackgroundW(dram.StatePrechargeStandby, 0.7)*ranks +
			model.RefEnergyJ(0.7)/model.Timing.TREFI.Seconds()*ranks +
			model.DIMMStaticTotalW()
		if i == 0 {
			base = w
		}
		t.AddRow(fmt.Sprintf("%.0f%%", residual*100), w, w/base)
	}
	return t, nil
}

// ablateIdlePolicy sweeps the controller's rank idle timeouts under a
// small-footprint contiguous workload — the §1 tension: aggressive
// management sleeps more but pays more wake-ups and latency.
func ablateIdlePolicy(opts Options) (*report.Table, error) {
	type pol struct {
		name   string
		pd, sr sim.Time
	}
	pols := []pol{
		{"aggressive (0.2us/4us)", 200 * sim.Nanosecond, 4 * sim.Microsecond},
		{"default (1us/64us)", sim.Microsecond, 64 * sim.Microsecond},
		{"conservative (10us/1ms)", 10 * sim.Microsecond, sim.Millisecond},
	}
	type polOut struct {
		srFrac  float64
		wakeups int64
		avgLat  float64
	}
	outs := make([]polOut, len(pols))
	err := opts.sweepCells(len(pols), func(i int, h Hooks) error {
		p := pols[i]
		cellOpts := opts.cellOptions(h)
		eng := cellOpts.newEngine()
		ctrl, err := mc.New(eng, mc.Config{
			Org: dram.Org64GB(), Timing: dram.DDR4_2133(),
			Interleaved: false, LowPower: true,
			PowerDownAfter: p.pd, SelfRefreshAfter: p.sr,
		})
		if err != nil {
			return err
		}
		g := sim.NewRNG(opts.Seed + 9)
		footprint := uint64(256 << 20)
		horizon := opts.horizon(20 * sim.Millisecond)
		var lat latencySum
		var tick func()
		tick = func() {
			a := (g.Uint64() % footprint) &^ 63
			_ = ctrl.SubmitCall(a, false, &lat, 0)
			if eng.Now() < horizon {
				eng.After(3*sim.Microsecond, tick)
			}
		}
		eng.At(0, tick)
		eng.Run()
		ctrl.Finalize()
		avg := 0.0
		if lat.n > 0 {
			avg = (lat.total / sim.Time(lat.n)).Nanoseconds()
		}
		outs[i] = polOut{srFrac: ctrl.SelfRefreshFraction(), wakeups: ctrl.Stats().WakeUps, avgLat: avg}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Ablation: rank idle policy (contiguous mapping, sparse traffic)",
		"sr frac", "wakeups", "avg lat ns")
	for i, p := range pols {
		t.AddRow(p.name, outs[i].srFrac, float64(outs[i].wakeups), outs[i].avgLat)
	}
	return t, nil
}

// latencySum is an mc.Completer that totals request latencies.
type latencySum struct {
	total sim.Time
	n     int64
}

func (s *latencySum) Complete(_ uint64, lat sim.Time) {
	s.total += lat
	s.n++
}

// String renders every ablation table.
func (r AblationResult) String() string {
	return r.NeighborRule.String() + "\n" + r.Thresholds.String() + "\n" +
		r.GroupSize.String() + "\n" + r.DPDResidual.String() + "\n" + r.IdlePolicy.String()
}
