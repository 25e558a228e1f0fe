package main

import (
	"fmt"

	"greendimm/internal/baseline"
	"greendimm/internal/core"
	"greendimm/internal/dram"
	"greendimm/internal/exp"
	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/ksm"
	"greendimm/internal/mc"
	"greendimm/internal/power"
	"greendimm/internal/sim"
	"greendimm/internal/vmtrace"
	"greendimm/internal/workload"
)

// A replica rebuilds the cells a workload's runner executes from the
// layers' exported constructors, with the configs and seeds internal/exp
// uses, and drives them through timed calls: sim.Engine.Run/RunUntil,
// mc.Controller.SubmitCall (through a timing workload.Submitter that
// keeps the SubmitCall path) and the mc.Completer callback,
// baseline.Scan, power.Model.FromActivity, ksm.Daemon.ScanChunk and
// core.Daemon.Tick (re-armed at their configured periods instead of
// Start). The runner itself stays untouched; a replica's simulated
// counts are deterministic per seed, which the traced mode checks by
// running each replica twice.

// counts are a replica's simulated counts, read from the layers' Stats.
type counts struct {
	Events                            int64
	MCRequests, MCRowHits, MCAccesses int64
	MCRefreshes, MCWakeups            int64
	OpsServed                         int64
	Scans                             int64
	PowerEvals                        int64
	KSMScanned, KSMMerges             int64
	CoreTicks, CoreOfflines           int64
	CoreFailures                      int64
	UsedBytes                         int64 // peak, for sizing the drain probe
}

func (c *counts) addMC(s *mc.Stats) {
	c.MCRequests += s.Reads + s.Writes
	c.MCRowHits += s.RowHits
	c.MCAccesses += s.RowHits + s.RowMisses + s.RowConflicts
	c.MCRefreshes += s.Refreshes
	c.MCWakeups += s.WakeUps
}

func (c *counts) addCore(s core.Stats) {
	c.CoreTicks += s.Ticks
	c.CoreOfflines += s.Offlines
	c.CoreFailures += s.EBusyFailures + s.EAgainFailures
}

// replica carries one replica run's tracer and counts.
type replica struct {
	t  *tracer
	id string
	c  counts
}

func (r *replica) run(eng *sim.Engine) {
	r.t.begin("sim.run", r.id, true)
	r.c.Events += int64(eng.Run())
	r.t.end()
}

func (r *replica) runUntil(eng *sim.Engine, at sim.Time) {
	r.t.begin("sim.run", r.id, true)
	r.c.Events += int64(eng.RunUntil(at))
	r.t.end()
}

func (r *replica) powerEval(model *power.Model, a power.Activity) (float64, error) {
	r.t.begin("power.eval", r.id, false)
	b, err := model.FromActivity(a)
	r.t.end()
	r.c.PowerEvals++
	if err != nil {
		return 0, err
	}
	return b.TotalW(), nil
}

// armTick re-arms the GreenDIMM daemon's Tick at its period, timed, for
// as long as *running holds.
func (r *replica) armTick(eng *sim.Engine, d *core.Daemon, period sim.Time, running *bool) {
	var tick func()
	tick = func() {
		if !*running {
			return
		}
		r.tick(d)
		eng.AfterDaemon(period, tick)
	}
	eng.AfterDaemon(period, tick)
}

func (r *replica) tick(d *core.Daemon) {
	r.t.begin("core.tick", r.id, false)
	d.Tick()
	r.t.end()
}

// timedSubmitter is the workload.Submitter the replicas hand to cores and
// services: it times each SubmitCall into the controller and wraps the
// caller's mc.Completer so the completion callback is timed too.
type timedSubmitter struct {
	ctrl *mc.Controller
	t    *tracer
	wrap map[mc.Completer]*timedCompleter
}

func newTimedSubmitter(ctrl *mc.Controller, t *tracer) *timedSubmitter {
	return &timedSubmitter{ctrl: ctrl, t: t, wrap: map[mc.Completer]*timedCompleter{}}
}

func (s *timedSubmitter) Submit(pa uint64, write bool, done func(sim.Time)) error {
	s.t.begin("mc.submit", "", false)
	err := s.ctrl.Submit(pa, write, done)
	s.t.end()
	return err
}

func (s *timedSubmitter) SubmitCall(pa uint64, write bool, cb mc.Completer, id uint64) error {
	tc := s.wrap[cb]
	if tc == nil {
		tc = &timedCompleter{next: cb, t: s.t}
		s.wrap[cb] = tc
	}
	s.t.begin("mc.submit", "", false)
	err := s.ctrl.SubmitCall(pa, write, tc, id)
	s.t.end()
	return err
}

type timedCompleter struct {
	next  mc.Completer
	t     *tracer
	calls int64
}

func (c *timedCompleter) Complete(id uint64, lat sim.Time) {
	c.t.begin("workload.complete", "", false)
	c.next.Complete(id, lat)
	c.t.end()
	c.calls++
}

// evalApps is the energy matrix's application list (exp.evalApps).
func evalApps() []workload.Profile {
	var out []workload.Profile
	out = append(out, workload.SPEC2006()...)
	out = append(out, workload.SPEC2017()...)
	return append(out, workload.Datacenter()...)
}

// copiesFor is the energy matrix's multiprogramming degree.
func copiesFor(p workload.Profile) int {
	if p.FootprintMB >= 3000 {
		return 2
	}
	return 8
}

// energy replays the fig9 runner's cells at one experiment seed:
// per application a dynamics run and a timing run under each address
// map, with the four policies' power evaluations. tiny keeps one
// application.
func (r *replica) energy(seed int64, tiny bool) error {
	model, err := power.NewModel(dram.Org64GB())
	if err != nil {
		return err
	}
	apps := evalApps()
	if tiny {
		apps = apps[:1]
	}
	for _, prof := range apps {
		dynProf := prof
		dynProf.FootprintMB *= int64(copiesFor(prof))
		if dynProf.FootprintMB > 48<<10 {
			dynProf.FootprintMB = 48 << 10
		}
		dpd, err := r.dynamics(dynProf, seed+41)
		if err != nil {
			return fmt.Errorf("%s dynamics: %w", prof.Name, err)
		}
		for _, intlv := range []bool{true, false} {
			if err := r.timing(model, prof, intlv, seed+42, dpd); err != nil {
				return fmt.Errorf("%s timing: %w", prof.Name, err)
			}
		}
	}
	return nil
}

// timing mirrors exp's runTiming plus the policy energy evaluation.
func (r *replica) timing(model *power.Model, prof workload.Profile, intlv bool, seed int64, dpd float64) error {
	org := dram.Org64GB()
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: org.TotalBytes(), PageBytes: 1 << 20})
	if err != nil {
		return err
	}
	ctrl, err := mc.New(eng, mc.Config{Org: org, Timing: dram.DDR4_2133(), Interleaved: intlv, LowPower: true})
	if err != nil {
		return err
	}
	copies := copiesFor(prof)
	if prof.FootprintMB*int64(copies) > 48<<10 {
		prof.FootprintMB = 48 << 10 / int64(copies)
	}
	sub := newTimedSubmitter(ctrl, r.t)
	var cores []*workload.Core
	for i := 0; i < copies; i++ {
		c, err := workload.NewCore(eng, mem, sub, workload.CoreConfig{
			Profile: prof, Owner: uint32(100 + i), Accesses: 25000 / 10, Seed: seed + int64(i)*7919,
		})
		if err != nil {
			return err
		}
		cores = append(cores, c)
	}
	r.t.begin("baseline.scan", r.id, true)
	occ := baseline.Scan(mem, ctrl.Mapper())
	r.t.end()
	r.c.Scans++
	for _, c := range cores {
		c.Start()
	}
	r.run(eng)
	ctrl.Finalize()
	r.c.addMC(ctrl.Stats())
	for _, tc := range sub.wrap {
		r.c.OpsServed += tc.calls
	}
	act := ctrl.Activity()
	gd := act
	if dpd > gd.DPDFrac {
		gd.DPDFrac = dpd
	}
	for _, a := range []power.Activity{act, baseline.ApplyRAMZzz(act, occ), baseline.ApplyPASR(act, occ), gd} {
		if _, err := r.powerEval(model, a); err != nil {
			return err
		}
	}
	return nil
}

// dynamics mirrors exp's runDynamics for the energy matrix's settings
// and returns the average deep-power-down fraction.
func (r *replica) dynamics(prof workload.Profile, seed int64) (float64, error) {
	const totalBytes = 64 << 30
	const duration = 120 * sim.Second
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: totalBytes, PageBytes: 1 << 20, KernelReservedBytes: 1 << 30, Seed: seed})
	if err != nil {
		return 0, err
	}
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: 1 << 30, Seed: seed})
	if err != nil {
		return 0, err
	}
	groupMB := int64(totalBytes >> 20 / 64)
	ctrl := core.NewRegisterController(eng, int(totalBytes/(groupMB<<20)))
	d, err := core.New(eng, mem, hp, ctrl, core.Config{
		Period: sim.Second, Policy: core.PolicySpec{Name: core.PolicyFreeFirst},
		OffThr: 0.10, OnThr: 0.085, GroupBytes: groupMB << 20, Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	d.SetStallSink(func(sim.Time) {})
	d.AttachKernelTap()
	fd, err := workload.NewFootprintDriver(eng, mem, prof, 50, duration, 500*sim.Millisecond)
	if err != nil {
		return 0, err
	}
	if tap := d.AccessTap(); tap != nil {
		fd.SetAccessTap(tap)
	}
	fd.Start()
	running := true
	r.armTick(eng, d, sim.Second, &running)
	r.runUntil(eng, duration/10)
	r.runUntil(eng, duration)
	running = false
	r.c.addCore(d.Stats())
	return d.AvgDPDFraction(), nil
}

// tail replays the tail runner's cells: each latency-critical service
// alone and beside a live GreenDIMM daemon. tiny keeps the first
// service with its daemon.
func (r *replica) tail(seed int64, tiny bool) error {
	for _, prof := range workload.Datacenter() {
		if !prof.LatencyCritical {
			continue
		}
		for _, withDaemon := range []bool{false, true} {
			if tiny && !withDaemon {
				continue
			}
			if err := r.service(prof, withDaemon, seed); err != nil {
				return fmt.Errorf("%s: %w", prof.Name, err)
			}
		}
		if tiny {
			break
		}
	}
	return nil
}

// service mirrors exp's runService.
func (r *replica) service(prof workload.Profile, withDaemon bool, seed int64) error {
	org := dram.Org64GB()
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: org.TotalBytes(), PageBytes: 1 << 20, KernelReservedBytes: 1 << 30, Seed: seed})
	if err != nil {
		return err
	}
	ctrl, err := mc.New(eng, mc.Config{Org: org, Timing: dram.DDR4_2133(), Interleaved: true, LowPower: true})
	if err != nil {
		return err
	}
	horizon := 2 * sim.Second
	warmup := horizon * 3 / 5
	if prof.FootprintMB > 8<<10 {
		prof.FootprintMB = 8 << 10
	}
	sub := newTimedSubmitter(ctrl, r.t)
	svc, err := workload.NewService(eng, mem, sub, workload.ServiceConfig{
		Profile: prof, Owner: 70, OpsPerSec: 20000, AccessesPerOp: 8,
		ComputePerOp: 12 * sim.Microsecond, Warmup: warmup, Seed: seed + 5, SampleCap: 20000,
	})
	if err != nil {
		return err
	}
	running := true
	var d *core.Daemon
	if withDaemon {
		hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: 1 << 30, Seed: seed})
		if err != nil {
			return err
		}
		d, err = core.New(eng, mem, hp, ctrl, core.Config{Period: 100 * sim.Millisecond, MaxOfflinePerTick: 64, Seed: seed})
		if err != nil {
			return err
		}
		d.SetStallSink(func(t sim.Time) { svc.Stall(t / 16) })
		r.armTick(eng, d, 100*sim.Millisecond, &running)
	}
	svc.Start()
	r.runUntil(eng, warmup)
	r.runUntil(eng, horizon)
	running = false
	ctrl.Finalize()
	r.c.addMC(ctrl.Stats())
	r.c.OpsServed += svc.Served()
	if d != nil {
		r.c.addCore(d.Stats())
	}
	return nil
}

// vmday replays the fig12 runner's day pair: the quick 3-hour, 256 GB
// VM-trace day with GreenDIMM, without and with KSM.
func (r *replica) vmday(seed int64, tiny bool) error {
	for _, withKSM := range []bool{false, true} {
		if tiny && !withKSM {
			continue
		}
		if err := r.vmScenario(exp.VMScenario{KSM: withKSM, GreenDIMM: true, Seed: seed + 2, Hours: 3}); err != nil {
			return err
		}
	}
	return nil
}

// vmScenario mirrors exp.RunVMScenario.
func (r *replica) vmScenario(spec exp.VMScenario) error {
	s := spec.Normalized()
	if err := s.Validate(); err != nil {
		return err
	}
	org, err := dram.OrgWithCapacity(s.CapacityGB)
	if err != nil {
		return err
	}
	eng := sim.NewEngine()
	mem, err := kernel.New(kernel.Config{TotalBytes: org.TotalBytes(), PageBytes: 2 << 20, Seed: s.Seed})
	if err != nil {
		return err
	}
	running := true
	var ksmd *ksm.Daemon
	if s.KSM {
		scan := 50 * sim.Millisecond
		ksmd, err = ksm.New(eng, mem, ksm.Config{PagesPerScan: 2, ScanPeriod: scan, ScanCostPerPage: 2560 * sim.Microsecond, Seed: s.Seed})
		if err != nil {
			return err
		}
		var chunk func()
		chunk = func() {
			if !running {
				return
			}
			r.t.begin("ksm.scan_chunk", r.id, false)
			ksmd.ScanChunk()
			r.t.end()
			eng.AfterDaemon(scan, chunk)
		}
		eng.AfterDaemon(scan, chunk)
	}
	blockBytes := int64(s.BlockMB) << 20
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: blockBytes, Seed: s.Seed})
	if err != nil {
		return err
	}
	groups := int(org.TotalBytes() / blockBytes)
	ctrl := core.NewRegisterController(eng, groups)
	var d *core.Daemon
	if s.GreenDIMM {
		period := sim.Time(s.PeriodMS * float64(sim.Millisecond))
		d, err = core.New(eng, mem, hp, ctrl, core.Config{
			Period: period, OffThr: s.OffThr, OnThr: s.OnThr, Policy: s.Policy,
			AdaptiveAlpha: s.AdaptiveAlpha, NeighborRule: s.NeighborRule, GroupBytes: blockBytes,
			MaxOfflinePerTick: s.MaxOfflinePerTick, Seed: s.Seed,
		})
		if err != nil {
			return err
		}
		d.AttachKernelTap()
		r.armTick(eng, d, period, &running)
		if ksmd != nil {
			ksmd.OnFullPass(func() { r.tick(d) })
		}
	}
	vcfg := vmtrace.DefaultConfig()
	vcfg.Seed = s.Seed
	vcfg.HostMemBytes = org.TotalBytes()
	vcfg.HostCores = s.HostCores
	vcfg.ArrivalsPerHourMean = s.ArrivalsPerHourMean
	vcfg.AdmitCapFrac = s.AdmitCapFrac
	vcfg.MaxVCPURatio = s.MaxVCPURatio
	vcfg.ScheduleEvery = sim.FromSeconds(s.ScheduleEverySec)
	vcfg.RampBytesPerSec = s.RampMBPerSec << 20
	vcfg.NumTypes = s.NumVMTypes
	vcfg.Images = s.Images
	vcfg.PageVolatility = s.PageVolatility
	host, err := vmtrace.New(eng, mem, ksmd, vcfg)
	if err != nil {
		return err
	}
	host.Start()
	model, err := power.NewModel(org)
	if err != nil {
		return err
	}
	notePeak := func() {
		if used := mem.Meminfo().UsedBytes; used > r.c.UsedBytes {
			r.c.UsedBytes = used
		}
	}
	var sampleErr error
	var sampler func()
	sampler = func() {
		notePeak()
		dpd := 0.0
		if d != nil {
			dpd = d.DPDFraction()
		}
		util := host.AvgCPUUtil()
		if ksmd != nil {
			util = min(util+ksmd.CPUShare()/16, 1)
		}
		if _, err := r.powerEval(model, vmActivity(model, dpd, util)); err != nil && sampleErr == nil {
			sampleErr = err
		}
		eng.AfterDaemon(5*sim.Minute, sampler)
	}
	eng.AtDaemon(eng.Now()+5*sim.Minute, sampler)
	r.runUntil(eng, sim.FromSeconds(s.Hours*3600))
	running = false
	notePeak()
	if d != nil {
		r.c.addCore(d.Stats())
	}
	if ksmd != nil {
		st := ksmd.Stats()
		r.c.KSMScanned += st.Scans
		r.c.KSMMerges += st.Merges
	}
	return sampleErr
}

// vmActivity is the epoch-mode server's one-second activity, as exp's
// vmPowerW builds it.
func vmActivity(model *power.Model, dpdFrac, cpuUtil float64) power.Activity {
	window := sim.Second
	ranks := int64(model.Org.TotalRanks())
	lines := int64(cpuUtil * 16 * 1.2 * float64(1<<30) / 64)
	return power.Activity{
		Window: window, StandbyT: window * sim.Time(ranks),
		Refreshes:   int64(window/model.Timing.TREFI) * ranks,
		Activations: lines / 2, Reads: lines * 3 / 4, Writes: lines / 4, DPDFrac: dpdFrac,
	}
}

// drainCounts are the kernel and hotplug layers' work in a drain probe.
type drainCounts struct {
	AllocCalls, AllocFailures int64
	Migrations                int64
	OfflineAttempts, Failures int64
	Onlines                   int64
}

// drainProbe drives the kernel and hotplug layers through their exported
// calls the way the GreenDIMM daemon's drain does: it allocates a
// footprint of at least a quarter of memory, off-lines blocks from the
// bottom of memory up (migrating the pages in the way) while two blocks
// stay free, on-lines them again and frees the footprint. The daemon
// itself calls these layers through concrete types a benchmark cannot
// wrap, so this probe is where their host time is measured.
func drainProbe(t *tracer, id string, kcfg kernel.Config, blockBytes, footprint int64) (drainCounts, error) {
	footprint = max(footprint, kcfg.TotalBytes/4)
	var c drainCounts
	mem, err := kernel.New(kcfg)
	if err != nil {
		return c, err
	}
	hp, err := hotplug.New(mem, hotplug.Config{BlockBytes: blockBytes, Seed: kcfg.Seed})
	if err != nil {
		return c, err
	}
	const owner = 90
	chunk := int64(64<<20) / kcfg.PageBytes
	for left := footprint / kcfg.PageBytes; left > 0; left -= chunk {
		t.begin("kernel.alloc", id, false)
		_, err := mem.AllocPages(min(chunk, left), true, owner)
		t.end()
		c.AllocCalls++
		if err != nil {
			c.AllocFailures++
			break
		}
	}
	var offlined []int
	for b := 0; b < hp.Blocks(); b++ {
		if mem.Meminfo().FreeBytes < 2*blockBytes {
			break
		}
		t.begin("hotplug.offline", id, false)
		_, err := hp.Offline(b)
		t.end()
		c.OfflineAttempts++
		if err != nil {
			c.Failures++
			continue
		}
		offlined = append(offlined, b)
	}
	for _, b := range offlined {
		t.begin("hotplug.online", id, false)
		_, err := hp.Online(b)
		t.end()
		if err != nil {
			return c, fmt.Errorf("on-lining block %d: %w", b, err)
		}
		c.Onlines++
	}
	t.begin("kernel.free_owner", id, false)
	mem.FreeOwner(owner)
	t.end()
	c.Migrations = mem.Migrations()
	return c, nil
}
