// Package vmtrace reproduces the paper's §3.1 virtualized-server setup: a
// synthetic population of VMs shaped like the Microsoft Azure Resource
// Central trace (many small short-lived VMs, a heavy tail of large
// long-lived ones), scheduled onto one host every five minutes under the
// paper's consolidation rules (vCPU ratio <= 2, memory never over
// capacity). VM memory is really allocated from the simulated kernel, so
// host utilization, KSM merging and GreenDIMM off-lining all interact
// through the same allocator.
//
// The target shape is Fig. 1: average utilization ~48% of 256GB, swinging
// roughly 7%-92% over 24 hours, with KSM recovering ~24% of used memory.
package vmtrace

import (
	"fmt"
	"sort"

	"greendimm/internal/kernel"
	"greendimm/internal/ksm"
	"greendimm/internal/metrics"
	"greendimm/internal/sim"
)

// VMType is one of the ~100 VM shapes sampled from the trace distribution.
type VMType struct {
	VCPUs      int
	MemGB      int
	MeanLife   sim.Time
	CPUUtil    float64 // average in-VM CPU utilization
	Image      int     // base image: pages shared with same-image VMs
	CommonFrac float64 // fraction of pages from the shared image
	Weight     float64 // relative popularity
}

// Config drives the host simulation.
type Config struct {
	HostCores    int
	HostMemBytes int64
	// AdmitCapFrac caps the sum of admitted VM memory (paper: VM memory
	// never exceeds capacity; a small margin is left for the kernel).
	AdmitCapFrac float64
	// MaxVCPURatio is the consolidation bound (paper: 2.0).
	MaxVCPURatio float64
	// ScheduleEvery is the scheduler period (paper: 5 minutes).
	ScheduleEvery sim.Time
	// ArrivalsPerHourMean modulates load; the diurnal pattern multiplies
	// this by [0.3, 1.7] over 24h to produce Fig. 1's swing.
	ArrivalsPerHourMean float64
	// RampBytesPerSec is how fast an admitted VM faults its memory in.
	RampBytesPerSec int64
	// NumTypes is the VM-type population size (paper: 100).
	NumTypes int
	// Images is the number of distinct base images for KSM sharing.
	Images int
	// PageVolatility is the per-scan-visit probability a VM page rewrites.
	PageVolatility float64
	Seed           int64
}

// DefaultConfig returns the paper's host: 16 cores, 256GB, 100 VM types.
func DefaultConfig() Config {
	return Config{
		HostCores:           16,
		HostMemBytes:        256 << 30,
		AdmitCapFrac:        0.92,
		MaxVCPURatio:        2.0,
		ScheduleEvery:       5 * sim.Minute,
		ArrivalsPerHourMean: 85,
		RampBytesPerSec:     2 << 30,
		NumTypes:            100,
		Images:              6,
		PageVolatility:      0.02,
		Seed:                1,
	}
}

// VM is one running virtual machine.
type VM struct {
	ID       uint32
	Type     VMType
	expiry   sim.Time
	target   int64 // pages
	ramped   int64
	admitted sim.Time
}

// Host simulates the consolidated server.
type Host struct {
	eng  *sim.Engine
	mem  *kernel.Mem
	ksmd *ksm.Daemon // optional
	cfg  Config
	rng  *sim.RNG

	types      []VMType
	contentRNG *sim.RNG // content draws must not perturb arrival draws
	running    map[uint32]*VM
	backlog    []*VM
	nextID     uint32

	vcpusUsed int
	admitted  int64 // bytes of admitted VM memory (target, not yet ramped)

	utilTS   *metrics.WeightedValue // fraction of host memory used by VMs
	cpuTS    *metrics.WeightedValue
	samples  []Sample
	running_ bool

	// Timer callbacks, bound once: the scheduler pass and a VM's next
	// ramp chunk (its argument is the *VM).
	scheduleFn func()
	rampFn     func(any)

	// registerKSM's per-chunk scratch: image and unique frames and
	// digests, reused chunk to chunk.
	imgF, uniqF []kernel.PFN
	imgD, uniqD []uint64
}

// Sample is one scheduler-period observation (the Fig. 1 series).
type Sample struct {
	At       sim.Time
	UsedFrac float64 // VM-used memory / host memory
	CPUUtil  float64
	Running  int
	KSMSaved int64 // bytes
}

// New builds a host over the memory manager. ksmd may be nil (the
// "w/o ksm" series).
func New(eng *sim.Engine, mem *kernel.Mem, ksmd *ksm.Daemon, cfg Config) (*Host, error) {
	switch {
	case cfg.HostCores <= 0 || cfg.HostMemBytes <= 0:
		return nil, fmt.Errorf("vmtrace: bad host shape %+v", cfg)
	case cfg.AdmitCapFrac <= 0 || cfg.AdmitCapFrac > 1:
		return nil, fmt.Errorf("vmtrace: admit cap %v out of range", cfg.AdmitCapFrac)
	case cfg.ScheduleEvery <= 0:
		return nil, fmt.Errorf("vmtrace: non-positive schedule period")
	case cfg.NumTypes <= 0 || cfg.Images <= 0:
		return nil, fmt.Errorf("vmtrace: need types and images")
	}
	h := &Host{
		eng: eng, mem: mem, ksmd: ksmd, cfg: cfg,
		rng:        sim.NewRNG(cfg.Seed ^ 0x617a757265),
		contentRNG: sim.NewRNG(cfg.Seed ^ 0x636f6e74),
		running:    map[uint32]*VM{},
		nextID:     100, // 0 = kernel, 1 = ksm
		utilTS:     metrics.NewWeightedValue(0, eng.Now()),
		cpuTS:      metrics.NewWeightedValue(0, eng.Now()),
	}
	h.scheduleFn = func() {
		if !h.running_ {
			return
		}
		h.schedule()
		h.armSchedule()
	}
	h.rampFn = func(vm any) { h.ramp(vm.(*VM)) }
	h.genTypes()
	return h, nil
}

// genTypes samples the VM-type population, Azure-shaped: vCPUs heavily
// skewed to 1-2, memory 1-4GB per vCPU, lifetimes a short/medium/long
// mixture.
func (h *Host) genTypes() {
	vcpuChoices := []int{1, 2, 4, 8}
	vcpuWeights := []float64{0.42, 0.33, 0.17, 0.08}
	// Azure VMs carry 2-8GB per vCPU; with the <=2x vCPU consolidation
	// bound capping concurrency at 32 vCPUs, this mix is what lets the
	// host reach the paper's ~48% average memory utilization.
	memPerVCPU := []int{2, 4, 8}
	memWeights := []float64{0.25, 0.45, 0.30}
	for i := 0; i < h.cfg.NumTypes; i++ {
		vc := vcpuChoices[h.rng.WeightedPick(vcpuWeights)]
		mem := vc * memPerVCPU[h.rng.WeightedPick(memWeights)]
		var life sim.Time
		switch h.rng.WeightedPick([]float64{0.45, 0.40, 0.15}) {
		case 0: // short: ~15 min
			life = sim.Time(h.rng.Pareto(8, 2.2) * float64(sim.Minute))
		case 1: // medium: ~2h
			life = sim.Time(h.rng.Pareto(45, 2.0) * float64(sim.Minute))
		default: // long: half a day and up
			life = sim.Time(h.rng.Pareto(8, 2.5) * float64(sim.Hour))
		}
		h.types = append(h.types, VMType{
			VCPUs:      vc,
			MemGB:      mem,
			MeanLife:   life,
			CPUUtil:    0.25 + 0.5*h.rng.Float64(),
			Image:      h.rng.Intn(h.cfg.Images),
			CommonFrac: 0.30 + 0.35*h.rng.Float64(),
			// Popularity skew, truncated: an unbounded Pareto tail lets
			// one type dominate a whole day's arrivals and makes the
			// average utilization swing wildly across seeds.
			Weight: min(h.rng.Pareto(1, 1.5), 6),
		})
	}
}

// Start launches the scheduler loop.
func (h *Host) Start() {
	if h.running_ {
		return
	}
	h.running_ = true
	h.schedule() // initial placement at t=0
	h.armSchedule()
}

// Stop halts scheduling (running VMs keep expiring).
func (h *Host) Stop() { h.running_ = false }

func (h *Host) armSchedule() { h.eng.AfterDaemon(h.cfg.ScheduleEvery, h.scheduleFn) }

// diurnal modulates arrivals over the day: low at night, peaking in the
// afternoon — the source of Fig. 1's 7%-92% swing.
func (h *Host) diurnal(at sim.Time) float64 {
	hour := at.Seconds() / 3600
	frac := hour - float64(int(hour)/24*24)
	// Piecewise: trough 02:00-06:00, ramp to a 14:00-18:00 plateau.
	switch {
	case frac < 5:
		return 0.12
	case frac < 10:
		return 0.12 + (frac-5)/5*1.5
	case frac < 18:
		return 1.62
	case frac < 23:
		return 1.62 - (frac-18)/5*1.5
	default:
		return 0.12
	}
}

// schedule is one 5-minute consolidation pass: expire, arrive, admit.
func (h *Host) schedule() {
	now := h.eng.Now()
	// 1. Expirations, in id order: map iteration order must not leak
	// into allocator state or the run is not reproducible.
	var expired []uint32
	for id, vm := range h.running {
		if vm.expiry <= now {
			expired = append(expired, id)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	for _, id := range expired {
		h.terminate(id, h.running[id])
	}
	// 2. New arrivals since the last pass (Poisson, diurnal-modulated).
	weights := make([]float64, len(h.types))
	for i, t := range h.types {
		weights[i] = t.Weight
	}
	mean := h.cfg.ArrivalsPerHourMean * h.diurnal(now) *
		h.cfg.ScheduleEvery.Seconds() / 3600
	arrivals := h.poisson(mean)
	for i := 0; i < arrivals; i++ {
		t := h.types[h.rng.WeightedPick(weights)]
		life := sim.Time(h.rng.Exp(float64(t.MeanLife)))
		if life < sim.Minute {
			life = sim.Minute
		}
		h.backlog = append(h.backlog, &VM{Type: t, expiry: now + life})
	}
	// 3. Admission in FIFO order under the consolidation constraints.
	var rest []*VM
	for _, vm := range h.backlog {
		if vm.expiry <= now {
			continue // expired while queued
		}
		memNeed := int64(vm.Type.MemGB) << 30
		vcpuOK := float64(h.vcpusUsed+vm.Type.VCPUs) <=
			h.cfg.MaxVCPURatio*float64(h.cfg.HostCores)
		memOK := h.admitted+memNeed <=
			int64(h.cfg.AdmitCapFrac*float64(h.cfg.HostMemBytes))
		if !vcpuOK || !memOK {
			rest = append(rest, vm)
			continue
		}
		h.admit(vm, memNeed)
	}
	h.backlog = rest
	h.record()
}

// poisson draws a Poisson variate via exponential gaps.
func (h *Host) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	n, acc := 0, 0.0
	for {
		acc += h.rng.Exp(1)
		if acc > mean {
			return n
		}
		n++
	}
}

// admit starts a VM: capacity accounting now, memory ramped in over time.
func (h *Host) admit(vm *VM, memNeed int64) {
	vm.ID = h.nextID
	h.nextID++
	vm.admitted = h.eng.Now()
	vm.target = memNeed / h.mem.PageBytes()
	h.vcpusUsed += vm.Type.VCPUs
	h.admitted += memNeed
	h.running[vm.ID] = vm
	h.ramp(vm)
}

// ramp faults in the VM's memory chunk by chunk; failures (free memory
// momentarily short because blocks are off-lined) retry, giving the
// GreenDIMM daemon time to on-line capacity — exactly the §4.2 flow.
func (h *Host) ramp(vm *VM) {
	if h.running[vm.ID] != vm { // terminated mid-ramp
		return
	}
	chunk := h.cfg.RampBytesPerSec / h.mem.PageBytes()
	if chunk <= 0 {
		chunk = 1
	}
	if remaining := vm.target - vm.ramped; chunk > remaining {
		chunk = remaining
	}
	if chunk > 0 {
		pfns, err := h.mem.AllocPages(chunk, true, vm.ID)
		if err == nil {
			vm.ramped += chunk
			h.registerKSM(vm, pfns)
		}
		// On failure: leave ramped as-is and retry next second.
	}
	if vm.ramped < vm.target {
		// AtFunc queues an ordinary event, not a daemon one; RunUntil,
		// which bounds every VM-trace run, dispatches both alike.
		h.eng.AtFunc(h.eng.Now()+sim.Second, h.rampFn, vm)
	}
	h.record()
}

// registerKSM advises the chunk mergeable. Image pages (identical across
// VMs booted from the same base image) are read-only in practice and carry
// zero volatility; the VM's private pages carry the configured volatility
// and never merge for long.
func (h *Host) registerKSM(vm *VM, pfns []kernel.PFN) {
	if h.ksmd == nil {
		return
	}
	imgF, uniqF := h.imgF[:0], h.uniqF[:0]
	imgD, uniqD := h.imgD[:0], h.uniqD[:0]
	base := vm.ramped - int64(len(pfns))
	for i, f := range pfns {
		pageIdx := base + int64(i)
		if h.contentRNG.Float64() < vm.Type.CommonFrac {
			// Image page: one of ~2048 distinct pages per base image,
			// identical across VMs of that image.
			imgF = append(imgF, f)
			imgD = append(imgD, uint64(vm.Type.Image)<<32|uint64(pageIdx%2048))
		} else {
			uniqF = append(uniqF, f)
			uniqD = append(uniqD, h.contentRNG.Uint64()|1<<63)
		}
	}
	h.imgF, h.uniqF, h.imgD, h.uniqD = imgF, uniqF, imgD, uniqD
	if len(imgF) > 0 {
		if _, err := h.ksmd.Register(vm.ID, imgF, imgD, 0); err != nil {
			panic(fmt.Sprintf("vmtrace: ksm register: %v", err))
		}
	}
	if len(uniqF) > 0 {
		if _, err := h.ksmd.Register(vm.ID, uniqF, uniqD, h.cfg.PageVolatility); err != nil {
			panic(fmt.Sprintf("vmtrace: ksm register: %v", err))
		}
	}
}

// terminate frees a VM.
func (h *Host) terminate(id uint32, vm *VM) {
	if h.ksmd != nil {
		h.ksmd.UnregisterOwner(id)
	}
	h.mem.FreeOwner(id)
	h.vcpusUsed -= vm.Type.VCPUs
	h.admitted -= int64(vm.Type.MemGB) << 30
	delete(h.running, id)
}

// record samples utilization (the Fig. 1 point).
func (h *Host) record() {
	now := h.eng.Now()
	used := h.mem.Meminfo().UsedBytes
	frac := float64(used) / float64(h.cfg.HostMemBytes)
	var ids []uint32
	for id := range h.running {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	cpu := 0.0
	for _, id := range ids {
		vm := h.running[id]
		cpu += float64(vm.Type.VCPUs) * vm.Type.CPUUtil
	}
	cpu /= float64(h.cfg.HostCores)
	if cpu > 1 {
		cpu = 1
	}
	h.utilTS.Set(now, frac)
	h.cpuTS.Set(now, cpu)
	saved := int64(0)
	if h.ksmd != nil {
		saved = h.ksmd.SavedBytes()
	}
	h.samples = append(h.samples, Sample{
		At: now, UsedFrac: frac, CPUUtil: cpu,
		Running: len(h.running), KSMSaved: saved,
	})
}

// Samples returns the recorded series.
func (h *Host) Samples() []Sample { return h.samples }

// AvgUsedFrac reports time-weighted memory utilization so far.
func (h *Host) AvgUsedFrac() float64 { return h.utilTS.Average(h.eng.Now()) }

// AvgCPUUtil reports time-weighted host CPU utilization.
func (h *Host) AvgCPUUtil() float64 { return h.cpuTS.Average(h.eng.Now()) }

// RunningVMs reports the current VM count.
func (h *Host) RunningVMs() int { return len(h.running) }

// Types exposes the generated type population (for tests).
func (h *Host) Types() []VMType { return h.types }
