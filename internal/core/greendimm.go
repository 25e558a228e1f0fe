// Package core implements GreenDIMM's software manager (paper §4.2): a
// daemon that periodically reads memory utilization, selects memory blocks
// to off-line when free capacity exceeds off_thr, on-lines blocks back
// when free capacity drops under on_thr, and programs the memory
// controller's sub-array-group register so off-lined DRAM enters the deep
// power-down state.
//
// The daemon is policy; mechanism lives below it: internal/hotplug for
// offline_pages()/online_pages() semantics, internal/kernel for the
// allocator, and any PowerController (a real cycle-level mc.Controller or
// the lightweight RegisterController for epoch-mode runs) for the DRAM
// side.
package core

import (
	"errors"
	"fmt"

	"greendimm/internal/hotplug"
	"greendimm/internal/kernel"
	"greendimm/internal/metrics"
	"greendimm/internal/sim"
)

// PowerController is the controller surface GreenDIMM programs.
// *mc.Controller satisfies it.
type PowerController interface {
	// EnterGroupDPD puts sub-array group g into deep power-down.
	EnterGroupDPD(g int) error
	// ExitGroupDPD wakes group g; ready fires once the group's Ready bit
	// sets (tDPDX later).
	ExitGroupDPD(g int, ready func()) error
}

// Config tunes the daemon. Zero values take paper defaults.
type Config struct {
	// Period is the memory_usage_monitor interval (paper: 1s).
	Period sim.Time
	// OffThr: off-line only while free memory stays above this fraction
	// of installed capacity (paper: 10% + alpha).
	OffThr float64
	// AdaptiveAlpha turns the paper's "+ alpha" into a live term: the
	// reserve grows by twice the largest used-memory jump observed over
	// the last 32 monitor periods, so bursty workloads keep headroom
	// (no swap storms) while stable ones off-line deeper.
	AdaptiveAlpha bool
	// OnThr: on-line blocks when free memory falls under this fraction.
	OnThr float64
	// Policy selects the block_selector pipeline (policy + tracker +
	// params). The zero value normalizes to the paper's free-first.
	Policy PolicySpec
	// MaxOfflinePerTick bounds off-linings per monitor tick (0 = 4).
	MaxOfflinePerTick int
	// MaxFailuresPerTick stops retrying selections after this many
	// failures in one tick (0 = 3).
	MaxFailuresPerTick int

	// GroupBytes is the capacity of one sub-array group (the power
	// management unit). 0 derives capacity/64. Must be a multiple or
	// divisor of the hotplug block size.
	GroupBytes int64
	// Groups is the number of sub-array groups (0 derives from
	// capacity/GroupBytes).
	Groups int

	// NeighborRule: a group may only power down when its sense-amp
	// partner (g XOR 1) is also fully off-lined (paper §6.1).
	NeighborRule bool

	// OfflinableBytes restricts off-lining to the first OfflinableBytes
	// of the address space... actually to blocks below this boundary
	// counted from the TOP of memory (the movablecore= region). 0 means
	// the whole memory is eligible.
	OfflinableBytes int64

	Seed int64
}

// Stats accumulates daemon activity.
type Stats struct {
	Ticks          int64
	Offlines       int64
	Onlines        int64
	EBusyFailures  int64
	EAgainFailures int64
	GroupsEntered  int64 // DPD entries
	GroupsExited   int64
	CPUTime        sim.Time // daemon + on/off-lining work
}

// Daemon is the GreenDIMM software manager.
type Daemon struct {
	eng  *sim.Engine
	mem  *kernel.Mem
	hp   *hotplug.Manager
	ctrl PowerController
	cfg  Config
	rng  *sim.RNG
	sel  *selector

	installedBytes int64
	groupBytes     int64
	groups         int
	offlineStack   []int // LIFO of off-lined block indexes
	groupOffBytes  []int64
	groupDown      []bool
	pendingExits   map[int]bool // groups mid-wake

	stall   func(sim.Time) // optional CPU-cost sink (workload core)
	running bool
	tick    func() // the monitor timer's callback, bound once
	stats   Stats

	// Adaptive-alpha state: recent per-tick used-memory growth.
	lastUsedBytes int64
	growthRing    [32]int64
	growthIdx     int

	offlineBlocksTS *metrics.WeightedValue // time-weighted off-lined block count
	dpdFracTS       *metrics.WeightedValue
}

// New builds a daemon. The hotplug manager, kernel memory and controller
// must share one machine configuration.
func New(eng *sim.Engine, mem *kernel.Mem, hp *hotplug.Manager, ctrl PowerController, cfg Config) (*Daemon, error) {
	if cfg.Period == 0 {
		cfg.Period = sim.Second
	}
	if cfg.OffThr == 0 {
		cfg.OffThr = 0.10
	}
	if cfg.OnThr == 0 {
		cfg.OnThr = 0.05
	}
	if cfg.OnThr >= cfg.OffThr {
		return nil, fmt.Errorf("core: on_thr %v must be below off_thr %v", cfg.OnThr, cfg.OffThr)
	}
	if cfg.MaxOfflinePerTick == 0 {
		cfg.MaxOfflinePerTick = 4
	}
	if cfg.MaxFailuresPerTick == 0 {
		cfg.MaxFailuresPerTick = 3
	}
	installed := mem.NPages() * mem.PageBytes()
	groupBytes := cfg.GroupBytes
	if groupBytes == 0 {
		groupBytes = installed / 64
	}
	groups := cfg.Groups
	if groups == 0 {
		groups = int(installed / groupBytes)
	}
	if int64(groups)*groupBytes != installed {
		return nil, fmt.Errorf("core: %d groups x %d bytes != installed %d", groups, groupBytes, installed)
	}
	bb := hp.BlockBytes()
	if groupBytes%bb != 0 && bb%groupBytes != 0 {
		return nil, fmt.Errorf("core: group bytes %d incompatible with block bytes %d", groupBytes, bb)
	}
	if cfg.OfflinableBytes < 0 || cfg.OfflinableBytes > installed {
		return nil, fmt.Errorf("core: offlinable bytes %d out of range", cfg.OfflinableBytes)
	}
	sel, err := newSelector(cfg.Policy, hp.Blocks(), eng.Now())
	if err != nil {
		return nil, err
	}
	cfg.Policy = sel.spec
	d := &Daemon{
		eng: eng, mem: mem, hp: hp, ctrl: ctrl, cfg: cfg, sel: sel,
		rng:             sim.NewRNG(cfg.Seed ^ 0x677265656e),
		installedBytes:  installed,
		groupBytes:      groupBytes,
		groups:          groups,
		groupOffBytes:   make([]int64, groups),
		groupDown:       make([]bool, groups),
		pendingExits:    map[int]bool{},
		offlineBlocksTS: metrics.NewWeightedValue(0, eng.Now()),
		dpdFracTS:       metrics.NewWeightedValue(0, eng.Now()),
	}
	d.tick = func() {
		if !d.running {
			return
		}
		d.Tick()
		d.armTick()
	}
	return d, nil
}

// SetStallSink routes the daemon's CPU cost into a workload core, so
// on/off-lining overhead shows up as execution-time degradation
// (Figs. 7 and 11).
func (d *Daemon) SetStallSink(fn func(sim.Time)) { d.stall = fn }

// Start begins periodic monitoring.
func (d *Daemon) Start() {
	if d.running {
		return
	}
	d.running = true
	d.armTick()
}

// Stop halts monitoring.
func (d *Daemon) Stop() { d.running = false }

func (d *Daemon) armTick() { d.eng.AfterDaemon(d.cfg.Period, d.tick) }

// charge accounts CPU time to the stall sink and the stats.
func (d *Daemon) charge(t sim.Time) {
	d.stats.CPUTime += t
	if d.stall != nil {
		d.stall(t)
	}
}

// Tick runs one memory_usage_monitor() pass. Exposed so epoch-mode
// experiments and the KSM full-pass hook can invoke it directly.
func (d *Daemon) Tick() {
	d.stats.Ticks++
	d.charge(2 * sim.Microsecond) // /proc/meminfo read + bookkeeping

	free, budget := d.freeAndBudget()
	offThrBytes := int64(d.cfg.OffThr*float64(budget)) + d.alphaBytes()
	onThrBytes := int64(d.cfg.OnThr * float64(budget))

	switch {
	case free > offThrBytes+d.hp.BlockBytes():
		d.offlinePass(free, offThrBytes)
	case free < onThrBytes:
		d.onlinePass(free, offThrBytes)
	}
}

// freeAndBudget returns the free-memory figure the thresholds compare
// against and the capacity they are fractions of. Unrestricted daemons use
// whole-machine numbers (the VM-server setup); region-restricted daemons
// (movablecore=, §5.2) use the off-linable region's free memory, since
// only that region can be reclaimed. Off-lined capacity counts as neither
// free nor budgeted — it is out of the address space.
func (d *Daemon) freeAndBudget() (free, budget int64) {
	if d.cfg.OfflinableBytes == 0 {
		mi := d.mem.Meminfo()
		return mi.FreeBytes, d.installedBytes
	}
	budget = d.cfg.OfflinableBytes
	if mv := d.mem.MovableZoneBytes(); mv == d.cfg.OfflinableBytes {
		return d.mem.MovableFreeBytes(), budget
	}
	// No matching movable zone: count free pages in the region directly.
	firstBlock := int((d.installedBytes - d.cfg.OfflinableBytes) / d.hp.BlockBytes())
	for b := firstBlock; b < d.hp.Blocks(); b++ {
		if d.hp.State(b) != hotplug.BlockOnline {
			continue
		}
		free += (d.hp.BlockBytes()/d.mem.PageBytes() - d.hp.UsedPages(b)) * d.mem.PageBytes()
	}
	return free, budget
}

// offlinePass off-lines blocks while free memory stays above the reserve.
func (d *Daemon) offlinePass(freeBytes, offThrBytes int64) {
	failures := 0
	offlined := 0
	attempted := d.sel.attempted
	clear(attempted)
	for offlined < d.cfg.MaxOfflinePerTick &&
		failures < d.cfg.MaxFailuresPerTick &&
		freeBytes > offThrBytes+d.hp.BlockBytes() {
		b := d.selectBlock(attempted)
		if b < 0 {
			return
		}
		attempted[b] = true
		lat, err := d.hp.Offline(b)
		d.charge(lat)
		switch {
		case err == nil:
			d.stats.Offlines++
			offlined++
			freeBytes -= d.hp.BlockBytes()
			d.offlineStack = append(d.offlineStack, b)
			d.offlineBlocksTS.Set(d.eng.Now(), float64(len(d.offlineStack)))
			d.sel.noteOffline(b, d.eng.Now())
			d.blockOfflined(b)
		case errors.Is(err, hotplug.ErrBusy):
			d.stats.EBusyFailures++
			failures++
		case errors.Is(err, hotplug.ErrAgain):
			d.stats.EAgainFailures++
			failures++
		default:
			failures++
		}
	}
}

// onlinePass brings blocks back until free memory recovers to the reserve
// target. The policy may veto individual on-linings (hysteresis holds
// fresh off-linings down); the pass takes the newest non-vetoed block,
// and under a unanimous veto overrides the policy on the newest block —
// memory pressure always wins over power savings.
func (d *Daemon) onlinePass(freeBytes, offThrBytes int64) {
	for freeBytes < offThrBytes && len(d.offlineStack) > 0 {
		idx := len(d.offlineStack) - 1
		for j := idx; j >= 0; j-- {
			if !d.keepOffline(d.offlineStack[j]) {
				idx = j
				break
			}
		}
		b := d.offlineStack[idx]
		copy(d.offlineStack[idx:], d.offlineStack[idx+1:])
		d.offlineStack = d.offlineStack[:len(d.offlineStack)-1]
		d.offlineBlocksTS.Set(d.eng.Now(), float64(len(d.offlineStack)))
		d.onlineBlock(b)
		freeBytes += d.hp.BlockBytes()
	}
}

// keepOffline consults the policy's on-lining veto for block b.
func (d *Daemon) keepOffline(b int) bool {
	v := &d.sel.view
	v.HP = d.hp
	v.RNG = d.rng
	v.Tracker = d.sel.tracker
	v.Now = d.eng.Now()
	v.OfflinedAt = d.sel.offlinedAt
	return d.sel.policy.KeepOffline(v, b)
}

// onlineBlock wakes the block's sub-array groups if needed, then on-lines
// the pages. The OS polls the controller Ready bit before online_pages
// (paper §4.2); here that is the ExitGroupDPD callback.
func (d *Daemon) onlineBlock(b int) {
	lo, hi := d.hp.AddrRange(b)
	finish := func() {
		lat, err := d.hp.Online(b)
		d.charge(lat)
		if err == nil {
			d.stats.Onlines++
		}
	}
	// Collect groups that must exit DPD first.
	var wake []int
	for g := int(int64(lo) / d.groupBytes); int64(g)*d.groupBytes < int64(hi); g++ {
		d.groupOffBytes[g] -= overlap(lo, hi, g, d.groupBytes)
		if d.groupDown[g] {
			wake = append(wake, g)
		}
		// A powered-down partner whose neighbor rule just broke must
		// wake too.
		if d.cfg.NeighborRule && d.groupDown[g^1] {
			wake = append(wake, g^1)
		}
	}
	if len(wake) == 0 {
		finish()
		return
	}
	remaining := 0
	for _, g := range wake {
		if !d.groupDown[g] || d.pendingExits[g] {
			continue
		}
		d.groupDown[g] = false
		d.pendingExits[g] = true
		remaining++
		g := g
		if err := d.ctrl.ExitGroupDPD(g, func() {
			delete(d.pendingExits, g)
			d.stats.GroupsExited++
			d.updateDPDFrac()
			remaining--
			if remaining == 0 {
				finish()
			}
		}); err != nil {
			panic(fmt.Sprintf("core: ExitGroupDPD(%d): %v", g, err))
		}
	}
	if remaining == 0 {
		finish()
	}
}

// blockOfflined updates group accounting and powers down groups that
// became fully off-lined (respecting the neighbor rule).
func (d *Daemon) blockOfflined(b int) {
	lo, hi := d.hp.AddrRange(b)
	for g := int(int64(lo) / d.groupBytes); int64(g)*d.groupBytes < int64(hi); g++ {
		d.groupOffBytes[g] += overlap(lo, hi, g, d.groupBytes)
	}
	// Re-evaluate every group the block touches plus neighbors.
	for g := int(int64(lo) / d.groupBytes); int64(g)*d.groupBytes < int64(hi); g++ {
		d.maybePowerDown(g)
		if d.cfg.NeighborRule {
			d.maybePowerDown(g ^ 1)
		}
	}
}

func (d *Daemon) maybePowerDown(g int) {
	if g < 0 || g >= d.groups || d.groupDown[g] || d.pendingExits[g] {
		return
	}
	if d.groupOffBytes[g] != d.groupBytes {
		return
	}
	if d.cfg.NeighborRule {
		partner := g ^ 1
		if partner < d.groups && d.groupOffBytes[partner] != d.groupBytes {
			return
		}
	}
	if err := d.ctrl.EnterGroupDPD(g); err != nil {
		panic(fmt.Sprintf("core: EnterGroupDPD(%d): %v", g, err))
	}
	d.groupDown[g] = true
	d.stats.GroupsEntered++
	d.updateDPDFrac()
}

func (d *Daemon) updateDPDFrac() {
	down := 0
	for _, v := range d.groupDown {
		if v {
			down++
		}
	}
	d.dpdFracTS.Set(d.eng.Now(), float64(down)/float64(d.groups))
}

// overlap returns the bytes of [lo,hi) inside group g.
func overlap(lo, hi uint64, g int, groupBytes int64) int64 {
	gLo := uint64(int64(g) * groupBytes)
	gHi := gLo + uint64(groupBytes)
	a, b := max(lo, gLo), min(hi, gHi)
	if b <= a {
		return 0
	}
	return int64(b - a)
}

// selectBlock implements block_selector() through the policy pipeline.
// attempted blocks are skipped within one tick. Returns -1 when no
// candidate exists.
func (d *Daemon) selectBlock(attempted []bool) int {
	lastEligible := d.hp.Blocks() // exclusive bound of eligible indexes
	firstEligible := 0
	if d.cfg.OfflinableBytes > 0 {
		// The movable (off-linable) region is the TOP of memory.
		firstEligible = int((d.installedBytes - d.cfg.OfflinableBytes) / d.hp.BlockBytes())
	}
	v := &d.sel.view
	v.First, v.Last = firstEligible, lastEligible
	v.Attempted = attempted
	v.HP = d.hp
	v.RNG = d.rng
	v.Tracker = d.sel.tracker
	v.Now = d.eng.Now()
	v.OfflinedAt = d.sel.offlinedAt
	return d.sel.policy.PickVictim(v)
}

// PolicySpec reports the normalized policy pipeline the daemon runs.
func (d *Daemon) PolicySpec() PolicySpec { return d.cfg.Policy }

// AccessTap returns the per-page hook that feeds the tracker, or nil when
// the configured policy reads no tracker (the paper policies). The hook
// maps the page frame to its hotplug block and stamps the engine clock.
func (d *Daemon) AccessTap() func(pfn kernel.PFN) {
	if d.sel.tracker == nil {
		return nil
	}
	pageBytes := d.mem.PageBytes()
	blockBytes := d.hp.BlockBytes()
	blocks := d.hp.Blocks()
	tr := d.sel.tracker
	return func(pfn kernel.PFN) {
		b := int(int64(pfn) * pageBytes / blockBytes)
		if b >= 0 && b < blocks {
			tr.Observe(b, d.eng.Now())
		}
	}
}

// AttachKernelTap routes the kernel allocator's page events (allocations
// and frees) into the tracker. No-op for trackerless policies; runs that
// only drive footprint curves get block heat for free this way.
func (d *Daemon) AttachKernelTap() {
	tap := d.AccessTap()
	if tap == nil {
		return
	}
	d.mem.SetPageTap(func(pfn kernel.PFN, _ bool) { tap(pfn) })
}

// alphaBytes returns the adaptive reserve addition: twice the largest
// used-memory growth seen in the recent window (zero when disabled).
func (d *Daemon) alphaBytes() int64 {
	if !d.cfg.AdaptiveAlpha {
		return 0
	}
	used := d.mem.Meminfo().UsedBytes
	growth := used - d.lastUsedBytes
	d.lastUsedBytes = used
	if growth < 0 {
		growth = 0
	}
	d.growthRing[d.growthIdx] = growth
	d.growthIdx = (d.growthIdx + 1) % len(d.growthRing)
	var maxG int64
	for _, g := range d.growthRing {
		if g > maxG {
			maxG = g
		}
	}
	return 2 * maxG
}

// OfflinedBlocks reports currently off-lined block count.
func (d *Daemon) OfflinedBlocks() int { return len(d.offlineStack) }

// OfflinedBytes reports currently off-lined capacity.
func (d *Daemon) OfflinedBytes() int64 {
	return int64(len(d.offlineStack)) * d.hp.BlockBytes()
}

// DPDFraction reports the instantaneous fraction of groups powered down.
func (d *Daemon) DPDFraction() float64 { return d.dpdFracTS.Value() }

// AvgDPDFraction reports the time-weighted DPD fraction since start.
func (d *Daemon) AvgDPDFraction() float64 { return d.dpdFracTS.Average(d.eng.Now()) }

// AvgOfflinedBlocks reports the time-weighted off-lined block count.
func (d *Daemon) AvgOfflinedBlocks() float64 { return d.offlineBlocksTS.Average(d.eng.Now()) }

// Stats returns accumulated counters.
func (d *Daemon) Stats() Stats { return d.stats }

// Groups reports the number of sub-array groups managed.
func (d *Daemon) Groups() int { return d.groups }

// GroupBytes reports the power-management unit size.
func (d *Daemon) GroupBytes() int64 { return d.groupBytes }
