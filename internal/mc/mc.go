// Package mc implements the memory controller: per-channel FR-FCFS request
// scheduling over per-bank DDR4 timing, auto-refresh, the rank low-power
// policy (idle timeout into power-down, then self-refresh — §2.2 of the
// paper), and the two partial-array control mechanisms the paper contrasts:
// PASR bank refresh-disable bits and GreenDIMM's sub-array-group deep
// power-down register.
//
// The model is event-driven and cycle-approximate: every request pays real
// ACT/PRE/CAS/burst constraints against its bank, shares the channel data
// bus, and wakes sleeping ranks with tXP/tXS penalties, but the command bus
// itself is not arbitrated cycle by cycle. That is the standard fidelity
// point for power studies (cf. Ramulator's "simple" frontend), and it is
// what the paper's claims depend on: who can idle, for how long, and what a
// wake-up costs.
package mc

import (
	"fmt"

	"greendimm/internal/addr"
	"greendimm/internal/dram"
	"greendimm/internal/metrics"
	"greendimm/internal/power"
	"greendimm/internal/sim"
)

// Config configures a Controller.
type Config struct {
	Org         dram.Org
	Timing      dram.Timing
	Interleaved bool

	// LowPower enables the rank idle policy: after PowerDownAfter of rank
	// idleness the rank enters power-down; after SelfRefreshAfter (from
	// the same idle start) it moves to self-refresh. Zero values take
	// defaults. Disable to model a controller with power management off.
	LowPower         bool
	PowerDownAfter   sim.Time
	SelfRefreshAfter sim.Time

	// MaxQueue bounds the per-channel request queue; Submit reports
	// ErrQueueFull beyond it so closed-loop generators self-throttle.
	MaxQueue int

	// ClosedPage selects the closed-page row-buffer policy: every access
	// auto-precharges its row, trading row hits for lower conflict
	// latency — the controller knob server BIOSes expose.
	ClosedPage bool
}

// Defaults mirror conservative server BIOS policies.
const (
	defaultPowerDownAfter   = 1 * sim.Microsecond
	defaultSelfRefreshAfter = 64 * sim.Microsecond
	defaultMaxQueue         = 64
)

// ErrQueueFull is reported by Submit when the target channel queue is full.
var ErrQueueFull = fmt.Errorf("mc: channel queue full")

// Completer receives request completions. Callers that implement it and
// submit through SubmitCall pay no per-access heap allocation: the
// controller passes back the caller's id instead of invoking a closure,
// so one long-lived Completer serves every access a workload issues.
// Complete runs inside the engine's event loop at data-return time; the
// id is whatever the caller passed to SubmitCall, latency is completion
// time minus submit time.
type Completer interface {
	Complete(id uint64, latency sim.Time)
}

// funcCompleter adapts the legacy func(sim.Time) callback to Completer.
type funcCompleter struct{ fn func(sim.Time) }

func (f *funcCompleter) Complete(_ uint64, lat sim.Time) { f.fn(lat) }

// request is an in-flight memory request. Requests are pooled: the
// controller recycles them through a free list once completed (engine
// Event style), so steady-state traffic allocates none.
type request struct {
	loc    addr.Loc
	write  bool
	arrive sim.Time
	cb     Completer
	id     uint64
	rk     *rank
}

// bank tracks one bank's row-buffer and timing state.
type bank struct {
	openRow int // -1 when precharged
	readyAt sim.Time
	// canPreAt is when a precharge may start (tRAS/tWR/tRTP constraints
	// folded in at access time).
	canPreAt sim.Time
}

// Rank power-state indices for the residency meter (match dram.PowerState
// for the four rank-level states).
const (
	rsActive = iota
	rsStandby
	rsPowerDown
	rsSelfRefresh
	rsCount
)

// rank tracks one rank's power state, refresh, and activate history.
type rank struct {
	chn       *channel // owning channel (its stats count this rank's activity)
	banks     []bank
	res       *metrics.Residency
	state     int
	idleSince sim.Time
	// awakeAt: until this time the rank cannot accept commands (wake-up
	// or refresh in progress).
	awakeAt sim.Time
	actHist [4]sim.Time // for tFAW
	actIdx  int
	pending int // queued + in-flight requests targeting this rank
	// standbySince is when the current standby residency began; the idle
	// descent timers re-derive their liveness from it (a fired timer
	// whose expected entry time no longer matches is stale), replacing
	// the sequence-number captures that cost a closure per arm.
	standbySince sim.Time
	// idleArmedAt dedupes idle-descent events: at most one is queued per
	// target time, since a fired event carries no state beyond the rank.
	idleArmedAt sim.Time
}

// channel is one memory channel's scheduler state. Stats are kept per
// channel and merged on demand (see Controller.Stats).
type channel struct {
	queue     []*request
	busFreeAt sim.Time
	kickAt    sim.Time // earliest pending kick event, to dedupe
	kickSet   bool
	ranks     []*rank
	stats     Stats
}

// Stats is a snapshot of accumulated controller activity.
type Stats struct {
	Reads, Writes int64
	Activations   int64
	Refreshes     int64
	RowHits       int64
	RowMisses     int64 // closed bank (first touch after precharge)
	RowConflicts  int64 // open row mismatch, needed PRE+ACT
	WakeUps       int64 // exits from power-down or self-refresh
	ReadLatency   metrics.Distribution
}

// Controller is the top-level memory controller for all channels.
type Controller struct {
	eng    *sim.Engine
	cfg    Config
	mapper *addr.Mapper

	channels []*channel
	saReg    *dram.SubArrayGroupRegister
	pasr     *dram.PASRRegister
	dpdFrac  *metrics.WeightedValue

	rankAccesses []int64 // per global rank, for hotness-driven policies
	tracer       *Tracer

	// freeReqs pools completed request objects for reuse by SubmitCall.
	freeReqs []*request

	// Event handlers bound once at construction; scheduled with the
	// engine's AtFunc family so the hot path never allocates a closure.
	compFn    func(any) // arg *request: completion at data-return time
	kickFn    func(any) // arg *channel: scheduling pass
	idleFn    func(any) // arg *rank: idle-descent timer
	refreshFn func(any) // arg *rank: tREFI refresh tick

	start sim.Time
	final bool
}

// New builds a controller attached to the engine.
func New(eng *sim.Engine, cfg Config) (*Controller, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if cfg.PowerDownAfter == 0 {
		cfg.PowerDownAfter = defaultPowerDownAfter
	}
	if cfg.SelfRefreshAfter == 0 {
		cfg.SelfRefreshAfter = defaultSelfRefreshAfter
	}
	if cfg.SelfRefreshAfter <= cfg.PowerDownAfter {
		return nil, fmt.Errorf("mc: self-refresh timeout %v must exceed power-down timeout %v",
			cfg.SelfRefreshAfter, cfg.PowerDownAfter)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = defaultMaxQueue
	}
	mapper, err := addr.NewMapper(cfg.Org, cfg.Interleaved)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		eng:     eng,
		cfg:     cfg,
		mapper:  mapper,
		saReg:   dram.NewSubArrayGroupRegister(cfg.Org),
		pasr:    dram.NewPASRRegister(cfg.Org),
		dpdFrac: metrics.NewWeightedValue(0, eng.Now()),
		start:   eng.Now(),
	}
	c.rankAccesses = make([]int64, cfg.Org.TotalRanks())
	c.compFn = func(v any) { c.completeReq(v.(*request)) }
	c.kickFn = func(v any) { c.kickTick(v.(*channel)) }
	c.idleFn = func(v any) { c.idleTick(v.(*rank)) }
	c.refreshFn = func(v any) { c.refreshTick(v.(*rank)) }
	now := eng.Now()
	for ch := 0; ch < cfg.Org.Channels; ch++ {
		chn := &channel{}
		// Reads per run reach tens of millions; bound each channel's
		// percentile storage (Mean/N stay exact — see
		// metrics.Distribution.SetCap).
		chn.stats.ReadLatency.SetCap(readLatencyCap)
		for r := 0; r < cfg.Org.RanksPerChannel(); r++ {
			rk := &rank{
				chn:          chn,
				banks:        make([]bank, cfg.Org.Banks()),
				res:          metrics.NewResidency(rsCount, rsStandby, now),
				state:        rsStandby,
				idleSince:    now,
				standbySince: now,
				idleArmedAt:  -1,
			}
			for b := range rk.banks {
				rk.banks[b].openRow = -1
			}
			for i := range rk.actHist {
				rk.actHist[i] = -1 // empty: ACTs at t=0 are still real
			}
			chn.ranks = append(chn.ranks, rk)
			eng.AfterDaemonFunc(cfg.Timing.TREFI, c.refreshFn, rk)
			if cfg.LowPower {
				c.armIdleTimer(rk)
			}
		}
		c.channels = append(c.channels, chn)
	}
	return c, nil
}

// readLatencyCap bounds retained read-latency percentile samples.
const readLatencyCap = 1 << 15

// Mapper exposes the address mapper (shared with the OS layer so both agree
// on sub-array group boundaries).
func (c *Controller) Mapper() *addr.Mapper { return c.mapper }

// GroupRegister exposes the GreenDIMM sub-array-group register.
func (c *Controller) GroupRegister() *dram.SubArrayGroupRegister { return c.saReg }

// PASRRegister exposes the PASR bank bit-vector (used by the PASR baseline).
func (c *Controller) PASRRegister() *dram.PASRRegister { return c.pasr }

// Submit enqueues a memory access for the cache line containing pa.
// done (optional) is invoked at completion with the request latency.
// Submitting to an address whose sub-array group is in deep power-down is
// a modelling error — the OS has off-lined that range — and panics.
//
// Submit adapts done into a Completer, which costs one allocation when
// done is non-nil; allocation-sensitive callers should implement
// Completer and use SubmitCall instead.
func (c *Controller) Submit(pa uint64, write bool, done func(sim.Time)) error {
	if done == nil {
		return c.SubmitCall(pa, write, nil, 0)
	}
	return c.SubmitCall(pa, write, &funcCompleter{fn: done}, 0)
}

// SubmitCall enqueues a memory access like Submit, delivering completion
// as cb.Complete(id, latency) (cb may be nil for fire-and-forget). The
// request object comes from the controller's free list, so a caller with
// a long-lived Completer submits with zero heap allocations.
func (c *Controller) SubmitCall(pa uint64, write bool, cb Completer, id uint64) error {
	loc, err := c.mapper.Decode(pa)
	if err != nil {
		return err
	}
	if g := c.mapper.SubArrayGroupOfRow(loc.Row); c.saReg.Down(g) {
		panic(fmt.Sprintf("mc: access %#x to sub-array group %d in deep power-down", pa, g))
	}
	chn := c.channels[loc.Channel]
	if len(chn.queue) >= c.cfg.MaxQueue {
		return ErrQueueFull
	}
	rk := chn.ranks[loc.Rank]
	req := c.getReq()
	req.loc, req.write, req.arrive = loc, write, c.eng.Now()
	req.cb, req.id, req.rk = cb, id, rk
	chn.queue = append(chn.queue, req)
	if c.tracer != nil {
		c.tracer.record(c.eng.Now(), pa, write)
	}
	c.rankAccesses[loc.Channel*c.cfg.Org.RanksPerChannel()+loc.Rank]++
	rk.pending++
	c.wakeIfSleeping(chn, rk)
	c.kick(chn, c.eng.Now())
	return nil
}

// getReq pops a pooled request (or makes one).
func (c *Controller) getReq() *request {
	if k := len(c.freeReqs) - 1; k >= 0 {
		r := c.freeReqs[k]
		c.freeReqs[k] = nil
		c.freeReqs = c.freeReqs[:k]
		return r
	}
	return &request{}
}

// putReq returns a completed request to the free list, dropping the
// callback and rank references so idle pool slots retain nothing.
func (c *Controller) putReq(r *request) {
	r.cb, r.rk, r.id = nil, nil, 0
	c.freeReqs = append(c.freeReqs, r)
}

// QueueLen reports the total queued (not yet issued) requests.
func (c *Controller) QueueLen() int {
	n := 0
	for _, ch := range c.channels {
		n += len(ch.queue)
	}
	return n
}

// --- scheduling core ---

// kick schedules a scheduling pass on the channel at time at (deduped).
func (c *Controller) kick(chn *channel, at sim.Time) {
	now := c.eng.Now()
	if at < now {
		at = now
	}
	if chn.kickSet && chn.kickAt <= at {
		return
	}
	chn.kickAt = at
	chn.kickSet = true
	c.eng.AtFunc(at, c.kickFn, chn)
}

// kickTick runs an armed kick event. A fired event's own time is the
// current time, so kickAt differing from now means an earlier kick
// superseded this one.
func (c *Controller) kickTick(chn *channel) {
	if chn.kickAt != c.eng.Now() {
		return
	}
	chn.kickSet = false
	c.schedule(chn)
}

// schedule issues every request whose bank and rank can accept commands
// now (FR-FCFS order: ready row hits first, then oldest ready). When no
// request is ready, the kick timer re-arms at the earliest readiness.
func (c *Controller) schedule(chn *channel) {
	now := c.eng.Now()
	for {
		idx, nextAt := c.pickReady(chn, now)
		if idx < 0 {
			if nextAt >= 0 {
				c.kick(chn, nextAt)
			}
			return
		}
		req := chn.queue[idx]
		// Compacting removal that nils the vacated tail slot: the backing
		// array must not retain a pointer to the issued (soon pooled)
		// request.
		last := len(chn.queue) - 1
		copy(chn.queue[idx:], chn.queue[idx+1:])
		chn.queue[last] = nil
		chn.queue = chn.queue[:last]
		c.issue(chn, req)
	}
}

// pickReady returns the index of the preferred issuable request — among
// requests whose rank is awake and bank command-ready, row hits beat
// misses and age breaks ties — or -1 plus the earliest future readiness.
func (c *Controller) pickReady(chn *channel, now sim.Time) (int, sim.Time) {
	best := -1
	bestHit := false
	var nextAt sim.Time = -1
	for i, r := range chn.queue {
		rk := chn.ranks[r.loc.Rank]
		b := &rk.banks[r.loc.BankGroup*c.cfg.Org.BanksPerGroup+r.loc.Bank]
		ready := maxTime2(rk.awakeAt, b.readyAt)
		if ready > now {
			if nextAt < 0 || ready < nextAt {
				nextAt = ready
			}
			continue
		}
		hit := b.openRow == r.loc.Row
		switch {
		case best < 0:
			best, bestHit = i, hit
		case hit && !bestHit:
			best, bestHit = i, hit
		case hit == bestHit && r.arrive < chn.queue[best].arrive:
			best = i
		}
	}
	return best, nextAt
}

// timeRequest computes (commandStart, dataStart, dataEnd) for a request
// given current bank/rank/bus state.
func (c *Controller) timeRequest(chn *channel, req *request) (sim.Time, sim.Time, sim.Time) {
	t := &c.cfg.Timing
	now := c.eng.Now()
	rk := chn.ranks[req.loc.Rank]
	b := &rk.banks[req.loc.BankGroup*c.cfg.Org.BanksPerGroup+req.loc.Bank]

	cmdStart := maxTime3(now, rk.awakeAt, b.readyAt)
	var casAt sim.Time
	switch {
	case b.openRow == req.loc.Row: // row hit
		casAt = cmdStart
	case b.openRow < 0: // closed, ACT needed
		actAt := maxTime2(cmdStart, c.fawGate(rk))
		casAt = actAt + t.TRCD
	default: // conflict: PRE then ACT
		preAt := maxTime2(cmdStart, b.canPreAt)
		actAt := maxTime2(preAt+t.TRP, c.fawGate(rk))
		casAt = actAt + t.TRCD
	}
	cas := t.TCL
	if req.write {
		cas = t.TCWL
	}
	dataStart := maxTime2(casAt+cas, chn.busFreeAt)
	return cmdStart, dataStart, dataStart + t.TBL
}

// fawGate returns the earliest time a new ACT satisfies tFAW.
func (c *Controller) fawGate(rk *rank) sim.Time {
	oldest := rk.actHist[rk.actIdx]
	if oldest < 0 { // fewer than four ACTs so far
		return 0
	}
	return oldest + c.cfg.Timing.TFAW
}

// issue commits the request: updates bank state, bus, stats, and schedules
// completion at data-return time.
func (c *Controller) issue(chn *channel, req *request) {
	t := &c.cfg.Timing
	rk := chn.ranks[req.loc.Rank]
	b := &rk.banks[req.loc.BankGroup*c.cfg.Org.BanksPerGroup+req.loc.Bank]
	_, dataStart, dataEnd := c.timeRequest(chn, req)

	switch {
	case b.openRow == req.loc.Row:
		chn.stats.RowHits++
	case b.openRow < 0:
		chn.stats.RowMisses++
		c.recordAct(rk)
	default:
		chn.stats.RowConflicts++
		c.recordAct(rk)
	}
	b.openRow = req.loc.Row

	// Bank ready for the next column command after the CAS-to-CAS gap
	// (undo this request's CAS latency, which differs for writes);
	// precharge legal after write recovery / read-to-precharge.
	casLat := t.TCL
	if req.write {
		casLat = t.TCWL
	}
	b.readyAt = dataStart - casLat + t.TCCDL
	if req.write {
		b.canPreAt = dataEnd + t.TWR
	} else {
		b.canPreAt = maxTime2(b.canPreAt, dataStart+t.TRTP)
	}
	if c.cfg.ClosedPage {
		// Auto-precharge: the row closes after this access; the next
		// access to the bank activates from precharged no earlier than
		// the precharge completes.
		b.openRow = -1
		b.readyAt = maxTime2(b.readyAt, b.canPreAt+t.TRP)
	}
	chn.busFreeAt = dataEnd

	if req.write {
		chn.stats.Writes++
	} else {
		chn.stats.Reads++
		chn.stats.ReadLatency.Add((dataEnd - req.arrive).Nanoseconds())
	}

	c.markBusy(rk, dataEnd)
	c.eng.AtFunc(dataEnd, c.compFn, req)
}

// completeReq runs at a request's data-return time: it releases the
// rank, recycles the request, and only then notifies the caller — so a
// submit from inside Complete reuses the freed slot, and no free-list
// entry ever has a completion event outstanding.
func (c *Controller) completeReq(req *request) {
	rk := req.rk
	rk.pending--
	if rk.pending == 0 && c.cfg.LowPower {
		c.armIdleTimer(rk)
	}
	cb, id, arrive := req.cb, req.id, req.arrive
	c.putReq(req)
	if cb != nil {
		cb.Complete(id, c.eng.Now()-arrive)
	}
}

func (c *Controller) recordAct(rk *rank) {
	rk.chn.stats.Activations++
	rk.actHist[rk.actIdx] = c.eng.Now()
	rk.actIdx = (rk.actIdx + 1) % len(rk.actHist)
}

// maxTime2 and maxTime3 are fixed-arity maxima: the issue path computes
// several per request, and the variadic form they replace materialized a
// slice per call.
func maxTime2(a, b sim.Time) sim.Time {
	if b > a {
		return b
	}
	return a
}

func maxTime3(a, b, c sim.Time) sim.Time {
	return maxTime2(maxTime2(a, b), c)
}

// --- power-state policy ---

// markBusy transitions the rank to active until at least busyUntil.
// Armed idle timers need no explicit cancellation: a fired idleTick
// re-derives liveness from the rank's state and standby-entry time.
func (c *Controller) markBusy(rk *rank, busyUntil sim.Time) {
	now := c.eng.Now()
	if rk.state != rsActive {
		rk.res.Transition(now, rsActive)
		rk.state = rsActive
	}
	if busyUntil > rk.idleSince {
		rk.idleSince = busyUntil
	}
}

// armIdleTimer begins the standby -> power-down -> self-refresh descent
// once the rank has no pending work. Transition times are the same as
// the captured-closure scheme this replaces — standby on last data
// return, power-down and self-refresh at PowerDownAfter/SelfRefreshAfter
// past standby entry — but arming allocates nothing: the timer events
// carry only the rank, and a fired event decides from current state
// whether it is still live.
func (c *Controller) armIdleTimer(rk *rank) {
	if rk.pending > 0 {
		return
	}
	now := c.eng.Now()
	if rk.state == rsActive {
		if rk.idleSince > now {
			// Data still on the wire: revisit at the drain time.
			c.armIdleAt(rk, rk.idleSince)
			return
		}
		rk.res.Transition(now, rsStandby)
		rk.state = rsStandby
		rk.idleSince = now
		rk.standbySince = now
	}
	if rk.state == rsStandby && rk.standbySince == now {
		c.armIdleAt(rk, now+c.cfg.PowerDownAfter)
	}
}

// armIdleAt queues an idle-descent event at time at. One queued event
// per target time suffices — idleTick carries no captured state — so
// equal-time re-arms are deduped.
func (c *Controller) armIdleAt(rk *rank, at sim.Time) {
	if rk.idleArmedAt == at {
		return
	}
	rk.idleArmedAt = at
	c.eng.AtDaemonFunc(at, c.idleFn, rk)
}

// idleTick advances the idle descent one step. The event knows only its
// rank; it is live exactly when the rank's current state says a
// transition is due now (stale timers from an interrupted descent fall
// through without effect, replacing the old sequence-number check).
func (c *Controller) idleTick(rk *rank) {
	if rk.pending > 0 {
		return
	}
	now := c.eng.Now()
	switch rk.state {
	case rsActive:
		// Deferred standby entry armed at the expected drain time.
		c.armIdleTimer(rk)
	case rsStandby:
		if now == rk.standbySince+c.cfg.PowerDownAfter {
			rk.res.Transition(now, rsPowerDown)
			rk.state = rsPowerDown
			c.armIdleAt(rk, rk.standbySince+c.cfg.SelfRefreshAfter)
		}
	case rsPowerDown:
		if now == rk.standbySince+c.cfg.SelfRefreshAfter {
			rk.res.Transition(now, rsSelfRefresh)
			rk.state = rsSelfRefresh
		}
	}
}

// wakeIfSleeping applies the tXP/tXS wake penalty when a request arrives at
// a sleeping rank.
func (c *Controller) wakeIfSleeping(chn *channel, rk *rank) {
	now := c.eng.Now()
	switch rk.state {
	case rsPowerDown:
		rk.awakeAt = maxTime2(rk.awakeAt, now+c.cfg.Timing.TXP)
		chn.stats.WakeUps++
	case rsSelfRefresh:
		rk.awakeAt = maxTime2(rk.awakeAt, now+c.cfg.Timing.TXS)
		chn.stats.WakeUps++
	default:
		return
	}
	rk.res.Transition(now, rsActive)
	rk.state = rsActive
	// Self-refresh exit loses the row buffers.
	for i := range rk.banks {
		rk.banks[i].openRow = -1
	}
}

// --- refresh ---

// refreshTick is the per-rank tREFI refresh chain (armed at construction,
// self-rescheduling). Ranks in self-refresh skip controller REF commands
// (the device refreshes itself).
func (c *Controller) refreshTick(rk *rank) {
	if c.final {
		return
	}
	if rk.state != rsSelfRefresh {
		rk.chn.stats.Refreshes++
		t := &c.cfg.Timing
		start := maxTime2(c.eng.Now(), rk.awakeAt)
		end := start + t.TRFC
		rk.awakeAt = end
		for i := range rk.banks {
			rk.banks[i].openRow = -1
			if rk.banks[i].readyAt < end {
				rk.banks[i].readyAt = end
			}
		}
	}
	c.eng.AfterDaemonFunc(c.cfg.Timing.TREFI, c.refreshFn, rk)
}

// --- GreenDIMM deep power-down control ---

// EnterGroupDPD puts sub-array group g into deep power-down. The caller
// (the GreenDIMM daemon) guarantees the OS has off-lined the matching
// physical range first.
func (c *Controller) EnterGroupDPD(g int) error {
	if err := c.saReg.EnterDPD(g); err != nil {
		return err
	}
	c.dpdFrac.Set(c.eng.Now(), c.saReg.DownFraction())
	return nil
}

// ExitGroupDPD starts waking group g; ready runs after tDPDX when the
// group's Ready bit is set — the bit the OS polls before online_pages.
func (c *Controller) ExitGroupDPD(g int, ready func()) error {
	if err := c.saReg.BeginExit(g); err != nil {
		return err
	}
	c.dpdFrac.Set(c.eng.Now(), c.saReg.DownFraction())
	c.eng.After(c.cfg.Timing.TDPDX, func() {
		c.saReg.CompleteExit(g)
		if ready != nil {
			ready()
		}
	})
	return nil
}

// --- reporting ---

// Finalize freezes residency meters at the current time. Call once, after
// the simulation drains; reporting methods may be used afterwards.
func (c *Controller) Finalize() {
	if c.final {
		return
	}
	c.final = true
	now := c.eng.Now()
	for _, ch := range c.channels {
		for _, rk := range ch.ranks {
			rk.res.Finalize(now)
		}
	}
}

// accumulate folds another channel's counters into s (channel-index
// order keeps merged ReadLatency percentile storage deterministic).
func (s *Stats) accumulate(o *Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Activations += o.Activations
	s.Refreshes += o.Refreshes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RowConflicts += o.RowConflicts
	s.WakeUps += o.WakeUps
	s.ReadLatency.MergeFrom(&o.ReadLatency)
}

// Stats returns a snapshot of event counters, merged across channels in
// channel index order. Each channel caps its own ReadLatency samples, so
// the merged percentiles depend on this per-channel split and order; one
// controller-wide distribution would report different percentiles. The
// snapshot is detached: it does not track later controller activity.
func (c *Controller) Stats() *Stats {
	out := &Stats{}
	for _, ch := range c.channels {
		out.accumulate(&ch.stats)
	}
	return out
}

// Activity assembles the power.Activity summary for the whole run (from
// construction to Finalize time). Call after Finalize.
func (c *Controller) Activity() power.Activity {
	if !c.final {
		panic("mc: Activity before Finalize")
	}
	now := c.eng.Now()
	st := c.Stats()
	a := power.Activity{
		Window:      now - c.start,
		Activations: st.Activations,
		Reads:       st.Reads,
		Writes:      st.Writes,
		Refreshes:   st.Refreshes,
		DPDFrac:     c.dpdFrac.Average(now),
	}
	for _, ch := range c.channels {
		for _, rk := range ch.ranks {
			a.ActiveT += rk.res.Total(rsActive)
			a.StandbyT += rk.res.Total(rsStandby)
			a.PowerDnT += rk.res.Total(rsPowerDown)
			a.SelfRefT += rk.res.Total(rsSelfRefresh)
		}
	}
	return a
}

// AccessesByRank returns a copy of per-global-rank access counts since
// construction (RAMZzz-style hotness input).
func (c *Controller) AccessesByRank() []int64 {
	out := make([]int64, len(c.rankAccesses))
	copy(out, c.rankAccesses)
	return out
}

// SelfRefreshFraction reports the average fraction of time ranks spent in
// self-refresh — the paper's Fig. 3b metric.
func (c *Controller) SelfRefreshFraction() float64 {
	var sr, total sim.Time
	for _, ch := range c.channels {
		for _, rk := range ch.ranks {
			for s := 0; s < rsCount; s++ {
				total += rk.res.Total(s)
			}
			sr += rk.res.Total(rsSelfRefresh)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sr) / float64(total)
}

// LowPowerFraction reports the average fraction of time ranks spent in
// power-down or self-refresh.
func (c *Controller) LowPowerFraction() float64 {
	var lp, total sim.Time
	for _, ch := range c.channels {
		for _, rk := range ch.ranks {
			for s := 0; s < rsCount; s++ {
				total += rk.res.Total(s)
			}
			lp += rk.res.Total(rsPowerDown) + rk.res.Total(rsSelfRefresh)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(lp) / float64(total)
}
