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
	"math"

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

	// MaxQueue bounds the requests queued per channel; Submit reports
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
	// seq is the request's insertion number on its channel; next links
	// its bank's queue (see bank.head).
	seq  uint64
	next *request
}

// bank tracks one bank's row-buffer and timing state.
type bank struct {
	// openRow is the row this bank last activated (-1 after its own
	// precharge). It is open only while rowEpoch, recorded at that
	// activate, equals the rank's (see rank.openRow).
	openRow  int
	rowEpoch uint64
	readyAt  sim.Time
	// canPreAt is when a precharge may start (tRAS/tWR/tRTP constraints
	// folded in at access time).
	canPreAt sim.Time

	rk *rank // owning rank
	// head and tail hold the bank's queued requests in insertion order,
	// linked through request.next (an intrusive FIFO: queueing allocates
	// nothing). While the queue is non-empty the bank sits at
	// chn.active[active].
	head, tail *request
	active     int
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
	chn   *channel // owning channel (its stats count this rank's activity)
	banks []bank
	res   *metrics.Residency
	// state is the power state as of the last settle; while pending is 0
	// the idle descent may have moved on since (see Controller.settle).
	state int
	// awakeAt: until this time the rank cannot accept commands (wake-up
	// or refresh in progress).
	awakeAt sim.Time
	// rowEpoch counts rank-wide row closures: REF, and wake-up from
	// power-down or self-refresh.
	rowEpoch uint64
	actHist  [4]sim.Time // for tFAW
	actIdx   int
	pending  int // queued + in-flight requests targeting this rank
	// standbySince is when the current idle descent began. Its
	// power-down step is keyed pdAt, the key its timer event would have
	// taken; the self-refresh step falls SelfRefreshAfter after
	// standbySince.
	standbySince sim.Time
	pdAt         sim.Pos
	// rounds counts the refresh rounds applied to (or skipped by) this
	// rank; roundCap is the last round whose REF reaches it before the
	// current descent enters self-refresh (noRoundCap with no descent).
	rounds   int64
	roundCap int64
}

// noRoundCap is a rank's roundCap while no idle descent is under way.
const noRoundCap = math.MaxInt64

// channel is one memory channel's scheduler state. Stats are kept per
// channel and merged on demand (see Controller.Stats).
type channel struct {
	// active lists the banks with queued requests, in no particular
	// order; its capacity, ranks x banks, is fixed in New. queued counts
	// their requests, and seq numbers them in insertion order.
	active    []*bank
	queued    int
	seq       uint64
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
	// engine's AtFunc so the hot path never allocates a closure.
	compFn    func(any) // arg *request: completion at data-return time
	kickFn    func(any) // arg *channel: scheduling pass
	refreshFn func()    // controller-wide tREFI refresh round

	// rounds counts the refresh rounds run so far; round k is due at
	// start + k*tREFI.
	rounds int64
	start  sim.Time
	final  bool
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
	c.refreshFn = c.refreshTick
	// Arm the refresh round before any idle descent: where a rank's idle
	// step falls on a refresh instant, the REF goes first, so a rank that
	// enters self-refresh there still gets that round's REF (armDescent
	// takes the round due at tPD as queued before the descent).
	eng.AfterDaemon(cfg.Timing.TREFI, c.refreshFn)
	now := eng.Now()
	for ch := 0; ch < cfg.Org.Channels; ch++ {
		chn := &channel{active: make([]*bank, 0, cfg.Org.RanksPerChannel()*cfg.Org.Banks())}
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
				standbySince: now,
				roundCap:     noRoundCap,
			}
			for b := range rk.banks {
				rk.banks[b].openRow = -1
				rk.banks[b].rk = rk
			}
			for i := range rk.actHist {
				rk.actHist[i] = -1 // empty: ACTs at t=0 are still real
			}
			chn.ranks = append(chn.ranks, rk)
			if cfg.LowPower {
				c.armDescent(rk)
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
	if chn.queued >= c.cfg.MaxQueue {
		return ErrQueueFull
	}
	rk := chn.ranks[loc.Rank]
	req := c.getReq()
	req.loc, req.write, req.arrive = loc, write, c.eng.Now()
	req.cb, req.id, req.rk = cb, id, rk
	chn.enqueue(&rk.banks[loc.BankGroup*c.cfg.Org.BanksPerGroup+loc.Bank], req)
	if c.tracer != nil {
		c.tracer.record(c.eng.Now(), pa, write)
	}
	c.rankAccesses[loc.Channel*c.cfg.Org.RanksPerChannel()+loc.Rank]++
	c.wake(chn, rk)
	rk.pending++
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
// callback, rank and queue-link references so idle pool slots retain
// nothing.
func (c *Controller) putReq(r *request) {
	r.cb, r.rk, r.next, r.id = nil, nil, nil, 0
	c.freeReqs = append(c.freeReqs, r)
}

// QueueLen reports the total queued (not yet issued) requests.
func (c *Controller) QueueLen() int {
	n := 0
	for _, ch := range c.channels {
		n += ch.queued
	}
	return n
}

// enqueue appends req to bank b's queue, listing b as active if it had
// no queued request.
func (chn *channel) enqueue(b *bank, req *request) {
	chn.seq++
	req.seq = chn.seq
	if b.tail == nil {
		b.head = req
		b.active = len(chn.active)
		chn.active = append(chn.active, b)
	} else {
		b.tail.next = req
	}
	b.tail = req
	chn.queued++
}

// dequeue unlinks the request after prev in bank b's queue (the head when
// prev is nil) and returns it. A bank whose queue empties leaves the
// active list; the last entry takes its slot, and the vacated tail slot
// is cleared so the list's backing array retains no bank.
func (chn *channel) dequeue(b *bank, prev *request) *request {
	req := b.head
	if prev == nil {
		b.head = req.next
	} else {
		req = prev.next
		prev.next = req.next
	}
	if b.tail == req {
		b.tail = prev
	}
	req.next = nil
	chn.queued--
	if b.head == nil {
		last := len(chn.active) - 1
		moved := chn.active[last]
		chn.active[b.active], moved.active = moved, b.active
		chn.active[last] = nil
		chn.active = chn.active[:last]
	}
	return req
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
		b, prev, nextAt := c.pickReady(chn, now)
		if b == nil {
			if nextAt >= 0 {
				c.kick(chn, nextAt)
			}
			return
		}
		c.issue(chn, chn.dequeue(b, prev))
	}
}

// pickReady finds the preferred issuable request: among requests whose
// rank is awake and bank command-ready, row hits beat misses and
// insertion order breaks ties. Insertion order is age order, since a
// request's arrival is the engine's clock at submit. All of a bank's
// requests share one readiness, max(awakeAt, readyAt), so a ready bank
// offers its first request to the open row, or else its first request.
// pickReady returns that request's bank and its predecessor in the
// bank's queue (nil for the head), or a nil bank plus the earliest
// future readiness among the banks with work (-1 if none). It first
// applies the refresh rounds each bank's rank has missed.
func (c *Controller) pickReady(chn *channel, now sim.Time) (best *bank, bestPrev *request, nextAt sim.Time) {
	var bestReq *request
	bestHit := false
	nextAt = -1
	for _, b := range chn.active {
		if b.rk.rounds != c.rounds {
			c.applyRefresh(b.rk)
		}
		if ready := maxTime2(b.rk.awakeAt, b.readyAt); ready > now {
			if nextAt < 0 || ready < nextAt {
				nextAt = ready
			}
			continue
		}
		req, prev, hit := b.head, (*request)(nil), false
		if open := b.rk.openRow(b); open >= 0 {
			for p, r := (*request)(nil), b.head; r != nil; p, r = r, r.next {
				if r.loc.Row == open {
					req, prev, hit = r, p, true
					break
				}
			}
		}
		if bestReq == nil || hit && !bestHit || hit == bestHit && req.seq < bestReq.seq {
			best, bestPrev, bestReq, bestHit = b, prev, req, hit
		}
	}
	return best, bestPrev, nextAt
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
	switch open := rk.openRow(b); {
	case open == req.loc.Row: // row hit
		casAt = cmdStart
	case open < 0: // closed, ACT needed
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

	switch open := rk.openRow(b); {
	case open == req.loc.Row:
		chn.stats.RowHits++
	case open < 0:
		chn.stats.RowMisses++
		c.recordAct(rk)
	default:
		chn.stats.RowConflicts++
		c.recordAct(rk)
	}
	b.openRow, b.rowEpoch = req.loc.Row, rk.rowEpoch

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

	if rk.state != rsActive {
		rk.res.Transition(c.eng.Now(), rsActive)
		rk.state = rsActive
	}
	c.eng.AtFunc(dataEnd, c.compFn, req)
}

// completeReq runs at a request's data-return time: it releases the
// rank, recycles the request, and only then notifies the caller — so a
// submit from inside Complete reuses the freed slot, and no free-list
// entry ever has a completion event outstanding. When a rank's last
// pending request completes, all of its data has returned, so the rank
// enters standby now and its idle descent starts.
func (c *Controller) completeReq(req *request) {
	rk := req.rk
	rk.pending--
	if rk.pending == 0 && c.cfg.LowPower {
		now := c.eng.Now()
		rk.res.Transition(now, rsStandby)
		rk.state = rsStandby
		rk.standbySince = now
		c.armDescent(rk)
	}
	cb, id, arrive := req.cb, req.id, req.arrive
	c.putReq(req)
	if cb != nil {
		cb.Complete(id, c.eng.Now()-arrive)
	}
}

// openRow reports the row open in bank b of rk, or -1 when b is
// precharged or a rank-wide closure has happened since b activated it.
func (rk *rank) openRow(b *bank) int {
	if b.rowEpoch != rk.rowEpoch {
		return -1
	}
	return b.openRow
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

// The idle descent (standby -> power-down after PowerDownAfter ->
// self-refresh after SelfRefreshAfter, both from standby entry) and the
// refresh rounds a rank receives are computed when the rank is read,
// with no per-rank events. A step or round takes effect exactly when its
// timer event would have run, ties included; DESIGN.md §9 "Closed-form
// idle descent and O(1) refresh rounds" derives the rules.

// armDescent starts rk's idle descent from standbySince: it takes the
// key the power-down timer would have had, and fixes the last refresh
// round to reach the rank before self-refresh. A round due before tSR
// reaches it. A round due exactly at tSR was queued during the round at
// tSR-tREFI, and reaches the rank iff that ran before the power-down
// step, whose dispatch would have queued the self-refresh timer: always
// when the steps are less than tREFI apart, never when more, and when
// exactly tREFI apart iff the round due at tPD is already queued now.
func (c *Controller) armDescent(rk *rank) {
	tREFI := c.cfg.Timing.TREFI
	pd := rk.standbySince + c.cfg.PowerDownAfter
	rk.pdAt = c.eng.Reserve(pd)
	sr := rk.standbySince + c.cfg.SelfRefreshAfter
	last := int64((sr - c.start) / tREFI)
	if c.start+sim.Time(last)*tREFI == sr {
		switch gap := c.cfg.SelfRefreshAfter - c.cfg.PowerDownAfter; {
		case gap > tREFI,
			gap == tREFI && c.start+sim.Time(c.rounds+1)*tREFI != pd:
			last--
		}
	}
	rk.roundCap = last
}

// settle writes the steps of rk's idle descent that have run by now. The
// power-down step runs when its reserved key has passed. The
// self-refresh timer would have been queued by the power-down step, so a
// self-refresh step due exactly now has run iff the event now running
// was scheduled after that step.
func (c *Controller) settle(rk *rank) {
	if rk.pending > 0 || !c.cfg.LowPower {
		return
	}
	switch rk.state {
	case rsStandby:
		if !c.eng.Passed(rk.pdAt) {
			return
		}
		rk.res.Transition(rk.pdAt.At, rsPowerDown)
		rk.state = rsPowerDown
		fallthrough
	case rsPowerDown:
		sr, now := rk.standbySince+c.cfg.SelfRefreshAfter, c.eng.Now()
		if sr > now || sr == now && !c.eng.BornAfter(rk.pdAt) {
			return
		}
		rk.res.Transition(sr, rsSelfRefresh)
		rk.state = rsSelfRefresh
	}
}

// applyRefresh applies to rk the refresh rounds run since it was last
// read, up to its roundCap. Each REF blocks the rank for tRFC from
// max(round, awakeAt) and closes its rows, so m rounds ending at round
// T leave awakeAt = max(T + tRFC, awakeAt + m*tRFC) (rounds are tREFI >
// tRFC apart) and need one row-epoch bump. awakeAt never decreases, so
// the refresh end dominates every bank's earlier readyAt: the readers
// (pickReady, timeRequest) take the max of the two, and issue overwrites
// readyAt.
func (c *Controller) applyRefresh(rk *rank) {
	from, last := rk.rounds, c.rounds
	rk.rounds = c.rounds
	if rk.roundCap < last {
		last = rk.roundCap
	}
	m := last - from
	if m <= 0 {
		return
	}
	t := &c.cfg.Timing
	rk.chn.stats.Refreshes += m
	rk.awakeAt = maxTime2(c.start+sim.Time(last)*t.TREFI+t.TRFC, rk.awakeAt+sim.Time(m)*t.TRFC)
	rk.rowEpoch++ // closes every open row of the rank
}

// wake brings rk up to date as a request arrives and ends its idle
// descent: the descent's due steps, the refresh rounds it missed, then
// the tXP/tXS exit penalty if it was asleep. SubmitCall calls it before
// counting the request in pending, which settle reads.
func (c *Controller) wake(chn *channel, rk *rank) {
	c.settle(rk)
	c.applyRefresh(rk)
	rk.roundCap = noRoundCap
	now := c.eng.Now()
	// awakeAt only grows here (the max keeps a REF still in progress), so
	// it stays the non-decreasing bound that lets applyRefresh leave
	// per-bank readyAt alone.
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
	// The rank wakes with every bank closed: self-refresh exit loses the
	// row buffers, and the model's power-down is precharge power-down.
	rk.rowEpoch++
}

// --- refresh ---

// refreshTick is one tREFI refresh round: a single controller-wide daemon
// event (armed in New before any idle descent, self-rescheduling) that
// sends a REF to every rank not in self-refresh (the device refreshes
// itself there). It only counts the round; each rank applies the rounds
// it missed when it is next read (applyRefresh). DESIGN.md §9 "Refresh"
// shows that this equals one REF chain per rank exactly.
func (c *Controller) refreshTick() {
	if c.final {
		return
	}
	c.rounds++
	c.eng.AfterDaemon(c.cfg.Timing.TREFI, c.refreshFn)
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

// Finalize settles every rank's idle descent and refresh rounds and
// freezes residency meters at the current time. Call once, after the
// simulation drains; reporting methods may be used afterwards.
func (c *Controller) Finalize() {
	if c.final {
		return
	}
	now := c.eng.Now()
	for _, ch := range c.channels {
		for _, rk := range ch.ranks {
			c.settle(rk)
			c.applyRefresh(rk)
			rk.res.Finalize(now)
		}
	}
	c.final = true
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
// It first applies the refresh rounds each rank has missed.
func (c *Controller) Stats() *Stats {
	out := &Stats{}
	for _, ch := range c.channels {
		for _, rk := range ch.ranks {
			c.applyRefresh(rk)
		}
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
	a := power.Activity{
		Window:  now - c.start,
		DPDFrac: c.dpdFrac.Average(now),
	}
	// Sum the counters here rather than through Stats, which would copy
	// every channel's retained latency samples only to drop them.
	for _, ch := range c.channels {
		a.Activations += ch.stats.Activations
		a.Reads += ch.stats.Reads
		a.Writes += ch.stats.Writes
		a.Refreshes += ch.stats.Refreshes
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
// self-refresh — the paper's Fig. 3b metric. Call after Finalize: until
// then an idle descent's steps are not written to the residency meters.
func (c *Controller) SelfRefreshFraction() float64 {
	if !c.final {
		panic("mc: SelfRefreshFraction before Finalize")
	}
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
// power-down or self-refresh. Call after Finalize, as SelfRefreshFraction.
func (c *Controller) LowPowerFraction() float64 {
	if !c.final {
		panic("mc: LowPowerFraction before Finalize")
	}
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
