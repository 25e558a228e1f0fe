package sim

import "fmt"

// Event is a callback scheduled to run at a particular simulated time.
// Events scheduled for the same time run in scheduling order (stable).
// Daemon events (periodic refresh) do not keep Run alive: Run returns
// once only daemon events remain.
//
// Event objects are owned by the engine and recycled through a free list
// once dispatched, so steady-state scheduling (the self-rescheduling
// timer pattern every model here uses) allocates nothing per event.
//
// An event carries either a plain callback (fn) or an argument-carrying
// callback (afn + arg); AtFunc schedules the latter so hot paths can
// reuse one long-lived handler instead of allocating a closure per event.
type Event struct {
	at     Time
	seq    uint64
	fn     func()
	afn    func(any)
	arg    any
	born   Pos // the cursor when the event was scheduled
	daemon bool
}

// Pos is a place in the engine's dispatch order: the (time, seq) key an
// event dispatches by. Keys are unique, and events run in key order.
type Pos struct {
	At  Time
	Seq uint64
}

// Before reports whether p sorts before q.
func (p Pos) Before(q Pos) bool {
	return p.At < q.At || p.At == q.At && p.Seq < q.Seq
}

// Engine is a deterministic discrete-event simulation engine.
// The zero value is not usable; call NewEngine.
//
// The event queue is a hand-rolled binary min-heap over (at, seq) rather
// than container/heap: the interface indirection and any-boxing of the
// stdlib heap cost real time on the dispatch path, which executes tens of
// millions of events per experiment sweep.
type Engine struct {
	// cur is the key of the event now dispatching; between dispatches,
	// the last key dispatched, or, once RunUntil has run every event up
	// to its deadline, (deadline, next seq): past every key queued by
	// then and before every key taken later. born is the running event's
	// birth (the cursor when it was scheduled), or cur itself after such
	// a RunUntil. cur.At is the clock.
	cur     Pos
	born    Pos
	seq     uint64
	queue   []*Event
	free    []*Event // dispatched events awaiting reuse
	normal  int      // count of queued non-daemon events
	stopped bool

	checkEvery int         // poll the stop check every this many events
	checkIn    int         // events left until the next poll
	stopCheck  func() bool // nil: no external cancellation

	// The fields above are written on every event. Without this pad an
	// Engine was 104 bytes, and on a 2-vCPU VM the quick tail experiment at
	// parallelism 2 ran 14% slower (medians 3.35 s vs 2.95 s, 9 of 10
	// pairs lost) while parallelism 1 stayed flat; with it, parity
	// returned (3.25 s vs 3.26 s). The likely cause is that two parallel
	// sweep workers' per-event writes land on one cache line.
	_ [64]byte
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.cur.At }

// At schedules fn to run at absolute time at. Scheduling in the past panics:
// it always indicates a modelling bug, and silently reordering events would
// corrupt every downstream statistic.
func (e *Engine) At(at Time, fn func()) {
	e.push(at, fn, nil, nil, false)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.cur.At+d, fn) }

// AtDaemon schedules a daemon event: it runs normally under RunUntil and
// whenever ordinary events are still pending, but does not by itself keep
// Run alive. Use for perpetual background activity such as refresh.
func (e *Engine) AtDaemon(at Time, fn func()) {
	e.push(at, fn, nil, nil, true)
}

// AfterDaemon schedules a daemon event d after the current time.
func (e *Engine) AfterDaemon(d Time, fn func()) { e.AtDaemon(e.cur.At+d, fn) }

// AtFunc schedules fn(arg) at absolute time at. It orders exactly like
// At (same seq counter, same heap), but because fn is typically a
// long-lived handler bound once at construction and arg a pooled object,
// the call allocates nothing: no closure is created and pointer args are
// boxed for free.
func (e *Engine) AtFunc(at Time, fn func(any), arg any) {
	e.push(at, nil, fn, arg, false)
}

// Reserve consumes the seq an event scheduled now for time at would take
// and returns that event's key, queuing nothing. A model that computes a
// timer's effect when it is read, instead of dispatching it, compares the
// key with the cursor (Passed) to resolve ties exactly as the event would
// have.
func (e *Engine) Reserve(at Time) Pos {
	if at < e.cur.At {
		e.pastPanic(at)
	}
	e.seq++
	return Pos{at, e.seq}
}

// Passed reports whether an event keyed p would already have run: p is
// before the event now dispatching or, between dispatches, at or before
// the last key run (after a RunUntil that was not stopped, every key
// taken by then up to the deadline).
func (e *Engine) Passed(p Pos) bool { return p.Before(e.cur) }

// BornAfter reports whether the event now dispatching (between
// dispatches, the last one run) was scheduled after an event keyed p
// would have run. An event that an event keyed p would have scheduled
// for the current instant has therefore run iff BornAfter(p): the two
// were scheduled in that order. After a RunUntil that was not stopped it
// equals Passed(p).
func (e *Engine) BornAfter(p Pos) bool { return p.Before(e.born) }

// push queues an event for time at that calls fn, or afn(arg), taking
// a recycled Event when one is free. It is one call on the schedule
// path, which every event takes.
func (e *Engine) push(at Time, fn func(), afn func(any), arg any, daemon bool) {
	if at < e.cur.At {
		e.pastPanic(at)
	}
	e.seq++
	if !daemon {
		e.normal++
	}
	var ev *Event
	if k := len(e.free) - 1; k >= 0 {
		ev = e.free[k]
		e.free[k] = nil
		e.free = e.free[:k]
	} else {
		ev = new(Event)
	}
	ev.at, ev.seq, ev.born, ev.daemon = at, e.seq, e.cur, daemon
	ev.fn, ev.afn, ev.arg = fn, afn, arg
	e.queue = append(e.queue, ev)
	e.siftUp(len(e.queue) - 1)
}

// pastPanic rejects a schedule before now (see At).
func (e *Engine) pastPanic(at Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.cur.At))
}

// less orders the heap by time, then scheduling order.
func (e *Engine) less(i, j int) bool {
	a, b := e.queue[i], e.queue[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && e.less(r, l) {
			m = r
		}
		if !e.less(m, i) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.siftDown(0)
	}
	return ev
}

// recycle returns a dispatched event to the free list. The callback and
// argument references are dropped so the closure (and whatever it
// captures or points at) is released even if the event idles on the
// free list.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.afn, ev.arg = nil, nil
	e.free = append(e.free, ev)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Stop makes the current Run/RunUntil call return after the event that is
// executing now finishes.
func (e *Engine) Stop() { e.stopped = true }

// DefaultStopCheckEvery is the polling stride SetStopCheck uses when the
// caller passes every <= 0. It trades cancellation latency (a few thousand
// events, microseconds of wall time) against predicate-call overhead on
// the hot dispatch loop.
const DefaultStopCheckEvery = 4096

// SetStopCheck installs an external cancellation predicate: Run and
// RunUntil poll stop every `every` executed events (and once on entry) and
// return early — exactly as if Stop had been called — when it reports
// true. The predicate must be cheap and may be called from this engine's
// run loop only; when several engines share one predicate (a parallel
// experiment sweep polling one job context), it must be safe to call
// concurrently with itself. every <= 0 selects DefaultStopCheckEvery; a
// nil stop clears the hook.
//
// This is the hook long-running services use to impose deadlines on
// otherwise-unbounded scenarios: the predicate typically closes over a
// context.Context's Err. A run aborted this way leaves the engine state
// (clock, queue) valid but the simulation incomplete; Interrupted reports
// whether that happened.
func (e *Engine) SetStopCheck(every int, stop func() bool) {
	if every <= 0 {
		every = DefaultStopCheckEvery
	}
	e.checkEvery = every
	e.checkIn = 0
	e.stopCheck = stop
}

// Interrupted reports whether the most recent Run or RunUntil returned
// early because of Stop or the SetStopCheck predicate rather than by
// exhausting its work.
func (e *Engine) Interrupted() bool { return e.stopped }

// interrupted reports whether Stop was called or the external stop check,
// polled on its stride, asked to stop. Called once per loop iteration,
// so it is small enough to inline: without a stop check it costs two
// loads, not a call.
func (e *Engine) interrupted() bool {
	return e.stopped || e.stopCheck != nil && e.pollStop()
}

// pollStop counts down the stop check's stride and, when it runs out,
// calls the check and folds its answer into e.stopped.
func (e *Engine) pollStop() bool {
	if e.checkIn > 0 {
		e.checkIn--
		return false
	}
	e.checkIn = e.checkEvery - 1
	e.stopped = e.stopCheck()
	return e.stopped
}

// RunUntil executes events in time order until the queue is empty or the
// next event is later than deadline. The clock is left at the time of the
// last executed event (or at deadline if it advanced past all events).
// It returns the number of events executed.
func (e *Engine) RunUntil(deadline Time) int {
	e.stopped = false
	e.checkIn = 0
	n := 0
	for len(e.queue) > 0 && !e.interrupted() {
		if e.queue[0].at > deadline {
			break
		}
		ev := e.popMin()
		if !ev.daemon {
			e.normal--
		}
		e.cur, e.born = Pos{ev.at, ev.seq}, ev.born
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.recycle(ev) // before the callback: a schedule inside it reuses the slot
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		n++
	}
	if !e.stopped && deadline >= e.cur.At {
		// Every key queued up to the deadline has run.
		e.cur = Pos{deadline, e.seq + 1}
		e.born = e.cur
	}
	return n
}

// Run executes events in time order until no non-daemon events remain or
// Stop is called. Daemon events occurring before the last ordinary event
// still execute; trailing daemon events stay queued.
// It returns the number of events executed.
func (e *Engine) Run() int {
	e.stopped = false
	e.checkIn = 0
	n := 0
	for e.normal > 0 && !e.interrupted() {
		ev := e.popMin()
		if !ev.daemon {
			e.normal--
		}
		e.cur, e.born = Pos{ev.at, ev.seq}, ev.born
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.recycle(ev)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		n++
	}
	return n
}
