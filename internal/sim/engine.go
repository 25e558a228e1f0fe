package sim

import "fmt"

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

// key is a queued event's place in the queue: its dispatch key and the
// slab slot holding its payload. It holds no pointer, so moving one
// through the heap costs no GC write barrier.
type key struct {
	Pos
	slot int32
}

// event is a queued event's payload. It carries either a plain callback
// (fn) or an argument-carrying callback (afn + arg); AtFunc schedules the
// latter so hot paths can reuse one long-lived handler instead of
// allocating a closure per event.
type event struct {
	fn     func()
	afn    func(any)
	arg    any
	born   Pos // the cursor when the event was scheduled
	daemon bool
}

// Engine is a deterministic discrete-event simulation engine. Events run
// in time order, and events scheduled for the same time run in the order
// they were scheduled. Daemon events (periodic refresh) do not keep Run
// alive: Run returns once only daemon events remain.
// The zero value is not usable; call NewEngine.
//
// The queue is a front slot plus a hand-rolled binary min-heap of
// pointer-free keys, not container/heap: its interface indirection and
// any-boxing cost real time on a path that runs tens of millions of
// events per sweep. The front slot takes an event that sorts before
// everything queued when it is scheduled. In the timing models most
// events do (a request's next step is due before any far timer), and
// they never touch the heap. Payloads live in a slab whose slots recycle
// through a free list once dispatched, so steady-state scheduling (the
// self-rescheduling timer pattern every model here uses) allocates
// nothing per event.
type Engine struct {
	// cur is the key of the event now dispatching; between dispatches,
	// the last key dispatched, or, once RunUntil has run every event up
	// to its deadline, (deadline, next seq): past every key queued by
	// then and before every key taken later. born is the running event's
	// birth (the cursor when it was scheduled), or cur itself after such
	// a RunUntil. cur.At is the clock.
	cur      Pos
	born     Pos
	seq      uint64
	front    key // when hasFront, queued and before every key in heap
	hasFront bool
	heap     []key   // the other queued keys
	slab     []event // payloads, indexed by key.slot
	free     []int32 // dispatched slots awaiting reuse
	normal   int     // count of queued non-daemon events
	stopped  bool

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
// At (same seq counter, same queue), but because fn is typically a
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

// push queues an event for time at that calls fn, or afn(arg), in a
// recycled slot when one is free. It is one call on the schedule path,
// which every event takes.
func (e *Engine) push(at Time, fn func(), afn func(any), arg any, daemon bool) {
	if at < e.cur.At {
		e.pastPanic(at)
	}
	e.seq++
	if !daemon {
		e.normal++
	}
	var s int32
	if k := len(e.free) - 1; k >= 0 {
		s = e.free[k]
		e.free = e.free[:k]
	} else {
		s = int32(len(e.slab))
		e.slab = append(e.slab, event{})
	}
	// Field by field: a composite literal is built on the stack and
	// copied in with 16-byte loads that straddle its 8-byte stores, a
	// store-forwarding stall that took 15% of serial quick tail's CPU.
	ev := &e.slab[s]
	ev.fn, ev.afn, ev.arg, ev.born, ev.daemon = fn, afn, arg, e.cur, daemon
	k := key{Pos{at, e.seq}, s}
	// A new seq is larger than every queued one, so only a strictly
	// earlier time sorts before the queue's minimum.
	if e.hasFront {
		if at < e.front.At {
			e.front, k = k, e.front
		}
	} else if len(e.heap) == 0 || at < e.heap[0].At {
		e.front, e.hasFront = k, true
		return
	}
	e.heapPush(k)
}

// pastPanic rejects a schedule before now (see At).
func (e *Engine) pastPanic(at Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.cur.At))
}

// heapPush adds k to the heap, sifting a hole up from the end.
func (e *Engine) heapPush(k key) {
	e.heap = append(e.heap, k)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !k.Before(h[parent].Pos) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = k
}

// heapPop removes and returns the heap's minimum, sifting a hole down
// from the root for its last entry.
func (e *Engine) heapPop() key {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].Before(h[l].Pos) {
			m = r
		}
		if !h[m].Before(last.Pos) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// next returns the earliest queued key. The queue must not be empty.
func (e *Engine) next() key {
	if e.hasFront {
		return e.front
	}
	return e.heap[0]
}

// dispatch removes the earliest queued event, makes it current and runs
// it. Its slot is cleared and freed before the callback runs, so a
// schedule inside the callback reuses it, and an idle slot retains no
// closure or argument (nor whatever they point at).
func (e *Engine) dispatch() {
	var k key
	if e.hasFront {
		k, e.hasFront = e.front, false
	} else {
		k = e.heapPop()
	}
	ev := &e.slab[k.slot]
	if !ev.daemon {
		e.normal--
	}
	e.cur, e.born = k.Pos, ev.born
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	e.free = append(e.free, k.slot)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	if e.hasFront {
		return len(e.heap) + 1
	}
	return len(e.heap)
}

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
	for e.Pending() > 0 && !e.interrupted() {
		if e.next().At > deadline {
			break
		}
		e.dispatch()
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
		e.dispatch()
		n++
	}
	return n
}
