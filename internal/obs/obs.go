// Package obs is the job-lifecycle observability layer: a low-overhead
// structured trace that the serving stack (internal/server, internal/
// cluster, internal/exp) threads through a job's whole life — submit,
// queue wait, execution, per-cell sweep work, dispatcher attempts,
// backoffs, hedges, and the final merge.
//
// Design constraints, in order:
//
//   - Nil is off. Every method on a nil *Trace (and on the zero
//     SpanHandle) is a no-op, so instrumentation points never branch on
//     "is tracing enabled" — they just call. A disabled trace costs zero
//     allocations and a couple of predictable branches.
//   - Recording is lock-free. Spans land in a fixed-capacity ring via an
//     atomic reservation counter; concurrent sweep cells and dispatcher
//     goroutines never contend on a mutex. When the ring fills, further
//     spans are counted as dropped rather than blocking or growing.
//   - Reading is safe at any time. Each slot flips an atomic ready flag
//     after its span is fully written, so View can snapshot a live trace
//     (the progress endpoint does) without tearing a half-written span.
//
// Timestamps are monotonic: every span records its offset from the
// trace's epoch using the runtime's monotonic clock, so spans order and
// measure correctly even across wall-clock adjustments.
package obs

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the span ring size NewTrace uses when the caller
// passes capacity <= 0. It comfortably holds the daemon's per-job span
// budget (queue wait + execute + one span per sweep cell) for every
// experiment in the registry.
const DefaultCapacity = 256

// Span is one recorded interval of a trace. Start is the offset from the
// trace epoch; Arg carries the span's small payload — a backend URL for
// dispatcher attempts, a sweep-cell index, an error code.
type Span struct {
	Name    string `json:"name"`
	Arg     string `json:"arg,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}

// slot pairs a span with its publication flag. The ready flag is stored
// (release) only after every span field is written, and loaded (acquire)
// before any is read, so readers never observe a torn span.
type slot struct {
	ready atomic.Bool
	span  Span
}

// Trace is a fixed-capacity, lock-free recorder of one job's spans. All
// methods are safe for concurrent use; a nil *Trace is a valid disabled
// recorder.
type Trace struct {
	epoch time.Time
	slots []slot
	next  atomic.Int64
}

// NewTrace returns a trace whose epoch is now. capacity <= 0 selects
// DefaultCapacity.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Trace{epoch: time.Now(), slots: make([]slot, capacity)}
}

// Epoch reports the trace's time origin (zero for a nil trace).
func (t *Trace) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// since is the monotonic offset of now from the epoch.
func (t *Trace) since() time.Duration { return time.Since(t.epoch) }

// record reserves a slot and publishes one finished span. Overflow is
// counted (View reports it as Dropped) instead of blocking.
func (t *Trace) record(name, arg string, start, dur time.Duration, errMsg string) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.slots)) {
		return // dropped; View derives the count from next vs capacity
	}
	s := &t.slots[i]
	s.span = Span{Name: name, Arg: arg, StartNs: start.Nanoseconds(), DurNs: dur.Nanoseconds(), Err: errMsg}
	s.ready.Store(true)
}

// SpanHandle is an open span returned by Start. It is a value — starting
// and ending a span allocates nothing. The zero SpanHandle (and any
// handle from a nil trace) is a no-op.
type SpanHandle struct {
	t     *Trace
	name  string
	arg   string
	start time.Duration
}

// Start opens a span named name.
func (t *Trace) Start(name string) SpanHandle { return t.StartArg(name, "") }

// StartArg opens a span with an argument payload.
func (t *Trace) StartArg(name, arg string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, arg: arg, start: t.since()}
}

// End records the span with no error.
func (h SpanHandle) End() { h.EndErr(nil) }

// EndErr records the span, attaching err's message when non-nil.
func (h SpanHandle) EndErr(err error) {
	if h.t == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	h.t.record(h.name, h.arg, h.start, h.t.since()-h.start, msg)
}

// Add records a completed span from explicit wall-clock endpoints — for
// intervals measured before the recording site runs, like queue wait
// (submit time → execution start).
func (t *Trace) Add(name, arg string, start time.Time, dur time.Duration, err error) {
	if t == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	t.record(name, arg, start.Sub(t.epoch), dur, msg)
}

// Mark records an instantaneous event (a zero-duration span).
func (t *Trace) Mark(name, arg string) {
	if t == nil {
		return
	}
	t.record(name, arg, t.since(), 0, "")
}

// TraceView is the JSON export of a trace: spans sorted by start time,
// plus how many were dropped on ring overflow.
type TraceView struct {
	Epoch   time.Time `json:"epoch"`
	Spans   []Span    `json:"spans"`
	Dropped int64     `json:"dropped,omitempty"`
}

// View snapshots the trace. It is safe to call while spans are still
// being recorded: only fully-published spans appear. A nil trace views
// as empty.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	v := TraceView{Epoch: t.epoch, Spans: make([]Span, 0, len(t.slots))}
	for i := range t.slots {
		if t.slots[i].ready.Load() {
			v.Spans = append(v.Spans, t.slots[i].span)
		}
	}
	// Reservation order is not start order under concurrency; present
	// spans on the timeline. The sort is stable so equal starts keep
	// publication order.
	sort.SliceStable(v.Spans, func(i, j int) bool { return v.Spans[i].StartNs < v.Spans[j].StartNs })
	if over := t.next.Load() - int64(len(t.slots)); over > 0 {
		v.Dropped = over
	}
	return v
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// ContextWith returns ctx carrying t, so layers that only see a context
// (the cluster client's retry loop) can record spans. A nil t returns
// ctx unchanged.
func ContextWith(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil — which, per the
// package contract, is a valid disabled trace.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
