package mc

import (
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/sim"
)

// drainLoop is a closed-loop Completer that keeps a fixed number of
// sequential-line reads in flight until a budget is spent — the
// steady-state pattern the workload layer drives the controller with.
type drainLoop struct {
	c        *Controller
	next     uint64
	left     int64
	inFlight int
	width    int
	done     int64
}

func (l *drainLoop) Complete(_ uint64, _ sim.Time) {
	l.inFlight--
	l.done++
	l.pump()
}

func (l *drainLoop) pump() {
	for l.inFlight < l.width && l.left > 0 {
		if err := l.c.SubmitCall(l.next, false, l, 0); err != nil {
			return // queue full: the next completion re-pumps
		}
		l.next = (l.next + 64) % (1 << 30)
		l.left--
		l.inFlight++
	}
}

// TestSubmitDrainSteadyStateAllocs mirrors internal/sim/alloc_test.go at
// the controller layer: once the request pool and event free list are
// warm, a SubmitCall+drain cycle allocates nothing — no request objects,
// no completion closures, no kick or refresh closures, no latency-sample
// growth.
func TestSubmitDrainSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:         dram.Org64GB(),
		Timing:      dram.DDR4_2133(),
		Interleaved: true,
		LowPower:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop := &drainLoop{c: c, width: 32}

	// Warm up: fill the request pool, event free list, queue capacity,
	// and latency sample buffer.
	loop.left = 100000
	loop.pump()
	eng.Run()
	if loop.done != 100000 {
		t.Fatalf("warmup completed %d of 100000", loop.done)
	}

	avg := testing.AllocsPerRun(50, func() {
		loop.left = 1000
		loop.pump()
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state submit+drain allocates %.2f allocs per 1000-request batch, want 0", avg)
	}
}

// deepLoop runs closed-loop streams that each keep width reads in flight,
// walking runs of 16 consecutive lines from random bases (xorshift, so
// drawing allocates nothing). Enough streams keep several queued requests
// per bank and ~16 per channel, the depth the energy matrix's eight
// copies reach. Every completion re-pumps every stream, so a stream
// turned away by a full queue resumes on the next completion. It sums
// QueueLen at each completion to report the depth.
type deepLoop struct {
	c       *Controller
	streams []deepStream
	width   int
	rng     uint64
	lines   uint64
	left    int64
	done    int64
	queued  int64
}

type deepStream struct {
	next     uint64
	run      int
	inFlight int
}

func (l *deepLoop) Complete(id uint64, _ sim.Time) {
	l.streams[id].inFlight--
	l.done++
	l.queued += int64(l.c.QueueLen())
	l.pump()
}

func (l *deepLoop) pump() {
	for i := range l.streams {
		s := &l.streams[i]
		for s.inFlight < l.width && l.left > 0 {
			if s.run == 0 {
				l.rng ^= l.rng << 13
				l.rng ^= l.rng >> 7
				l.rng ^= l.rng << 17
				s.next, s.run = l.rng%l.lines*64, 16
			}
			if err := l.c.SubmitCall(s.next, false, l, uint64(i)); err != nil {
				break // queue full: the next completion re-pumps
			}
			s.next = (s.next + 64) % (l.lines * 64)
			s.run--
			l.left--
			s.inFlight++
		}
	}
}

// deepStreams is the stream count that keeps ~16 requests queued per
// channel on the interleaved 64 GB controller.
const deepStreams = 20

// newDeepController builds BenchmarkMCSubmit's controller and warms a
// deepLoop on it.
func newDeepController(tb testing.TB) (*sim.Engine, *deepLoop) {
	tb.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:         dram.Org64GB(),
		Timing:      dram.DDR4_2133(),
		Interleaved: true,
		LowPower:    true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	loop := &deepLoop{
		c:       c,
		streams: make([]deepStream, deepStreams),
		width:   8,
		rng:     88172645463325252,
		lines:   uint64(c.cfg.Org.TotalBytes()) / 64,
		left:    100000,
	}
	loop.pump()
	eng.Run()
	if loop.done != 100000 {
		tb.Fatalf("warmup completed %d of 100000", loop.done)
	}
	return eng, loop
}

// TestSubmitDeepQueueSteadyStateAllocs is TestSubmitDrainSteadyStateAllocs
// at depth: with ~16 requests queued per channel, spread over per-bank
// queues, a warm SubmitCall+drain cycle still allocates nothing.
func TestSubmitDeepQueueSteadyStateAllocs(t *testing.T) {
	eng, loop := newDeepController(t)
	channels := int64(len(loop.c.channels))
	if depth := loop.queued / loop.done / channels; depth < 12 {
		t.Fatalf("warmup averaged %d queued requests per channel, want a deep queue (>= 12)", depth)
	}
	avg := testing.AllocsPerRun(50, func() {
		loop.left = 1000
		loop.pump()
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("deep-queue submit+drain allocates %.2f allocs per 1000-request batch, want 0", avg)
	}
}

// idCompleter records per-id completion counts and checks that no id
// completes while its request was already recycled into a new identity.
type idCompleter struct {
	t     *testing.T
	seen  map[uint64]int
	total int
}

func (ic *idCompleter) Complete(id uint64, lat sim.Time) {
	ic.seen[id]++
	ic.total++
	if lat <= 0 {
		ic.t.Errorf("id %d completed with non-positive latency %v", id, lat)
	}
}

// TestPooledRequestsNotReusedWhilePending drives overlapping traffic
// with unique callback ids and verifies the pool contract: every
// submitted id completes exactly once with its own id — a request
// recycled while its completion event was still queued would surface as
// a duplicated or missing id. Run under -race in check.sh, this also
// guards the single-threaded ownership of the pool.
func TestPooledRequestsNotReusedWhilePending(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:         dram.Org64GB(),
		Timing:      dram.DDR4_2133(),
		Interleaved: true,
		LowPower:    true,
		MaxQueue:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ic := &idCompleter{t: t, seen: make(map[uint64]int)}
	nextID := uint64(1)
	submitted := 0
	// Waves of bursts so requests overlap heavily and the pool churns:
	// each wave submits while the previous wave's completions are queued.
	var wave func()
	wave = func() {
		if nextID > 5000 {
			return
		}
		for i := 0; i < 64 && nextID <= 5000; i++ {
			pa := (nextID * 8192) % (1 << 30)
			if err := c.SubmitCall(pa, nextID%3 == 0, ic, nextID); err != nil {
				break // queue full; next wave retries with fresh ids
			}
			nextID++
			submitted++
		}
		eng.After(100*sim.Nanosecond, wave)
	}
	wave()
	eng.Run()

	writes := 0
	for id, n := range ic.seen {
		if n != 1 {
			t.Fatalf("id %d completed %d times: pooled request reused while completion pending", id, n)
		}
		if id%3 == 0 {
			writes++
		}
	}
	if ic.total != submitted {
		t.Fatalf("completed %d of %d submitted requests", ic.total, submitted)
	}
	// Drained controller: every pooled request must be at rest with no
	// retained callback, rank or queue-link reference.
	for i, r := range c.freeReqs {
		if r == nil {
			t.Fatalf("free list slot %d is nil", i)
		}
		if r.cb != nil || r.rk != nil || r.next != nil || r.id != 0 {
			t.Fatalf("free list slot %d retains state: cb set=%t rk set=%t next set=%t id=%d",
				i, r.cb != nil, r.rk != nil, r.next != nil, r.id)
		}
		for j := i + 1; j < len(c.freeReqs); j++ {
			if c.freeReqs[j] == r {
				t.Fatalf("request %p pooled twice (slots %d and %d)", r, i, j)
			}
		}
	}
}

// TestQueueRemovalReleasesTailSlot pins the dequeue cleanup: after the
// queues drain, no bank queue holds a request and no slot of an active
// list's backing array holds a bank, so issued requests are not retained
// through queue links or list capacity. Two rows in each of eight banks
// of every channel make banks leave the active list from the middle as
// well as the end.
func TestQueueRemovalReleasesTailSlot(t *testing.T) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:         dram.Org64GB(),
		Timing:      dram.DDR4_2133(),
		Interleaved: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleaved Org64GB: bits 6-7 pick the channel, 10-13 the bank
	// group and bank, and bit 26 is a row bit.
	for ch := uint64(0); ch < 4; ch++ {
		for bank := uint64(0); bank < 8; bank++ {
			for _, row := range []uint64{0, 1 << 26} {
				if err := c.SubmitCall(row|bank<<10|ch<<6, false, nil, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for ci, chn := range c.channels {
		if len(chn.active) != 8 || chn.queued != 16 {
			t.Fatalf("channel %d: %d active banks and %d queued, want 8 and 16", ci, len(chn.active), chn.queued)
		}
	}
	eng.Run()
	if n := c.QueueLen(); n != 0 {
		t.Fatalf("queue not drained: %d left", n)
	}
	for ci, chn := range c.channels {
		if len(chn.active) != 0 {
			t.Fatalf("channel %d: %d banks still active", ci, len(chn.active))
		}
		for i, b := range chn.active[:cap(chn.active)] {
			if b != nil {
				t.Fatalf("channel %d: drained active list retains a bank in backing-array slot %d", ci, i)
			}
		}
		for ri, rk := range chn.ranks {
			for bi := range rk.banks {
				if b := &rk.banks[bi]; b.head != nil || b.tail != nil {
					t.Fatalf("channel %d rank %d bank %d: drained queue retains a request", ci, ri, bi)
				}
			}
		}
	}
}

// BenchmarkMCSubmit measures the closed-loop submit+drain hot path the
// workload layer exercises: allocs/op is the gated number (0 in steady
// state); construction and warmup sit outside the timer.
func BenchmarkMCSubmit(b *testing.B) {
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:         dram.Org64GB(),
		Timing:      dram.DDR4_2133(),
		Interleaved: true,
		LowPower:    true,
	})
	if err != nil {
		b.Fatal(err)
	}
	loop := &drainLoop{c: c, width: 32}
	loop.left = 100000 // warm pool, free list and buffers
	loop.pump()
	eng.Run()

	b.ReportAllocs()
	b.ResetTimer()
	loop.left = int64(b.N)
	loop.pump()
	eng.Run()
}

// BenchmarkMCSubmitDeep is BenchmarkMCSubmit with deepStreams closed-loop
// streams, so every pick chooses among ~16 queued requests per channel.
func BenchmarkMCSubmitDeep(b *testing.B) {
	eng, loop := newDeepController(b)
	b.ReportAllocs()
	b.ResetTimer()
	loop.left = int64(b.N)
	loop.pump()
	eng.Run()
}

// idleLoop issues one read at a time and submits the next a fixed gap
// after each completion, from a handler bound once (AtFunc), so the loop
// itself allocates nothing. With the gap past SelfRefreshAfter, every
// request finds its rank in self-refresh: each submit settles an idle
// descent, applies the refresh rounds the rank skipped and pays a tXS
// wake-up. Successive requests step through the ranks.
type idleLoop struct {
	c        *Controller
	eng      *sim.Engine
	gap      sim.Time
	stride   uint64
	next     uint64
	left     int64
	done     int64
	submitFn func(any)
}

func newIdleLoop(tb testing.TB) *idleLoop {
	tb.Helper()
	eng := sim.NewEngine()
	c, err := New(eng, Config{
		Org:      dram.Org64GB(),
		Timing:   dram.DDR4_2133(),
		LowPower: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	total := uint64(c.cfg.Org.TotalBytes())
	l := &idleLoop{
		c:      c,
		eng:    eng,
		gap:    c.cfg.SelfRefreshAfter + 6*sim.Microsecond,
		stride: total/uint64(c.cfg.Org.TotalRanks()) + 64,
	}
	l.submitFn = func(v any) { v.(*idleLoop).submit() }
	return l
}

func (l *idleLoop) submit() {
	if err := l.c.SubmitCall(l.next, false, l, 0); err != nil {
		panic(err)
	}
	l.next = (l.next + l.stride) % uint64(l.c.cfg.Org.TotalBytes())
	l.left--
}

func (l *idleLoop) Complete(_ uint64, _ sim.Time) {
	l.done++
	if l.left > 0 {
		l.eng.AtFunc(l.eng.Now()+l.gap, l.submitFn, l)
	}
}

// run issues n requests and runs them to completion.
func (l *idleLoop) run(n int64) {
	l.left = n
	l.eng.AtFunc(l.eng.Now()+l.gap, l.submitFn, l)
	l.eng.Run()
}

// TestSubmitIdleSteadyStateAllocs is the alloc gate for the idle path,
// which the closed-loop tests above never reach (they keep every rank
// busy): once warm, a request that wakes a rank from self-refresh, with
// the descent settled and the skipped rounds applied at its submit,
// allocates nothing.
func TestSubmitIdleSteadyStateAllocs(t *testing.T) {
	l := newIdleLoop(t)
	l.run(100)
	avg := testing.AllocsPerRun(50, func() { l.run(20) })
	if avg != 0 {
		t.Fatalf("idle-path submit allocates %.2f allocs per 20-request batch, want 0", avg)
	}
	if st := l.c.Stats(); st.WakeUps != l.done {
		t.Fatalf("%d of %d requests woke a rank, want all", st.WakeUps, l.done)
	}
}

// BenchmarkMCSubmitIdle measures one request on the idle path: a submit
// to a rank in self-refresh, its wake-up and completion, plus the refresh
// rounds that run during the gap before the next request.
func BenchmarkMCSubmitIdle(b *testing.B) {
	l := newIdleLoop(b)
	l.run(100)
	b.ReportAllocs()
	b.ResetTimer()
	l.run(int64(b.N))
}
