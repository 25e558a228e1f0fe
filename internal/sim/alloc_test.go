package sim

import "testing"

// TestDispatchSteadyStateAllocs locks in the free-list contract: once the
// engine has warmed up, a self-rescheduling timer (the dominant pattern in
// every model) dispatches and reschedules without allocating — the slot
// freed on pop is reused by the schedule inside the callback. The cases
// are the shapes of BenchmarkEngineDispatchChain, ...StopCheck and
// ...NearFar: the chain alone, with the cancellation hook installed at
// the default stride, and as a 100 ns chain beside three far daemon
// timers.
func TestDispatchSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		period Time // the chain's step
		setup  func(e *Engine)
	}{
		{"chain", Nanosecond, func(*Engine) {}},
		{"stop check", Nanosecond, func(e *Engine) {
			e.SetStopCheck(0, func() bool { return false })
		}},
		{"near far", 100 * Nanosecond, func(e *Engine) {
			for _, period := range []Time{7800 * Nanosecond, 50 * Microsecond, 100 * Millisecond} {
				var tick func()
				tick = func() { e.AfterDaemon(period, tick) }
				e.AfterDaemon(period, tick)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			tc.setup(e)
			var step func()
			step = func() { e.After(tc.period, step) }
			e.After(tc.period, step)
			e.RunUntil(100 * tc.period) // warm up queue and free list

			deadline := e.Now()
			avg := testing.AllocsPerRun(1000, func() {
				deadline += tc.period
				e.RunUntil(deadline)
			})
			if avg != 0 {
				t.Fatalf("steady-state dispatch allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestDispatchWideSteadyStateAllocs is the same contract on the heap
// path: a lone chain lives in the front slot and never touches the heap,
// but 4,096 self-rescheduling timers with scattered periods (the shape of
// BenchmarkEngineDispatchWide) keep the heap deep, and dispatching them
// must not allocate either.
func TestDispatchWideSteadyStateAllocs(t *testing.T) {
	const timers = 4096
	e := NewEngine()
	rng := NewRNG(1)
	for i := 0; i < timers; i++ {
		period := Nanosecond + Time(rng.Int63n(int64(Microsecond)))
		var step func()
		step = func() { e.AfterDaemon(period, step) }
		e.AfterDaemon(period, step)
	}
	e.RunUntil(10 * Microsecond) // warm up queue and free list

	deadline := e.Now()
	ran := 0
	avg := testing.AllocsPerRun(100, func() {
		deadline += 100 * Nanosecond
		ran += e.RunUntil(deadline)
	})
	if avg != 0 {
		t.Fatalf("steady-state wide dispatch allocates %.2f allocs/op, want 0", avg)
	}
	if ran == 0 {
		t.Fatal("no timer ran")
	}
	if got := e.Pending(); got != timers {
		t.Fatalf("%d timers queued, want %d", got, timers)
	}
}

// TestFreeListReusesEvents checks the free list directly: a drained
// engine reuses its freed slots for new schedules instead of growing the
// slab. Its drain/refill cycle is BenchmarkEngineSchedule's pushes into
// warmed capacity, and must not allocate.
func TestFreeListReusesEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 64; i++ {
		e.After(Time(i), func() { ran++ })
	}
	e.Run()
	if ran != 64 {
		t.Fatalf("ran %d of 64 events", ran)
	}
	if got := len(e.free); got != 64 {
		t.Fatalf("free list holds %d slots after drain, want 64", got)
	}
	if got := len(e.slab); got != 64 {
		t.Fatalf("slab holds %d slots after drain, want 64", got)
	}
	fn := func() { ran++ }
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			e.After(Time(i), fn)
		}
		e.Run()
	})
	if avg != 0 {
		t.Fatalf("drain/refill cycle allocates %.1f/op; slots are not being reused", avg)
	}
	if got := len(e.slab); got != 64 {
		t.Fatalf("slab grew to %d slots over drain/refill cycles, want 64", got)
	}
}

// TestRecycledEventOrdering re-checks FIFO-at-equal-time stability through
// the free list: recycled slots must not leak stale sequence numbers.
func TestRecycledEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	// First wave fills the free list.
	for i := 0; i < 8; i++ {
		e.After(Nanosecond, func() {})
	}
	e.Run()
	// Second wave: same timestamp, order must follow scheduling order.
	for i := 0; i < 8; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}
