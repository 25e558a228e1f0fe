package sim

import "testing"

// TestAtFuncOrdering interleaves closure events, arg-carrying events and
// daemon events at the same timestamp: all share one sequence counter,
// so they must run in scheduling order regardless of which API scheduled
// them.
func TestAtFuncOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	appendIdx := func(v any) { order = append(order, v.(int)) }
	e.At(Nanosecond, func() { order = append(order, 0) })
	e.AtFunc(Nanosecond, appendIdx, 1)
	e.At(Nanosecond, func() { order = append(order, 2) })
	e.AtDaemon(Nanosecond, func() { order = append(order, 3) })
	e.AtFunc(Nanosecond, appendIdx, 4)
	e.Run()
	if len(order) != 5 {
		t.Fatalf("ran %d of 5 events: %v", len(order), order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed At/AtFunc/AtDaemon events ran out of order: %v", order)
		}
	}
}

// TestAtFuncRecycleClearsArg checks that a dispatched arg-carrying event
// drops both its handler and its argument when its slot is freed, so
// pooled args aren't retained by idle slots.
func TestAtFuncRecycleClearsArg(t *testing.T) {
	e := NewEngine()
	arg := new(int)
	e.AtFunc(Nanosecond, func(any) {}, arg)
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d slots, want 1", len(e.free))
	}
	ev := e.slab[e.free[0]]
	if ev.afn != nil || ev.arg != nil || ev.fn != nil {
		t.Fatalf("freed slot retains callback state: fn set=%t afn set=%t arg=%v",
			ev.fn != nil, ev.afn != nil, ev.arg)
	}
}

// TestAtFuncSteadyStateAllocs is the point of the API: a self-
// rescheduling handler bound once, passed a pooled pointer argument,
// dispatches and reschedules with zero allocations — no closure is
// created per event and the pointer is boxed for free.
func TestAtFuncSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	ticks := new(int)
	var step func(any)
	step = func(v any) {
		*v.(*int)++
		e.AtFunc(e.Now()+Nanosecond, step, v)
	}
	e.AtFunc(Nanosecond, step, ticks)
	e.RunUntil(100 * Nanosecond) // warm up queue and free list

	deadline := e.Now()
	avg := testing.AllocsPerRun(1000, func() {
		deadline += Nanosecond
		e.RunUntil(deadline)
	})
	if avg != 0 {
		t.Fatalf("steady-state AtFunc dispatch allocates %.2f allocs/op, want 0", avg)
	}
	if *ticks == 0 {
		t.Fatal("handler never ran")
	}
}

// TestAtFuncPastPanics keeps the past-scheduling guard on the arg path.
func TestAtFuncPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtFunc in the past did not panic")
		}
	}()
	e.AtFunc(Nanosecond, func(any) {}, nil)
}
