package sim

import "testing"

// BenchmarkEngineSchedule measures heap insertion: N events pushed at
// pseudo-random times, none executed.
func BenchmarkEngineSchedule(b *testing.B) {
	fn := func() {}
	rng := NewRNG(1)
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(Time(rng.Int63n(int64(Hour))), fn)
	}
}

// BenchmarkEngineDispatchChain measures the dispatch fast path: a single
// self-rescheduling event, which lives in the front slot and never
// touches the heap, so the cost is almost pure pop/push/callback.
func BenchmarkEngineDispatchChain(b *testing.B) {
	e := NewEngine()
	var step func()
	step = func() { e.After(Nanosecond, step) }
	e.After(Nanosecond, step)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(b.N) * Nanosecond)
}

// BenchmarkEngineDispatchWide measures dispatch with a deep heap: 4096
// concurrent self-rescheduling timers with scattered periods.
func BenchmarkEngineDispatchWide(b *testing.B) {
	const timers = 4096
	e := NewEngine()
	rng := NewRNG(1)
	for i := 0; i < timers; i++ {
		period := Nanosecond + Time(rng.Int63n(int64(Microsecond)))
		var step func()
		step = func() { e.AfterDaemon(period, step) }
		e.AfterDaemon(period, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	ran := 0
	for deadline := Microsecond; ran < b.N; deadline += Microsecond {
		ran += e.RunUntil(deadline)
	}
}

// BenchmarkEngineDispatchNearFar has the tail experiment's shape: one
// chain of 100 ns steps (a request's next command) beside a few far
// periodic daemon timers (7.8 µs refresh, 50 µs and 100 ms service
// ticks), so nearly every schedule sorts before everything queued.
func BenchmarkEngineDispatchNearFar(b *testing.B) {
	e := NewEngine()
	var step func()
	step = func() { e.After(100*Nanosecond, step) }
	e.After(100*Nanosecond, step)
	for _, period := range []Time{7800 * Nanosecond, 50 * Microsecond, 100 * Millisecond} {
		var tick func()
		tick = func() { e.AfterDaemon(period, tick) }
		e.AfterDaemon(period, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(b.N) * 100 * Nanosecond)
}

// BenchmarkEngineDispatchStopCheck is BenchmarkEngineDispatchChain with
// the cancellation hook installed at the default stride — the overhead a
// daemon-run job pays versus a CLI run.
func BenchmarkEngineDispatchStopCheck(b *testing.B) {
	e := NewEngine()
	e.SetStopCheck(0, func() bool { return false })
	var step func()
	step = func() { e.After(Nanosecond, step) }
	e.After(Nanosecond, step)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(b.N) * Nanosecond)
}
