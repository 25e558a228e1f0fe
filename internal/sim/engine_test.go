package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ps"},
		{500, "500ps"},
		{Nanosecond, "1ns"},
		{18 * Nanosecond, "18ns"},
		{768 * Nanosecond, "768ns"},
		{6 * Microsecond, "6us"},
		{1580 * Microsecond, "1.58ms"},
		{Second, "1s"},
		{-Second, "-1s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3.0 {
		t.Errorf("Milliseconds = %v, want 3", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (750 * Nanosecond).Microseconds(); got != 0.75 {
		t.Errorf("Microseconds = %v, want 0.75", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	n := e.Run()
	if n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("events ran out of order: %v", order)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEngineStableSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(42, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO at %d: %v", i, order[:i+1])
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(20, func() { ran++ })
	e.At(30, func() { ran++ })
	if n := e.RunUntil(20); n != 2 || ran != 2 {
		t.Fatalf("RunUntil(20) executed %d events (ran=%d), want 2", n, ran)
	}
	if e.Now() != 20 {
		t.Errorf("Now = %v after RunUntil(20), want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	// RunUntil past all events advances the clock to the deadline.
	if n := e.RunUntil(100); n != 1 {
		t.Fatalf("second RunUntil executed %d, want 1", n)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.After(7, recurse)
		}
	}
	e.At(1, recurse)
	e.Run()
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if e.Now() != 1+4*7 {
		t.Errorf("Now = %v, want 29", e.Now())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++; e.Stop() })
	e.At(20, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Errorf("ran = %d after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds diverged")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// A fork taken at the same parent state yields the same child stream,
	// regardless of what the parent does afterwards.
	p1 := NewRNG(99)
	c1 := p1.Fork()
	p2 := NewRNG(99)
	c2 := p2.Fork()
	p2.Float64() // perturb parent 2 only
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("forked child streams diverged")
		}
	}
}

func TestRNGDistributions(t *testing.T) {
	g := NewRNG(1)
	const n = 20000
	sumExp, sumPar := 0.0, 0.0
	for i := 0; i < n; i++ {
		sumExp += g.Exp(5)
		sumPar += g.Pareto(1, 3)
	}
	if m := sumExp / n; m < 4.7 || m > 5.3 {
		t.Errorf("Exp(5) mean = %v, want ~5", m)
	}
	// Pareto(1,3) mean = alpha*xm/(alpha-1) = 1.5.
	if m := sumPar / n; m < 1.35 || m > 1.65 {
		t.Errorf("Pareto(1,3) mean = %v, want ~1.5", m)
	}
}

func TestWeightedPick(t *testing.T) {
	g := NewRNG(3)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[g.WeightedPick(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestTimeStringRoundTripsMagnitude(t *testing.T) {
	// Property: String never mislabels magnitude (e.g., ms value rendered
	// with "us" suffix). Checked by parsing the suffix back.
	f := func(raw int64) bool {
		tt := Time(raw % int64(2*Hour))
		if tt < 0 {
			tt = -tt
		}
		s := tt.String()
		switch {
		case tt >= Second:
			return s[len(s)-1] == 's' && s[len(s)-2] != 'm' && s[len(s)-2] != 'u' && s[len(s)-2] != 'n' && s[len(s)-2] != 'p'
		case tt >= Millisecond:
			return len(s) > 2 && s[len(s)-2:] == "ms"
		case tt >= Microsecond:
			return len(s) > 2 && s[len(s)-2:] == "us"
		case tt >= Nanosecond:
			return len(s) > 2 && s[len(s)-2:] == "ns"
		default:
			return len(s) > 2 && s[len(s)-2:] == "ps"
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDaemonEventsDoNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	daemonRan := 0
	var rearm func()
	rearm = func() {
		daemonRan++
		e.AfterDaemon(10, rearm) // perpetual chain, like DRAM refresh
	}
	e.AtDaemon(10, rearm)
	e.At(35, func() {})
	n := e.Run()
	// Run must execute the normal event and every daemon event before it,
	// then stop despite the pending daemon chain.
	if daemonRan != 3 { // t=10, 20, 30
		t.Errorf("daemon events ran %d times, want 3", daemonRan)
	}
	if n != 4 {
		t.Errorf("Run executed %d events, want 4", n)
	}
	if e.Pending() == 0 {
		t.Error("daemon chain should remain queued")
	}
	// RunUntil executes daemons regardless.
	e.RunUntil(65)
	if daemonRan != 6 { // 40, 50, 60
		t.Errorf("daemon events after RunUntil = %d, want 6", daemonRan)
	}
}

func TestRunWithOnlyDaemonsReturnsImmediately(t *testing.T) {
	e := NewEngine()
	ran := false
	e.AtDaemon(5, func() { ran = true })
	if n := e.Run(); n != 0 || ran {
		t.Errorf("Run executed daemon-only queue: n=%d ran=%v", n, ran)
	}
}
