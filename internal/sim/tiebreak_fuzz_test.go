package sim

import (
	"testing"
)

// Every model's determinism rests on one invariant of the engine: events
// at equal Time always dispatch in schedule (seq) order, through any
// amount of free-list churn. These tests pin that invariant.

// tieScript drives an engine from a byte script: each byte schedules one
// event whose time is a small offset from a moving base (forcing heavy
// equal-time collisions), alternating daemon/normal and nesting schedules
// inside callbacks to churn the free list. Every scheduled event records
// its shadow schedule index; the dispatch log must come out sorted by
// (time, schedule index).
func tieScript(t *testing.T, script []byte) {
	t.Helper()
	e := NewEngine()
	type rec struct {
		at  Time
		idx int
	}
	var log []rec
	idx := 0
	var schedule func(depth int, b byte)
	schedule = func(depth int, b byte) {
		// Offsets 0..3 from the current time: mostly ties.
		at := e.Now() + Time(b&3)*Nanosecond
		i := idx
		idx++
		fn := func() {
			log = append(log, rec{at: e.Now(), idx: i})
			if depth < 3 && b&8 != 0 {
				// Nested schedule from inside a callback: reuses the slot
				// recycled just before this callback ran.
				schedule(depth+1, b>>2)
			}
		}
		if b&4 != 0 {
			e.AtDaemon(at, fn)
		} else {
			e.At(at, fn)
		}
	}
	for _, b := range script {
		schedule(0, b)
		if b&16 != 0 {
			// Interleave partial draining so later schedules reuse freed
			// events while earlier ties are still queued.
			e.RunUntil(e.Now() + Time(b&3)*Nanosecond)
		}
	}
	e.Run()
	for k := 1; k < len(log); k++ {
		a, b := log[k-1], log[k]
		if a.at > b.at || (a.at == b.at && a.idx > b.idx) {
			t.Fatalf("dispatch %d out of order: (t=%v, sched=%d) before (t=%v, sched=%d)",
				k, a.at, a.idx, b.at, b.idx)
		}
	}
}

func FuzzEngineTieBreak(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{8, 12, 8, 12, 24, 28, 31, 0, 15, 16, 17, 255})
	f.Add([]byte{255, 254, 253, 31, 30, 29, 16, 20, 24, 28})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("bound the event count")
		}
		tieScript(t, script)
	})
}

// TestTieBreakSeeds runs the fuzz corpus seeds as a plain test so the
// invariant is exercised by `go test` without -fuzz.
func TestTieBreakSeeds(t *testing.T) {
	seeds := [][]byte{
		{0},
		{0, 0, 0, 0, 0, 0, 0, 0},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		{8, 12, 8, 12, 24, 28, 31, 0, 15, 16, 17, 255},
		{255, 254, 253, 31, 30, 29, 16, 20, 24, 28},
	}
	for _, s := range seeds {
		tieScript(t, s)
	}
}
