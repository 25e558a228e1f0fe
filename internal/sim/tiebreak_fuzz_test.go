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
// (time, schedule index). Each RunUntil must run exactly the events due
// by its deadline, and the final Run every ordinary event and no
// trailing daemon, wherever in the queue they wait.
func tieScript(t *testing.T, script []byte) {
	t.Helper()
	e := NewEngine()
	type rec struct {
		at  Time
		idx int
	}
	var log []rec
	idx := 0
	normal, ranNormal := 0, 0 // ordinary events scheduled and run
	lastDaemon := false       // whether the latest dispatch was a daemon
	var schedule func(depth int, b byte)
	schedule = func(depth int, b byte) {
		// Offsets 0..3 from the current time: mostly ties.
		at := e.Now() + Time(b&3)*Nanosecond
		i := idx
		idx++
		daemon := b&4 != 0
		fn := func() {
			log = append(log, rec{at: e.Now(), idx: i})
			lastDaemon = daemon
			if !daemon {
				ranNormal++
			}
			if depth < 3 && b&8 != 0 {
				// Nested schedule from inside a callback: reuses the slot
				// recycled just before this callback ran.
				schedule(depth+1, b>>2)
			}
		}
		if daemon {
			e.AtDaemon(at, fn)
		} else {
			normal++
			e.At(at, fn)
		}
	}
	for _, b := range script {
		schedule(0, b)
		if b&16 != 0 {
			// Interleave partial draining so later schedules reuse freed
			// events while earlier ties are still queued.
			d := e.Now() + Time(b&3)*Nanosecond
			e.RunUntil(d)
			if e.Now() != d || e.Pending() > 0 && e.next().At <= d {
				t.Fatalf("RunUntil(%v) left the clock at %v with %d events queued",
					d, e.Now(), e.Pending())
			}
		}
	}
	if e.Run() > 0 && lastDaemon {
		t.Fatal("Run dispatched a daemon event after the last ordinary one")
	}
	if ranNormal != normal {
		t.Fatalf("Run returned with %d of %d ordinary events run", ranNormal, normal)
	}
	if got, want := e.Pending(), idx-len(log); got != want {
		t.Fatalf("Pending = %d after Run, want %d", got, want)
	}
	for k := 1; k < len(log); k++ {
		a, b := log[k-1], log[k]
		if a.at > b.at || (a.at == b.at && a.idx > b.idx) {
			t.Fatalf("dispatch %d out of order: (t=%v, sched=%d) before (t=%v, sched=%d)",
				k, a.at, a.idx, b.at, b.idx)
		}
	}
}

// reserveScript replays a tie script on two engines. Where a byte has bit
// 5 set, the script also takes a key at a small offset from now: engine
// a calls Reserve, and its twin b queues a daemon "shadow" event there
// instead. When a shadow runs it queues a "child" a few ns later, the way
// a power-down timer queued the self-refresh timer. Both engines run the
// same real events in the same order, and at every real dispatch and
// after every Run or RunUntil, a's answers must match b's dispatch log:
//   - Passed(key) iff the shadow has run;
//   - BornAfter(key), during a dispatch, iff the shadow ran before the
//     running event was scheduled;
//   - the child's step has passed (due before now, or due now and
//     BornAfter(key)) iff the child has run.
func reserveScript(t *testing.T, script []byte) {
	t.Helper()
	type resv struct {
		key     Pos
		childAt Time
		ranAt   int // b: dispatch ordinal of the shadow (0: not run)
		child   bool
	}
	run := func(twin bool) []bool {
		e := NewEngine()
		var rs []*resv
		var answers []bool
		dispatched := 0
		record := func(bornAt int, inDispatch bool) {
			for _, r := range rs {
				if twin {
					answers = append(answers, r.ranAt > 0, r.child)
					if inDispatch {
						answers = append(answers, r.ranAt > 0 && r.ranAt <= bornAt)
					}
					continue
				}
				answers = append(answers, e.Passed(r.key),
					r.childAt < e.Now() || r.childAt == e.Now() && e.BornAfter(r.key))
				if inDispatch {
					answers = append(answers, e.BornAfter(r.key))
				}
			}
		}
		reserve := func(b byte) {
			at := e.Now() + Time(b>>6)*Nanosecond
			r := &resv{childAt: at + Time((b>>1)&3)*Nanosecond}
			rs = append(rs, r)
			if !twin {
				r.key = e.Reserve(at)
				return
			}
			e.AtDaemon(at, func() {
				dispatched++
				r.ranAt = dispatched
				e.AtDaemon(r.childAt, func() {
					dispatched++
					r.child = true
				})
			})
		}
		var schedule func(depth int, b byte)
		schedule = func(depth int, b byte) {
			at := e.Now() + Time(b&3)*Nanosecond
			bornAt := dispatched
			fn := func() {
				dispatched++
				record(bornAt, true)
				if depth < 3 && b&8 != 0 {
					schedule(depth+1, b>>2)
				}
				if b&32 != 0 {
					reserve(b >> 1)
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
			if b&32 != 0 {
				reserve(b)
			}
			if b&16 != 0 {
				e.RunUntil(e.Now() + Time(b&3)*Nanosecond)
				record(0, false)
			}
		}
		e.Run()
		record(0, false)
		return answers
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("engines recorded %d and %d answers", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("answer %d: reserved key says %t, twin's dispatch log says %t", i, a[i], b[i])
		}
	}
}

func FuzzEngineTieBreak(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{8, 12, 8, 12, 24, 28, 31, 0, 15, 16, 17, 255})
	f.Add([]byte{255, 254, 253, 31, 30, 29, 16, 20, 24, 28})
	// Run's last ordinary event queues a daemon into the empty front slot,
	// which Run must leave queued.
	f.Add([]byte{104})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			t.Skip("bound the event count")
		}
		tieScript(t, script)
		// reserveScript records every reservation's answers at every
		// dispatch, quadratic in the script's length.
		if len(script) <= 1024 {
			reserveScript(t, script)
		}
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
		{104},
	}
	for _, s := range seeds {
		tieScript(t, s)
		reserveScript(t, s)
	}
}
