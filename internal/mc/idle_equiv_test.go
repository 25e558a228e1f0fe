package mc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"greendimm/internal/dram"
	"greendimm/internal/sim"
)

// The files under testdata/idle_equiv were written by the build that
// drove each rank's idle descent with timer events: a power-down timer
// queued at standby entry, and a self-refresh timer queued when the
// power-down timer ran. Each scenario puts a request, a scheduling event
// or the end of a run on the exact instant of a descent step or refresh
// round, so it pins how every such tie resolved under the timers: each
// request's completion instant and latency, then the Stats, latency and
// residency rows of writeStatsReport.

// idlePolicies are the golden's idle policies: the 1 us/64 us default,
// power-down at tREFI with self-refresh at 2 tREFI (both steps land on
// refresh rounds), and 0.2 us/4 us, whose gap between the two steps is
// below tREFI.
func idlePolicies() []struct {
	name   string
	pd, sr sim.Time
} {
	tm := dram.DDR4_2133()
	return []struct {
		name   string
		pd, sr sim.Time
	}{
		{"lp-default", defaultPowerDownAfter, defaultSelfRefreshAfter},
		{"lp-trefi-2trefi", tm.TREFI, 2 * tm.TREFI},
		{"lp-0.2us-4us", 200 * sim.Nanosecond, 4 * sim.Microsecond},
	}
}

// idleScene is one scenario's engine, controller and completion log. All
// requests read line 0 (channel 0, rank 0 on the contiguous map).
type idleScene struct {
	t      *testing.T
	eng    *sim.Engine
	c      *Controller
	cfg    Config
	log    strings.Builder
	onDone map[uint64]func()
	done   map[uint64]sim.Time
}

func newIdleScene(t *testing.T, pd, sr sim.Time) *idleScene {
	return &idleScene{
		t:   t,
		eng: sim.NewEngine(),
		cfg: Config{
			Org: dram.Org64GB(), Timing: dram.DDR4_2133(),
			LowPower: true, PowerDownAfter: pd, SelfRefreshAfter: sr,
		},
		onDone: map[uint64]func(){},
		done:   map[uint64]sim.Time{},
	}
}

// build creates the controller at the engine's current time. Events a
// scenario schedules before build take seqs below the initial descent's.
func (s *idleScene) build() {
	c, err := New(s.eng, s.cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	s.c = c
}

func (s *idleScene) Complete(id uint64, lat sim.Time) {
	now := s.eng.Now()
	s.done[id] = now
	fmt.Fprintf(&s.log, "req %d done_ps %d latency_ps %d\n", id, int64(now), int64(lat))
	if f := s.onDone[id]; f != nil {
		f()
	}
}

func (s *idleScene) submit(id uint64) {
	if err := s.c.SubmitCall(0, false, s, id); err != nil {
		s.t.Fatal(err)
	}
}

// submitAt schedules request id at time at.
func (s *idleScene) submitAt(at sim.Time, id uint64) {
	s.eng.At(at, func() { s.submit(id) })
}

func (s *idleScene) report() string {
	s.c.Finalize()
	var b strings.Builder
	b.WriteString(s.log.String())
	writeStatsReport(&b, s.c)
	return b.String()
}

// idleHorizon bounds the RunUntil scenarios: past every policy's landing
// instants below.
const idleHorizon = 200 * sim.Microsecond

// idleScenario builds, runs and reports one scenario under policy pd/sr.
type idleScenario struct {
	name string
	run  func(t *testing.T, pd, sr sim.Time) string
}

func idleScenarios() []idleScenario {
	tREFI := dram.DDR4_2133().TREFI
	runUntil := func(setup func(s *idleScene, pd, sr sim.Time)) func(*testing.T, sim.Time, sim.Time) string {
		return func(t *testing.T, pd, sr sim.Time) string {
			s := newIdleScene(t, pd, sr)
			setup(s, pd, sr)
			s.eng.RunUntil(idleHorizon)
			return s.report()
		}
	}
	// reentry runs two re-entered descents: request 1 at 3 tREFI + 1 us;
	// from its completion (standby entry c1) request 2 at c1+pd, queued
	// after that descent's power-down timer; from request 2's completion
	// c2, an event at c2+pd that submits request 3 at c2+sr. With c2 from
	// a first pass, early also queues an event at c2+pd from request 1's
	// completion, before that descent is armed, which submits request 4
	// at c2+sr.
	reentry := func(early bool) func(*testing.T, sim.Time, sim.Time) string {
		pass := func(t *testing.T, pd, sr, c2 sim.Time) *idleScene {
			s := newIdleScene(t, pd, sr)
			s.build()
			s.submitAt(3*tREFI+sim.Microsecond, 1)
			s.onDone[1] = func() {
				s.submitAt(s.eng.Now()+pd, 2)
				if c2 > 0 {
					s.eng.At(c2+pd, func() { s.submitAt(c2+sr, 4) })
				}
			}
			if c2 == 0 {
				s.onDone[2] = func() {
					c := s.eng.Now()
					s.eng.At(c+pd, func() { s.submitAt(c+sr, 3) })
				}
			}
			s.eng.RunUntil(idleHorizon)
			return s
		}
		return func(t *testing.T, pd, sr sim.Time) string {
			if !early {
				return pass(t, pd, sr, 0).report()
			}
			first := pass(t, pd, sr, 0)
			c2 := first.done[2]
			return pass(t, pd, sr, c2).report()
		}
	}
	// runEnd ends a Run on the instant of a descent step, then submits
	// from outside the run (an SR or PD wake shows which steps the run
	// had passed), runs again and finalizes. setup schedules the
	// run's last event.
	runEnd := func(setup func(s *idleScene, pd, sr sim.Time), submit bool) func(*testing.T, sim.Time, sim.Time) string {
		return func(t *testing.T, pd, sr sim.Time) string {
			s := newIdleScene(t, pd, sr)
			setup(s, pd, sr)
			s.eng.Run()
			fmt.Fprintf(&s.log, "run_end_ps %d\n", int64(s.eng.Now()))
			if submit {
				s.submit(1)
				s.eng.Run()
			}
			return s.report()
		}
	}
	noop := func() {}
	return []idleScenario{
		// A submit at tPD queued before the descent is armed runs before
		// the power-down step; one queued after runs after it.
		{"pd-tie-before", runUntil(func(s *idleScene, pd, sr sim.Time) {
			s.submitAt(pd, 1)
			s.build()
		})},
		{"pd-tie-after", runUntil(func(s *idleScene, pd, sr sim.Time) {
			s.build()
			s.submitAt(pd, 1)
		})},
		// A submit landing at tSR, scheduled by an event at tPD that ran
		// before (after) the power-down step, runs before (after) the
		// self-refresh step: a power-down (self-refresh) wake.
		{"sr-born-before", runUntil(func(s *idleScene, pd, sr sim.Time) {
			s.eng.At(pd, func() { s.submitAt(sr, 1) })
			s.build()
		})},
		{"sr-born-after", runUntil(func(s *idleScene, pd, sr sim.Time) {
			s.build()
			s.eng.At(pd, func() { s.submitAt(sr, 1) })
		})},
		{"reentry-after", reentry(false)},
		{"reentry-before", reentry(true)},
		// round-at-sr lands a standby entry so that tSR falls on a refresh
		// round; the round's REF reaches the rank only if it was queued
		// before the self-refresh timer.
		{"round-at-sr", func(t *testing.T, pd, sr sim.Time) string {
			target := 10*tREFI - sr
			if target < 2*tREFI {
				target += 10 * tREFI
			}
			pass := func(submitAt sim.Time) *idleScene {
				s := newIdleScene(t, pd, sr)
				s.build()
				s.submitAt(submitAt, 1)
				s.submitAt(target+sr+tREFI/2, 2)
				s.eng.RunUntil(idleHorizon)
				return s
			}
			first := pass(target - sim.Microsecond)
			at := target - sim.Microsecond + target - first.done[1]
			s := pass(at)
			if s.done[1] != target {
				t.Fatalf("request 1 completed at %v, want %v", s.done[1], target)
			}
			return s.report()
		}},
		// A Run whose last event falls on tPD (tSR): queued before the
		// step (or its timer) it leaves the step pending.
		{"run-end-pd-before", runEnd(func(s *idleScene, pd, sr sim.Time) {
			s.eng.At(pd, noop)
			s.build()
		}, true)},
		{"run-end-pd-after", runEnd(func(s *idleScene, pd, sr sim.Time) {
			s.build()
			s.eng.At(pd, noop)
		}, true)},
		{"run-end-sr-before", runEnd(func(s *idleScene, pd, sr sim.Time) {
			s.build()
			s.eng.At(sr, noop)
		}, true)},
		{"run-end-sr-after", runEnd(func(s *idleScene, pd, sr sim.Time) {
			s.build()
			s.eng.At(pd, func() { s.eng.At(sr, noop) })
		}, true)},
		// Finalize straight after a Run ending on tPD; with pd = tREFI a
		// refresh round ties too, and runs only if it was queued first.
		{"finalize-pd-before", runEnd(func(s *idleScene, pd, sr sim.Time) {
			s.eng.At(pd, noop)
			s.build()
		}, false)},
		{"finalize-pd-after", runEnd(func(s *idleScene, pd, sr sim.Time) {
			s.build()
			s.eng.At(pd, noop)
		}, false)},
	}
}

// idleEquivReport renders every scenario under one policy.
func idleEquivReport(t *testing.T, pd, sr sim.Time) string {
	var b strings.Builder
	for _, sc := range idleScenarios() {
		fmt.Fprintf(&b, "== %s\n%s", sc.name, sc.run(t, pd, sr))
	}
	return b.String()
}

// TestIdleDescentEquivalenceGolden holds every policy's scenarios to the
// timer-driven build's output.
func TestIdleDescentEquivalenceGolden(t *testing.T) {
	for _, p := range idlePolicies() {
		t.Run(p.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "idle_equiv", p.name+".txt"))
			if err != nil {
				t.Fatalf("read golden: %v", err)
			}
			if got := idleEquivReport(t, p.pd, p.sr); got != string(want) {
				t.Errorf("diverged from the timer-driven golden:\n%s", firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff names the scenario and line where got first departs from
// want.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	scenario := ""
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if strings.HasPrefix(wl, "== ") {
			scenario = wl
		}
		if gl != wl {
			return fmt.Sprintf("%s, line %d:\n got: %s\nwant: %s", scenario, i+1, gl, wl)
		}
	}
	return "identical"
}
