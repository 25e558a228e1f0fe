// Package exp contains one entry point per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each RunXxx
// function assembles the substrates — engine, kernel memory, hotplug,
// memory controller or register controller, KSM, VM trace, workloads, the
// GreenDIMM daemon — runs the experiment, and returns a result struct
// whose Table/Series methods render the same rows the paper reports.
//
// Two simulation scales are used (DESIGN.md §3): detailed request-level
// runs for anything timing-sensitive, and 1-second epoch runs for the
// 24-hour VM-trace studies. Every experiment takes Options so tests can
// run a Quick variant with identical structure.
//
// Every matrix-shaped experiment walks its workload x mapping x policy
// cells through Options.sweepCells (internal/sweep): cells are
// share-nothing deterministic simulations seeded independently of
// execution order, results land at their input index, and reports are
// rendered only after the sweep joins — so a run at Parallelism 8 is
// byte-identical to the serial run. See DESIGN.md §"Parallel sweeps".
package exp

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"greendimm/internal/obs"
	"greendimm/internal/sim"
	"greendimm/internal/sweep"
)

// Options scales an experiment.
type Options struct {
	// Quick shrinks horizons and access budgets for CI/tests; results
	// keep their shape but carry more noise.
	Quick bool
	Seed  int64

	// Parallelism bounds how many of an experiment's independent
	// simulation cells run concurrently: 0 selects runtime.NumCPU(), 1
	// forces the serial walk. Pure execution knob — results are
	// byte-identical at every setting — so, like Hooks, it is excluded
	// from serialized job specs.
	Parallelism int `json:"-"`

	// Hooks carries run instrumentation (cancellation, engine
	// observation). It never influences results — only whether and how
	// far a run proceeds — so it is excluded from serialized job specs.
	Hooks Hooks `json:"-"`

	// Memo, when non-nil, caches baseline sweep cells (timing runs,
	// dynamics runs, VM-trace days, tail services) across experiments by
	// config fingerprint, so matrix experiments that share a cell —
	// fig12/fig13 run the identical traced day, the energy matrix
	// re-runs standalone figures' timing configs — compute it once.
	// Pure execution knob: every cell is a deterministic function of its
	// key, so memoized output is byte-identical to recomputed output at
	// any parallelism (TestMemoDeterminism pins this). Excluded from
	// serialized job specs like the other execution knobs.
	Memo *sweep.Memo `json:"-"`

	// CellRange, when non-nil, restricts the experiment's single
	// top-level sweep to cells [Lo, Hi): the sweep runs only that slice
	// (mapping slice indices back to true cell indices, so seeds and
	// memo keys are unchanged) and then returns *RangeDone instead of
	// nil, aborting the experiment before rendering — output slots
	// outside the range are zero and must not be read. The empty range
	// [0, 0) is a count probe: no cell runs at all. Only Shardable
	// experiments support it. Unlike the knobs above, a range changes
	// the result (artifacts, not a report), so the serialized job spec
	// carries it separately (server.JobSpec.Cells).
	CellRange *CellRange `json:"-"`

	// CellSink, when non-nil, receives one CellArtifact per memoized
	// cell the run resolves, computed or served from Memo (replayed
	// artifacts imported into Memo included). Called from concurrent
	// sweep cells when Parallelism != 1, so it must be safe for
	// concurrent use. Pure observation: it must not influence results.
	CellSink func(CellArtifact) `json:"-"`
}

// Hooks lets a caller — the greendimmd daemon, a test harness — observe
// and interrupt an experiment without perturbing its determinism.
type Hooks struct {
	// Stop, when non-nil, is polled from every engine's event loop (at
	// sim.DefaultStopCheckEvery stride) and between sweep cells.
	// Returning true aborts the run early; the experiment then returns
	// an error (sweep-driven runners) or partial, meaningless results,
	// so callers that installed Stop must discard them (greendimmd
	// checks its job context and reports the job canceled). Because a
	// parallel sweep's engines poll the predicate from concurrent event
	// loops, it must be safe to call concurrently with itself whenever
	// Parallelism != 1.
	Stop func() bool
	// Observe, when non-nil, sees every engine the experiment creates —
	// used to meter simulated time against wall time. Calls are always
	// serialized (sweepCells wraps Observe in a mutex before handing
	// hooks to concurrent cells), but under a parallel sweep their order
	// follows cell scheduling, not a fixed creation order.
	Observe func(*sim.Engine)
	// Limiter, when non-nil, is a shared machine-wide budget for sweep
	// workers beyond each sweep's first. greendimmd installs one limiter
	// across all jobs so per-job parallelism and the worker pool compose
	// instead of oversubscribing workers x NumCPU goroutines.
	Limiter *sweep.Limiter
	// Trace, when non-nil, receives one "cell" span per sweep cell (the
	// span's Arg is the cell index), timing where a job's execution
	// wall-time goes. Like every obs.Trace, recording is lock-free and a
	// nil trace costs nothing — sweepCells skips the instrumented path
	// entirely when both Trace and Progress are unset.
	Trace *obs.Trace
	// Progress, when non-nil, is called after each sweep cell completes
	// with the number of cells done so far, the sweep's total, and the
	// finished cell's wall-clock seconds. Calls are serialized (like
	// Observe) so done is strictly increasing, but under a parallel
	// sweep their order follows cell completion, not cell index. Pure
	// observation: it must not influence results.
	Progress func(done, total int, cellSeconds float64)
}

// newEngine builds an experiment engine with the hooks installed. All
// run paths in this package create engines through this (or through
// Options.newEngine) so daemon-run jobs honor deadlines.
func (h Hooks) newEngine() *sim.Engine {
	e := sim.NewEngine()
	if h.Stop != nil {
		e.SetStopCheck(0, h.Stop)
	}
	if h.Observe != nil {
		h.Observe(e)
	}
	return e
}

// newEngine builds the experiment's engine with o's hooks installed.
func (o Options) newEngine() *sim.Engine { return o.Hooks.newEngine() }

// parallelism resolves the effective sweep width.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// sweepCells runs n independent simulation cells, at most o.parallelism()
// at a time, honoring o.Hooks cancellation and the shared Limiter. Each
// cell receives hooks derived from o.Hooks whose Observe callback is
// serialized, keeping the caller's single-threaded Observe contract even
// when cells create engines concurrently.
//
// Determinism contract (every caller must hold to it): a cell reads only
// shared-immutable inputs plus its index, seeds its own engines from
// constants and o.Seed, and writes only slot i of pre-sized output
// slices. Rendering happens after sweepCells returns. Under those rules
// the output is byte-identical at every parallelism level.
func (o Options) sweepCells(n int, cell func(i int, h Hooks) error) error {
	if r := o.CellRange; r != nil {
		return o.sweepRange(n, *r, cell)
	}
	h := o.Hooks
	if h.Observe != nil {
		var mu sync.Mutex
		observe := h.Observe
		h.Observe = func(e *sim.Engine) {
			mu.Lock()
			defer mu.Unlock()
			observe(e)
		}
	}
	// Cells get hooks without Trace/Progress: those two belong to this
	// sweep level, and forwarding them into a cell that itself sweeps
	// would double-count spans and interleave two progress totals.
	ch := h
	ch.Trace, ch.Progress = nil, nil
	run := func(i int) error { return cell(i, ch) }
	if h.Trace != nil || h.Progress != nil {
		// Per-cell observability: a "cell" span per cell and a serialized
		// completion callback. Wall-clock only — never feeds results.
		var mu sync.Mutex
		done := 0
		run = func(i int) error {
			start := time.Now()
			sp := h.Trace.StartArg("cell", strconv.Itoa(i))
			err := cell(i, ch)
			sp.EndErr(err)
			if h.Progress != nil {
				secs := time.Since(start).Seconds()
				mu.Lock()
				done++
				h.Progress(done, n, secs)
				mu.Unlock()
			}
			return err
		}
	}
	return sweep.Run(n, sweep.Config{
		Parallelism: o.parallelism(),
		Stop:        h.Stop,
		Limiter:     h.Limiter,
	}, run)
}

// sweepRange runs the [r.Lo, r.Hi) slice of an n-cell sweep through the
// normal sweepCells machinery (parallelism, limiter, stop and progress
// all apply to the slice), then returns *RangeDone so the experiment
// body aborts before rendering. The empty probe range runs nothing.
func (o Options) sweepRange(n int, r CellRange, cell func(i int, h Hooks) error) error {
	if r.Lo == 0 && r.Hi == 0 {
		return &RangeDone{Total: n}
	}
	if r.Lo < 0 || r.Hi > n || r.Lo >= r.Hi {
		return fmt.Errorf("exp: cell range [%d,%d) invalid for a sweep of %d cells", r.Lo, r.Hi, n)
	}
	sub := o
	sub.CellRange = nil
	err := sub.sweepCells(r.Hi-r.Lo, func(j int, h Hooks) error {
		return cell(r.Lo+j, h)
	})
	if err != nil {
		return err
	}
	return &RangeDone{Total: n}
}

// cellOptions returns o with the per-cell hooks substituted, for cells
// whose body calls helpers that take Options. The range is cleared: it
// belongs to the top-level sweep, and a cell's own helpers must run
// whole.
func (o Options) cellOptions(h Hooks) Options {
	o.Hooks = h
	o.CellRange = nil
	return o
}

// accessBudget picks the per-core number of DRAM accesses for detailed
// runs.
func (o Options) accessBudget(full int64) int64 {
	if o.Quick {
		return full / 10
	}
	return full
}

// horizon picks a simulated duration.
func (o Options) horizon(full sim.Time) sim.Time {
	if o.Quick {
		return full / 8
	}
	return full
}
