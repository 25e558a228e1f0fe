package server

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"greendimm/internal/exp"
	"greendimm/internal/obs"
	"greendimm/internal/report"
	"greendimm/internal/sim"
	"greendimm/internal/sweep"
)

// Result is the output of one executed job: the experiment's tables and
// series (rendered text included, byte-identical to the CLI), plus the
// sim-time/wall-time accounting the metrics endpoint aggregates.
type Result struct {
	Tables []*report.Table  `json:"tables,omitempty"`
	Series []report.Series  `json:"series,omitempty"`
	VMDay  *exp.VMDayResult `json:"vmday,omitempty"`
	// Cells holds the completed cell artifacts of a range job (a spec
	// with Cells set), sorted by key. Range jobs return ONLY artifacts:
	// Tables/Series/Text are empty and SimSeconds is zero, so the result
	// bytes are a pure function of the spec — a peer serving the range
	// from a warm memo and a peer simulating it from cold agree exactly,
	// which the cluster's divergence cross-check requires.
	Cells []exp.CellArtifact `json:"cells,omitempty"`
	// Text is the human-readable rendering of Tables and Series — what
	// `greendimm -experiment <id>` prints for the same spec.
	Text string `json:"text"`
	// SimSeconds is the total simulated time advanced across every
	// engine the job created.
	SimSeconds float64 `json:"sim_seconds"`
	// WallSeconds is the job's execution time on its worker (filled by
	// the pool, zero on cache hits — that being the point).
	WallSeconds float64 `json:"wall_seconds"`
}

// RunHooks carries one execution's cancellation, observability and
// replay hooks — the server's worker pool fills them; library callers
// (the CLI, the cluster's local fallback and merge) pass what they
// need. Every field is optional; the zero RunHooks runs uninstrumented,
// replays nothing and never stops. None of them influence results: they
// gate whether a run proceeds, what it need not recompute, and where
// its wall time went, nothing else.
type RunHooks struct {
	// Stop (nil = never) is polled from the engines' event loops and
	// between sweep cells; true aborts the run, whose partial result must
	// then be discarded.
	Stop func() bool
	// Trace, when non-nil, receives per-cell "cell" spans via exp.Hooks.
	Trace *obs.Trace
	// Progress, when non-nil, is called after each sweep cell completes
	// (serialized; see exp.Hooks.Progress).
	Progress func(done, total int, cellSeconds float64)
	// Cells lists previously completed cell artifacts to replay: runSpec
	// imports them into the memo it runs against before the first cell
	// (codec-verified byte-exact), so each replays as a memo hit.
	// Execution knob — replay can only change how long a run takes, never
	// its bytes. The daemon fills it from the job store on
	// recovery/resume; the cluster merge adds the shards' artifacts.
	Cells []exp.CellArtifact
	// CellObserved, when non-nil, receives every cell artifact the run
	// resolves, computed or memo hit, replays included (the job store
	// skips keys a record already holds). Called from concurrent sweep
	// cells — must be safe for concurrent use. The daemon journals these
	// to the job store.
	CellObserved func(exp.CellArtifact)
	// Ranges carries the shard-execution transport between the daemon
	// and the cluster's shard runner. runSpec itself ignores it: range
	// state is journal bookkeeping, not simulation input.
	Ranges *RangeLog
}

// RangeLog is the shard runner's view of a job's durable range state:
// which cell ranges are already complete (skip them), and where to
// journal the plan and each completed range. All fields optional.
type RangeLog struct {
	// Done lists completed [lo,hi) ranges from a previous run of the
	// same spec; the shard planner executes only the complement.
	Done [][2]int
	// OnPlan is called once with the sweep's total cell count and the
	// planned shard ranges, before any shard executes.
	OnPlan func(total int, ranges [][2]int)
	// OnDone is called as each range's cells finish, after every cell in
	// [lo,hi) has been offered to CellObserved — the ordering the store
	// relies on to trust a done range.
	OnDone func(lo, hi int)
}

// stop returns the effective stop predicate, never nil.
func (h RunHooks) stop() func() bool {
	if h.Stop == nil {
		return func() bool { return false }
	}
	return h.Stop
}

// Execute runs one job spec in-process, outside any worker pool: it
// normalizes the spec and executes it serially with no sweep budget,
// against a fresh memo that h.Cells replay through. This is the
// cluster dispatcher's local-fallback path; because runSpec is
// deterministic, the Result (minus WallSeconds, which Execute leaves
// zero) is byte-identical to what any greendimmd backend returns for
// the same spec.
func Execute(spec JobSpec, h RunHooks) (*Result, error) {
	norm, err := spec.normalized()
	if err != nil {
		return nil, &InvalidSpecError{Err: err}
	}
	return runSpec(norm, h, nil, Config{}.NewMemo())
}

// runSpec executes a normalized spec under h's hooks. limiter (nil =
// unbounded) gates any extra sweep workers the job's parallelism
// requests, so per-job fan-out and the worker pool share one CPU
// budget. memo caches baseline cells across the jobs that share it —
// the daemon installs one server-wide memo so, e.g., fig12 and fig13
// jobs compute their common traced day once — and h.Cells replay
// through it. Deterministic: the same spec always yields the same
// Tables, Series, VMDay and Text, at every parallelism, under any
// hooks, whatever the memo holds.
func runSpec(spec JobSpec, h RunHooks, limiter *sweep.Limiter, memo *sweep.Memo) (*Result, error) {
	// Observe is called from concurrent sweep cells when parallelism > 1.
	var mu sync.Mutex
	var engines []*sim.Engine
	hooks := exp.Hooks{
		Stop: h.stop(),
		Observe: func(e *sim.Engine) {
			mu.Lock()
			engines = append(engines, e)
			mu.Unlock()
		},
		Limiter:  limiter,
		Trace:    h.Trace,
		Progress: h.Progress,
	}
	parallelism := spec.Parallelism
	if parallelism == 0 {
		parallelism = 1 // serial inside the job; the pool parallelizes across jobs
	}
	res := &Result{}
	switch spec.Kind {
	case KindExperiment:
		fn := exp.Registry()[spec.Experiment.ID]
		if fn == nil {
			return nil, fmt.Errorf("unknown experiment %q", spec.Experiment.ID)
		}
		opts := exp.Options{
			Quick:       spec.Experiment.Quick,
			Seed:        spec.Experiment.Seed,
			Parallelism: parallelism,
			Hooks:       hooks,
			Memo:        memo,
		}
		memo.Import(h.Cells)
		// Collect artifacts when anyone wants them: a range job returns
		// them as its result; a full job with CellObserved journals them.
		var cellMu sync.Mutex
		var collected []exp.CellArtifact
		isRange := spec.Cells != nil
		if isRange || h.CellObserved != nil {
			observe := h.CellObserved
			opts.CellSink = func(a exp.CellArtifact) {
				if observe != nil {
					observe(a)
				}
				if isRange {
					cellMu.Lock()
					collected = append(collected, a)
					cellMu.Unlock()
				}
			}
		}
		if isRange {
			opts.CellRange = &exp.CellRange{Lo: spec.Cells.Lo, Hi: spec.Cells.Hi}
		}
		tables, series, err := fn(opts)
		var rd *exp.RangeDone
		if errors.As(err, &rd) {
			if !isRange {
				return nil, fmt.Errorf("experiment %q returned a range sentinel without a range", spec.Experiment.ID)
			}
			cells, err := sortCells(collected)
			if err != nil {
				return nil, err
			}
			// SimSeconds deliberately stays zero: a warm-memo peer
			// simulates less for the same range, and the artifact set —
			// not execution accounting — is the deterministic payload.
			return &Result{Cells: cells}, nil
		}
		if err != nil {
			return nil, err
		}
		if isRange {
			return nil, fmt.Errorf("experiment %q ignored the cell range", spec.Experiment.ID)
		}
		res.Tables, res.Series = tables, series
	case KindVMServer:
		day, err := exp.RunVMScenario(*spec.VMServer, hooks)
		if err != nil {
			return nil, err
		}
		res.VMDay = &day
		res.Tables = []*report.Table{vmScenarioTable(*spec.VMServer, day)}
		res.Series = vmScenarioSeries(day)
	default:
		return nil, fmt.Errorf("unknown kind %q", spec.Kind)
	}
	for _, e := range engines {
		res.SimSeconds += e.Now().Seconds()
	}
	res.Text = renderText(res.Tables, res.Series)
	return res, nil
}

// sortCells canonicalizes a range run's collected artifacts: sorted by
// key, duplicates collapsed. Two artifacts under one key must carry the
// same bytes (cells are pure functions of their keys); disagreement
// means the determinism invariant broke, which must surface, not be
// papered over by picking a winner.
func sortCells(cells []exp.CellArtifact) ([]exp.CellArtifact, error) {
	sort.Slice(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key })
	out := cells[:0]
	for _, c := range cells {
		if n := len(out); n > 0 && out[n-1].Key == c.Key {
			if string(out[n-1].Value) != string(c.Value) {
				return nil, fmt.Errorf("cell %q produced two different values in one run", c.Key)
			}
			continue
		}
		out = append(out, c)
	}
	return out, nil
}

// CellCount reports how many sweep cells the spec's experiment runs,
// without simulating any (an empty probe range). The spec must be an
// experiment job; its own Cells field is ignored — the count describes
// the full sweep.
func CellCount(spec JobSpec) (int, error) {
	norm, err := spec.normalized()
	if err != nil {
		return 0, &InvalidSpecError{Err: err}
	}
	if norm.Kind != KindExperiment {
		return 0, fmt.Errorf("kind %q has no cell sweep", norm.Kind)
	}
	return exp.CellCount(norm.Experiment.ID, exp.Options{
		Quick: norm.Experiment.Quick,
		Seed:  norm.Experiment.Seed,
	})
}

// renderText reproduces the CLI's per-experiment output: each table, then
// one sparkline per series.
func renderText(tables []*report.Table, series []report.Series) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, s := range series {
		fmt.Fprintf(&b, "  %-10s %s\n", s.Name, s.Sparkline(64))
	}
	return b.String()
}

// vmScenarioTable summarizes one VM-server run the way Fig. 12's rows do.
func vmScenarioTable(s exp.VMScenario, r exp.VMDayResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("VM server: %dGB, %gh, ksm=%v, greendimm=%v", s.CapacityGB, s.Hours, s.KSM, s.GreenDIMM),
		"value")
	t.AddRow("avg used %", r.AvgUsedFrac*100)
	t.AddRow("min used %", r.MinUsedFrac*100)
	t.AddRow("max used %", r.MaxUsedFrac*100)
	t.AddRow("avg cpu util %", r.AvgCPUUtil*100)
	t.AddRow("avg off-lined blocks", r.AvgOffBlocks)
	t.AddRow("avg dpd frac %", r.AvgDPDFrac*100)
	t.AddRow("ksm saved GB (avg)", float64(r.KSMSavedAvg)/float64(1<<30))
	t.AddRow("avg dram W", r.AvgDRAMPowerW)
	t.AddRow("avg system W", r.AvgSystemW)
	t.AddRow("bg power reduction %", r.BGReductionPct)
	return t
}

// vmScenarioSeries plots utilization, off-lined blocks and the DPD
// fraction over the run.
func vmScenarioSeries(r exp.VMDayResult) []report.Series {
	used := report.Series{Name: "used-frac"}
	off := report.Series{Name: "off-blocks"}
	dpd := report.Series{Name: "dpd-frac"}
	for _, s := range r.Samples {
		h := s.At.Seconds() / 3600
		used.Add(h, s.UsedFrac)
		off.Add(h, float64(s.OfflinedBlocks))
		dpd.Add(h, s.DPDFrac)
	}
	return []report.Series{used, off, dpd}
}
