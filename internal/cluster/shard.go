package cluster

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"greendimm/internal/exp"
	"greendimm/internal/server"
)

// This file implements cell-range shard execution: splitting one
// matrix-shaped job into contiguous cell-range shards [lo,hi) over its
// sweep index, running each shard on a peer through the dispatcher's
// failover ladder (hedged only when the dispatcher's HedgeAfter is set,
// which greendimmd leaves at zero), and merging the shards' artifacts
// into the single report the job would have produced on one node. The
// merge is byte-identical by construction: shards return canonical cell
// artifacts (pure functions of the spec hash), and the merge re-runs
// the full spec locally with those artifacts imported into its memo
// (codec-verified) — every heavy cell replays as a memo hit, only cheap
// rendering recomputes. No shard result is cross-checked against a
// second copy unless a hedge produced one.
//
// A shard that every peer fails runs on Exec, the ladder's last rung,
// and a shard that fails there fails the job. Retrying it in smaller
// ranges would not help: a local failure is a deterministic cell error,
// which the range holding that cell hits again, or a stopped job.

// ShardOptions tunes a ShardRunner. CellsPerShard and Exec are
// required; other zero values take defaults. Shards place by load: each
// goes to the healthy peer with the fewest outstanding jobs (Pool.Pick).
type ShardOptions struct {
	// CellsPerShard is the target shard width: a job with m missing
	// cells plans ceil(m/CellsPerShard) shards (capped at MaxShards),
	// sized near-equally. Must be > 0.
	CellsPerShard int
	// MaxShards caps the plan (default 16).
	MaxShards int
	// MinCells is the sharding floor: jobs with fewer missing cells run
	// whole on this node (default CellsPerShard + 1 — sharding a job
	// that fits one shard only adds transport).
	MinCells int
	// Exec executes a spec in-process — the merge step, the
	// ineligible-job passthrough, and a shard that no peer completed
	// (the ladder's local fallback, with the range set). cmd/greendimmd
	// passes server.Config.BaseRunner(), so all three run under the
	// daemon's limiter and against its shared memo. Required.
	Exec func(server.JobSpec, server.RunHooks) (*server.Result, error)
	// Counters receives shard accounting (default: the dispatcher's).
	Counters *Counters
}

// ShardRunner wraps a Dispatcher as a server.Config.Runner: eligible
// jobs fan out as cell-range shards across the pool, everything else
// runs locally through Exec. Install with server.Config{Runner: r.Run}.
type ShardRunner struct {
	d    *Dispatcher
	opts ShardOptions
	ctr  *Counters
	// local is Exec as the dispatcher ladder's last rung for shards.
	local func(context.Context, server.JobSpec) (*server.Result, error)
}

// NewShardRunner builds a shard runner over the dispatcher.
func NewShardRunner(d *Dispatcher, opts ShardOptions) (*ShardRunner, error) {
	if d == nil {
		return nil, fmt.Errorf("cluster: shard runner needs a dispatcher")
	}
	if opts.CellsPerShard <= 0 {
		return nil, fmt.Errorf("cluster: CellsPerShard must be > 0 (got %d)", opts.CellsPerShard)
	}
	if opts.Exec == nil {
		return nil, fmt.Errorf("cluster: shard runner needs an Exec function")
	}
	if opts.MaxShards <= 0 {
		opts.MaxShards = 16
	}
	if opts.MinCells <= 0 {
		opts.MinCells = opts.CellsPerShard + 1
	}
	if opts.Counters == nil {
		opts.Counters = d.ctr
	}
	return &ShardRunner{d: d, opts: opts, ctr: opts.Counters, local: localRunner(opts.Exec)}, nil
}

// eligible reports whether the spec can fan out as cell-range shards.
// A spec that already carries a range is executed whole — that is a
// shard arriving at a backend, and re-sharding it would recurse across
// the cluster.
func (r *ShardRunner) eligible(spec server.JobSpec) bool {
	return spec.Kind == server.KindExperiment &&
		spec.Cells == nil &&
		spec.Experiment != nil &&
		exp.Shardable(spec.Experiment.ID)
}

// Run executes one job, sharding it across the pool when eligible.
// Implements the server.Config.Runner contract: h's hooks are honored
// (Stop aborts shards promptly; Cells/Ranges/CellObserved carry the
// durable-store resume state, and the merge replays h.Cells with the
// shards' artifacts through Exec's memo; Trace records "shard" and
// "merge" spans).
func (r *ShardRunner) Run(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
	if !r.eligible(spec) {
		return r.opts.Exec(spec, h)
	}
	total, err := server.CellCount(spec)
	if err != nil || total <= 0 {
		// A shardable experiment that cannot be probed is a bug upstream,
		// but the job itself is still runnable — degrade to local.
		h.Trace.Mark("shard_probe_failed", fmt.Sprint(err))
		return r.opts.Exec(spec, h)
	}

	var done [][2]int
	if h.Ranges != nil {
		done = h.Ranges.Done
	}
	missing := complementRanges(done, total)
	missingCells := 0
	for _, m := range missing {
		missingCells += m[1] - m[0]
	}
	var collected []exp.CellArtifact
	if missingCells >= r.opts.MinCells {
		planned := planShards(missing, r.opts.CellsPerShard, r.opts.MaxShards)
		if h.Ranges != nil && h.Ranges.OnPlan != nil {
			h.Ranges.OnPlan(total, planned)
		}
		r.ctr.ShardJobs.Add(1)
		var err error
		if collected, err = r.runShards(spec, h, planned); err != nil {
			return nil, err
		}
	}
	// Merge: re-run the full spec locally, replaying every completed
	// cell — whatever the job store already held (h.Cells, on a resumed
	// job) plus the shards' fresh artifacts. They cover all heavy cells,
	// so the merge only replays, renders, and recomputes whatever a lost
	// artifact leaves behind (self-healing, still byte-identical).
	// CellObserved stays installed: every cell reaches it, and the job
	// store journals only the keys it does not hold yet.
	mh := h
	mh.Cells = slices.Concat(h.Cells, collected)
	mh.Ranges = nil
	sp := h.Trace.Start("merge")
	res, err := r.opts.Exec(spec, mh)
	sp.EndErr(err)
	return res, err
}

// runShards executes the planned ranges concurrently (bounded by the
// dispatcher's concurrency), delivering each completed shard's cells
// through h.CellObserved before journaling its range done. It returns
// every collected artifact for the merge to replay.
func (r *ShardRunner) runShards(spec server.JobSpec, h server.RunHooks, planned [][2]int) ([]exp.CellArtifact, error) {
	ctx, cancel := stopContext(h.Stop)
	defer cancel()

	// Collected artifacts feed the merge; the mutex serializes appends
	// from concurrent shards.
	var mu sync.Mutex
	var collected []exp.CellArtifact
	collect := func(arts []exp.CellArtifact) {
		mu.Lock()
		collected = append(collected, arts...)
		mu.Unlock()
	}

	sem := make(chan struct{}, r.d.concurrency)
	errs := make([]error, len(planned))
	var wg sync.WaitGroup
	for i, p := range planned {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				errs[i] = ctx.Err()
				return
			}
			errs[i] = r.runRange(ctx, spec, h, collect, lo, hi)
		}(i, p[0], p[1])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: shard [%d,%d): %w", planned[i][0], planned[i][1], err)
		}
	}
	return collected, ctx.Err()
}

// runRange executes one cell range through the dispatcher's ladder
// (failover, then Exec as the local fallback).
func (r *ShardRunner) runRange(ctx context.Context, spec server.JobSpec, h server.RunHooks, collect func([]exp.CellArtifact), lo, hi int) error {
	shardSpec := spec
	shardSpec.Cells = &server.CellRangeSpec{Lo: lo, Hi: hi}
	r.ctr.Shards.Add(1)
	sp := h.Trace.StartArg("shard", fmt.Sprintf("[%d,%d)", lo, hi))
	res, _, err := r.d.runOne(ctx, shardSpec, h.Trace, r.local)
	sp.EndErr(err)
	if err != nil {
		return err
	}
	collect(res.Cells)
	// Journal order matters: every cell lands before the range is
	// marked done, so a recovered journal never trusts a range whose
	// artifacts are missing.
	if h.CellObserved != nil {
		for _, a := range res.Cells {
			h.CellObserved(a)
		}
	}
	if h.Ranges != nil && h.Ranges.OnDone != nil {
		h.Ranges.OnDone(lo, hi)
	}
	return nil
}

// complementRanges returns the gaps of done within [0, total). done may
// be unsorted or carry out-of-bounds entries (a journal from an older
// quick/full variant); both are normalized first.
func complementRanges(done [][2]int, total int) [][2]int {
	clipped := make([][2]int, 0, len(done))
	for _, r := range done {
		lo, hi := r[0], r[1]
		if lo < 0 {
			lo = 0
		}
		if hi > total {
			hi = total
		}
		if hi > lo {
			clipped = append(clipped, [2]int{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var out [][2]int
	cur := 0
	for _, r := range clipped {
		if r[0] > cur {
			out = append(out, [2]int{cur, r[0]})
		}
		if r[1] > cur {
			cur = r[1]
		}
	}
	if cur < total {
		out = append(out, [2]int{cur, total})
	}
	return out
}

// planShards cuts the missing ranges into k near-equal contiguous
// shards, k = clamp(ceil(missing/cellsPerShard), fragments, maxShards):
// sizes within a fragment differ by at most one, and every fragment
// gets at least one shard (a shard cannot span a completed gap).
func planShards(missing [][2]int, cellsPerShard, maxShards int) [][2]int {
	totalMissing := 0
	for _, m := range missing {
		totalMissing += m[1] - m[0]
	}
	if totalMissing == 0 {
		return nil
	}
	k := (totalMissing + cellsPerShard - 1) / cellsPerShard
	if k > maxShards {
		k = maxShards
	}
	if k < len(missing) {
		k = len(missing)
	}
	// Allocate shard counts to fragments by size (largest remainder),
	// minimum one each.
	counts := make([]int, len(missing))
	assigned := 0
	for i, m := range missing {
		counts[i] = (m[1] - m[0]) * k / totalMissing
		if counts[i] < 1 {
			counts[i] = 1
		}
		if max := m[1] - m[0]; counts[i] > max {
			counts[i] = max
		}
		assigned += counts[i]
	}
	for assigned > k {
		// Shrink the fragment with the most shards (never below one).
		best := -1
		for i := range counts {
			if counts[i] > 1 && (best < 0 || counts[i] > counts[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		counts[best]--
		assigned--
	}
	for assigned < k {
		// Grow the fragment with the widest per-shard span.
		best, bestSpan := -1, 0
		for i, m := range missing {
			if span := (m[1] - m[0]) / counts[i]; span > 1 && span > bestSpan {
				best, bestSpan = i, span
			}
		}
		if best < 0 {
			break
		}
		counts[best]++
		assigned++
	}
	var out [][2]int
	for i, m := range missing {
		out = append(out, splitEven(m[0], m[1], counts[i])...)
	}
	return out
}

// splitEven cuts [lo, hi) into n contiguous pieces whose sizes differ
// by at most one, larger pieces first.
func splitEven(lo, hi, n int) [][2]int {
	size := hi - lo
	if n > size {
		n = size
	}
	out := make([][2]int, 0, n)
	base, rem := size/n, size%n
	cur := lo
	for i := 0; i < n; i++ {
		w := base
		if i < rem {
			w++
		}
		out = append(out, [2]int{cur, cur + w})
		cur += w
	}
	return out
}
