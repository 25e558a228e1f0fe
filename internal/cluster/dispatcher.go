package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"greendimm/internal/obs"
	"greendimm/internal/server"
)

// Options tunes a Dispatcher. Zero values take defaults.
type Options struct {
	// HedgeAfter launches a duplicate of a still-unfinished job on a
	// second backend after this long (0 = hedging off). The first
	// terminal success wins; the loser is cancelled. Safe because runs
	// are deterministic — and checked: if both copies finish, their
	// bytes must agree.
	HedgeAfter time.Duration
	// Counters receives dispatch accounting (default: a fresh instance;
	// pass the Pool's ClientConfig.Counters to unify retry counts).
	Counters *Counters
}

// Dispatcher fans job specs across a Pool of greendimmd backends and
// merges the results deterministically: output order is input order, and
// every pair of executions that shares a spec hash — duplicates in the
// input, hedged copies, retried runs — must produce byte-identical
// reports or the dispatch fails with a *DivergenceError.
type Dispatcher struct {
	pool *Pool
	opts Options
	ctr  *Counters
	// concurrency bounds jobs (or shards) in flight across the pool:
	// two per backend, at least 4.
	concurrency int
}

// NewDispatcher builds a dispatcher over the pool.
func NewDispatcher(pool *Pool, opts Options) *Dispatcher {
	if opts.Counters == nil {
		opts.Counters = &Counters{}
	}
	return &Dispatcher{pool: pool, opts: opts, ctr: opts.Counters, concurrency: max(4, 2*pool.Size())}
}

// localRunner adapts an in-process execution function to the ladder's
// last rung: the run stops once ctx is done, and records into the job's
// trace, which rides the context (runOne puts it there), so a traced
// dispatch gets per-cell spans from the local run too.
func localRunner(exec func(server.JobSpec, server.RunHooks) (*server.Result, error)) func(context.Context, server.JobSpec) (*server.Result, error) {
	return func(ctx context.Context, spec server.JobSpec) (*server.Result, error) {
		return exec(spec, server.RunHooks{
			Stop:  func() bool { return ctx.Err() != nil },
			Trace: obs.FromContext(ctx),
		})
	}
}

// Counters returns a snapshot of the dispatcher's accounting.
func (d *Dispatcher) Counters() CounterSnapshot { return d.ctr.Snapshot() }

// Run executes every spec and returns the results in input order. Specs
// are validated and hashed up front; any invalid spec fails the whole
// call before work starts. The first per-job error (in input order)
// cancels the remaining jobs and is returned.
func (d *Dispatcher) Run(ctx context.Context, specs []server.JobSpec) ([]*server.Result, error) {
	return d.RunTraced(ctx, specs, nil)
}

// RunTraced is Run with per-spec traces: traces[i] (nil entries allowed)
// receives spec i's dispatch spans — one "attempt" per backend try (Arg
// = backend URL), "hedge" for duplicate launches, "backoff" for client
// retries, "failover" marks, "local" for in-process fallback, and a
// final "merge". traces must be nil or match specs in length.
func (d *Dispatcher) RunTraced(ctx context.Context, specs []server.JobSpec, traces []*obs.Trace) ([]*server.Result, error) {
	if traces != nil && len(traces) != len(specs) {
		return nil, fmt.Errorf("cluster: %d traces for %d specs", len(traces), len(specs))
	}
	traceFor := func(i int) *obs.Trace {
		if traces == nil {
			return nil
		}
		return traces[i]
	}
	hashes := make([]string, len(specs))
	for i, spec := range specs {
		h, err := server.SpecHash(spec)
		if err != nil {
			return nil, fmt.Errorf("cluster: spec %d: %w", i, err)
		}
		hashes[i] = h
	}

	runCtx, cancelRest := context.WithCancel(ctx)
	defer cancelRest()
	local := localRunner(server.Execute)
	results := make([]*server.Result, len(specs))
	sources := make([]string, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, d.concurrency)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-runCtx.Done():
				errs[i] = runCtx.Err()
				return
			}
			results[i], sources[i], errs[i] = d.runOne(runCtx, specs[i], traceFor(i), local)
			if errs[i] != nil {
				cancelRest() // first failure stops the rest promptly
			}
		}(i)
	}
	wg.Wait()

	// Report the causal failure, not the collateral cancellations it
	// triggered in sibling jobs: the first non-cancellation error wins;
	// pure cancellation (the caller's ctx died) reports as itself.
	var cancelErr error
	cancelIdx := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			if cancelErr == nil {
				cancelErr, cancelIdx = err, i
			}
			continue
		}
		return nil, fmt.Errorf("cluster: spec %d (hash %.12s): %w", i, hashes[i], err)
	}
	if cancelErr != nil {
		return nil, fmt.Errorf("cluster: spec %d (hash %.12s): %w", cancelIdx, hashes[cancelIdx], cancelErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Deterministic merge: results already sit at their input index;
	// cross-check that duplicated hashes resolved to identical bytes.
	mergeStart := time.Now()
	m := newMerger()
	var mergeErr error
	for i := range results {
		if err := m.observe(hashes[i], results[i], sources[i]); err != nil {
			if _, ok := err.(*DivergenceError); ok {
				d.ctr.Divergences.Add(1)
			}
			mergeErr = err
			break
		}
	}
	mergeDur := time.Since(mergeStart)
	for i := range specs {
		traceFor(i).Add("merge", "", mergeStart, mergeDur, mergeErr)
	}
	if mergeErr != nil {
		return nil, mergeErr
	}
	return results, nil
}

// runOne pushes one spec through the routing ladder: healthy backends in
// least-outstanding order (with optional hedging), then local, the
// in-process fallback: server.Execute for a dispatched job, the shard
// runner's Exec for a shard. The trace rides ctx from here down so the
// client's backoff loop and the local fallback can record into it.
func (d *Dispatcher) runOne(ctx context.Context, spec server.JobSpec, tr *obs.Trace, local func(context.Context, server.JobSpec) (*server.Result, error)) (*server.Result, string, error) {
	ctx = obs.ContextWith(ctx, tr)
	tried := make(map[string]bool)
	var lastErr error
	for len(tried) < d.pool.Size() {
		lease := d.pool.Pick(tried)
		if lease == nil {
			break
		}
		tried[lease.URL()] = true
		res, src, err := d.runOn(ctx, lease, spec, tried, tr)
		if err == nil {
			return res, src, nil
		}
		if ctx.Err() != nil {
			return nil, "", err
		}
		lastErr = err
		d.ctr.Failovers.Add(1)
		tr.Mark("failover", lease.URL())
	}

	d.ctr.LocalRuns.Add(1)
	sp := tr.Start("local")
	res, err := local(ctx, spec)
	sp.EndErr(err)
	if err != nil {
		if lastErr != nil {
			return nil, "", fmt.Errorf("local fallback failed: %w (after backend error: %v)", err, lastErr)
		}
		return nil, "", err
	}
	return res, "local", nil
}

// attempt is one backend execution's outcome.
type attempt struct {
	view server.JobView
	err  error
	src  string
}

// succeeded reports whether the attempt carries a usable result.
func (a attempt) succeeded() bool {
	return a.err == nil && a.view.State == server.StateSucceeded && a.view.Result != nil
}

// failure renders a non-succeeded attempt as an error.
func (a attempt) failure() error {
	if a.err != nil {
		return a.err
	}
	return fmt.Errorf("job %s (%s) ended %s: %s", a.view.ID, a.src, a.view.State, a.view.Error)
}

// runOn submits the spec to the leased backend and waits it out,
// launching at most one hedge onto another backend (the least-loaded
// one not in tried, recorded there) once HedgeAfter elapses. The first
// success wins; the loser is cancelled, and if it had already finished,
// its bytes are cross-checked against the winner's.
func (d *Dispatcher) runOn(ctx context.Context, primary *Lease, spec server.JobSpec, tried map[string]bool, tr *obs.Trace) (*server.Result, string, error) {
	start := time.Now()
	sp := tr.StartArg("attempt", primary.URL())
	v, err := primary.Client().Submit(ctx, spec)
	if err != nil {
		primary.Release(err)
		sp.EndErr(err)
		d.ctr.AttemptSeconds.Observe(time.Since(start).Seconds())
		return nil, "", err
	}
	d.ctr.Submitted.Add(1)
	if terminal(v.State) { // cache hit, or rejected-at-submit terminal states
		primary.Release(nil)
		a := attempt{view: v, src: primary.URL()}
		d.ctr.AttemptSeconds.Observe(time.Since(start).Seconds())
		if a.succeeded() {
			sp.End()
			return v.Result, primary.URL(), nil
		}
		sp.EndErr(a.failure())
		return nil, "", a.failure()
	}

	wctx, cancelWatches := context.WithCancel(ctx)
	defer cancelWatches()
	primCh := make(chan attempt, 1)
	go d.watch(wctx, primary, v.ID, primary.URL(), primCh)
	primCh = d.finishAttempt(sp, start, primCh)

	var hedgeCh chan attempt
	var hedgeTimer *time.Timer
	var hedgeFire <-chan time.Time
	if d.opts.HedgeAfter > 0 {
		hedgeTimer = time.NewTimer(d.opts.HedgeAfter)
		defer hedgeTimer.Stop()
		hedgeFire = hedgeTimer.C
	}

	launched, done := 1, 0
	var winner *attempt
	var firstFailure error
	for winner == nil && done < launched {
		select {
		case a := <-primCh:
			primCh = nil // a watcher sends exactly once
			if a.succeeded() {
				winner = &a
			} else {
				done++
				if firstFailure == nil {
					firstFailure = a.failure()
				}
			}
		case a := <-hedgeCh:
			hedgeCh = nil
			if a.succeeded() {
				winner = &a
			} else {
				done++
				if firstFailure == nil {
					firstFailure = a.failure()
				}
				// The straggler is still pending and this hedge died:
				// re-arm so another backend gets a shot, else a stalled
				// primary plus one unlucky hedge would wait out ctx.
				if hedgeTimer != nil && done < launched {
					hedgeTimer.Reset(d.opts.HedgeAfter)
					hedgeFire = hedgeTimer.C
				}
			}
		case <-hedgeFire:
			hedgeFire = nil
			hl := d.pool.Pick(tried)
			if hl == nil {
				continue // nobody to hedge onto; keep waiting on the primary
			}
			tried[hl.URL()] = true
			d.ctr.Hedges.Add(1)
			launched++
			inner := make(chan attempt, 1)
			go d.hedge(wctx, hl, spec, inner)
			hedgeCh = d.finishAttempt(tr.StartArg("hedge", hl.URL()), time.Now(), inner)
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
	}
	if winner == nil {
		return nil, "", firstFailure
	}
	if strings.HasPrefix(winner.src, "hedge ") {
		d.ctr.HedgeWins.Add(1)
	}

	// Cancel the losing copy; if it has in fact already finished
	// successfully, hold it to the determinism invariant first.
	for _, ch := range []chan attempt{primCh, hedgeCh} {
		if ch == nil {
			continue
		}
		select {
		case a := <-ch:
			if a.succeeded() {
				wp, werr := fingerprint(winner.view.Result)
				lp, lerr := fingerprint(a.view.Result)
				if werr == nil && lerr == nil && wp != lp {
					d.ctr.Divergences.Add(1)
					return nil, "", &DivergenceError{SpecHash: v.SpecHash, SourceA: winner.src, SourceB: a.src}
				}
			}
		default:
			// Still in flight: cancelWatches (deferred) aborts its Wait,
			// and the watcher best-effort-cancels the remote job.
		}
	}
	return winner.view.Result, winner.src, nil
}

// finishAttempt forwards an attempt channel's single send, closing the
// attempt's span and observing its wall latency when it lands. The
// forwarding goroutine runs even after the dispatch moves on (both
// channels are buffered), so losing attempts still get their span ended
// — with the cancellation error that abandoned them — instead of
// leaking an open interval.
func (d *Dispatcher) finishAttempt(sp obs.SpanHandle, start time.Time, in <-chan attempt) chan attempt {
	out := make(chan attempt, 1)
	go func() {
		a := <-in
		d.ctr.AttemptSeconds.Observe(time.Since(start).Seconds())
		if a.succeeded() {
			sp.End()
		} else {
			sp.EndErr(a.failure())
		}
		out <- a
	}()
	return out
}

// hedge submits the duplicate copy and hands off to watch.
func (d *Dispatcher) hedge(ctx context.Context, l *Lease, spec server.JobSpec, ch chan<- attempt) {
	src := "hedge " + l.URL()
	v, err := l.Client().Submit(ctx, spec)
	if err != nil {
		l.Release(err)
		ch <- attempt{err: err, src: src}
		return
	}
	d.ctr.Submitted.Add(1)
	if terminal(v.State) {
		l.Release(nil)
		ch <- attempt{view: v, src: src}
		return
	}
	d.watch(ctx, l, v.ID, src, ch)
}

// watch waits a remote job to a terminal state, releasing the lease with
// the transport outcome. If the watch itself is cancelled (hedge lost,
// dispatch aborted) it best-effort-cancels the remote job so the backend
// stops burning cores on a result nobody wants.
func (d *Dispatcher) watch(ctx context.Context, l *Lease, id, src string, ch chan<- attempt) {
	v, err := l.Client().Wait(ctx, id)
	if err != nil {
		if ctx.Err() != nil {
			cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, _ = l.Client().Cancel(cctx, id)
			cancel()
			l.Release(nil) // abandonment is not the backend's fault
		} else {
			l.Release(err)
		}
		ch <- attempt{err: err, src: src}
		return
	}
	l.Release(nil)
	ch <- attempt{view: v, src: src}
}

// Overflow places one job that a daemon's full queue turned away; it is
// the server.Config.Overflow hook. It submits the spec to the
// least-outstanding healthy peer, bounded by that peer's retry budget,
// with no failover to another peer, and returns a runner that waits the
// peer's job out. An error means no peer took the job. The runner
// records an "attempt" span (Arg = peer URL) from submission on, and
// once its Stop fires, watch cancels the peer's job.
func (d *Dispatcher) Overflow(spec server.JobSpec) (func(server.JobSpec, server.RunHooks) (*server.Result, error), error) {
	lease := d.pool.Pick(nil)
	if lease == nil {
		return nil, errors.New("cluster: no healthy peer")
	}
	start := time.Now()
	v, err := lease.Client().Submit(context.Background(), spec)
	if err != nil {
		lease.Release(err)
		return nil, err
	}
	d.ctr.Submitted.Add(1)
	d.ctr.ProxiedJobs.Add(1)
	return func(_ server.JobSpec, h server.RunHooks) (*server.Result, error) {
		a := attempt{view: v, src: lease.URL()}
		if terminal(v.State) { // a cache hit on the peer
			lease.Release(nil)
		} else {
			ctx, cancel := stopContext(h.Stop)
			defer cancel()
			ch := make(chan attempt, 1)
			d.watch(ctx, lease, v.ID, lease.URL(), ch)
			a = <-ch
		}
		var err error
		if !a.succeeded() {
			err = a.failure()
		}
		d.ctr.AttemptSeconds.Observe(time.Since(start).Seconds())
		h.Trace.Add("attempt", lease.URL(), start, time.Since(start), err)
		if err != nil {
			return nil, err
		}
		return a.view.Result, nil
	}, nil
}

// stopContext bridges a server.RunHooks Stop predicate onto the context
// the dispatcher's ladder wants: the context is canceled once stop
// reports true, or by cancel. Stop is a predicate, not a channel, so it
// is polled; 20 ms is far below any remote job's runtime.
func stopContext(stop func() bool) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	if stop == nil {
		return ctx, cancel
	}
	go func() {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if stop() {
					cancel()
					return
				}
			}
		}
	}()
	return ctx, cancel
}
