package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/kernel"
	"greendimm/internal/obs"
	"greendimm/internal/store"
	"greendimm/internal/sweep"
	"greendimm/internal/workload"
)

// runTraced is the traced mode, which never runs inside the timed runs.
// It measures the workload once without instruments and once with them
// (exp.Hooks.Trace and Progress, a benchmark-owned memo, per-job spans
// for the daemon, and the CPU profiler) over the same operations,
// reporting the difference as the tracing overhead. Then it attributes
// the workload's time to layers: from the CPU profile by package, and
// from replicas of the workload's cells driven through timed calls into
// the layers' exported functions.
func runTraced(cfg config) (*result, error) {
	t := newTracer()
	var res *result
	var err error
	if cfg.workload == "daemon" {
		res, err = traceDaemon(cfg, t)
	} else {
		res, err = traceSim(cfg, t)
	}
	if err != nil {
		return nil, err
	}
	res.set("trace.spans", float64(len(t.spans)), "count")
	return res, writeTrace(cfg, t, res)
}

// traceSim runs the untraced and traced regenerations of a simulation
// workload, then its replica.
func traceSim(cfg config, t *tracer) (*result, error) {
	id := workloads[cfg.workload]
	res := newResult()
	check, err := newDigestCheck(cfg.workload)
	if err != nil {
		return nil, err
	}
	regen := func(seed int64, memo *sweep.Memo, hooks exp.Hooks) float64 {
		res.Attempted++
		start := time.Now()
		reg, err := regenerate(id, seed, memo, hooks)
		secs := time.Since(start).Seconds()
		if err == nil {
			err = check.verify(seed, reg.digest)
		}
		if err != nil {
			res.fail("%v", err)
		}
		return secs
	}
	regen(warmupSeed, sweep.NewMemo(0), exp.Hooks{})

	var plain []float64
	t0 := time.Now()
	for j := 0; j == 0 || (!cfg.tiny && time.Since(t0).Seconds() < cfg.seconds/3); j++ {
		plain = append(plain, regen(expSeed(cfg.workload, cfg.seed, j), sweep.NewMemo(0), exp.Hooks{}))
	}

	var traced, cells []float64
	var hits, lookups int64
	err = profiled(res, func() error {
		for j := range plain {
			runID := fmt.Sprintf("%s-%d", id, j)
			memo := sweep.NewMemo(0)
			tr := obs.NewTrace(obs.DefaultCapacity)
			hooks := exp.Hooks{Trace: tr, Progress: func(_, _ int, cellSeconds float64) {
				cells = append(cells, cellSeconds*1000)
			}}
			root := len(t.spans)
			t.begin("exp.run", runID, true)
			traced = append(traced, regen(expSeed(cfg.workload, cfg.seed, j), memo, hooks))
			t.end()
			t.addView(tr.View(), root, runID)
			hits += memo.Hits()
			lookups += memo.Hits() + memo.Computes()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.set("trace.overhead_ms", (sum(traced)-sum(plain))/float64(len(plain))*1000, "ms")
	res.set("sweep.cells", float64(len(cells)), "count")
	res.set("sweep.cell_p50_ms", quantile(cells, 0.5), "ms")
	res.set("sweep.cell_max_ms", quantile(cells, 1), "ms")
	res.set("sweep.memo_hits", float64(hits), "count")
	res.set("sweep.memo_lookups", float64(lookups), "count")
	res.set("sweep.memo_hit_ratio", ratio(float64(hits), float64(lookups)), "ratio")

	seed0 := expSeed(cfg.workload, cfg.seed, 0)
	rep, err := replicateTwice(res, t, cfg.workload, func(r *replica) error {
		switch cfg.workload {
		case "energy":
			return r.energy(seed0, cfg.tiny)
		case "tail":
			return r.tail(seed0, cfg.tiny)
		default:
			return r.vmday(seed0, cfg.tiny)
		}
	})
	if err != nil {
		return nil, err
	}
	// The drain probe runs on the machine each workload's daemon manages.
	var kcfg kernel.Config
	var footprint int64
	switch cfg.workload {
	case "energy":
		prof := evalApps()[0]
		kcfg = kernel.Config{TotalBytes: 64 << 30, PageBytes: 1 << 20, KernelReservedBytes: 1 << 30, Seed: seed0 + 41}
		footprint = min(prof.FootprintMB*int64(copiesFor(prof)), 48<<10) << 20
	case "tail":
		kcfg = kernel.Config{TotalBytes: 64 << 30, PageBytes: 1 << 20, KernelReservedBytes: 1 << 30, Seed: seed0}
		footprint = min(firstLatencyCritical().FootprintMB, 8<<10) << 20
	default:
		kcfg = kernel.Config{TotalBytes: 256 << 30, PageBytes: 2 << 20, Seed: seed0 + 2}
		footprint = rep.UsedBytes
	}
	if err := layerMetrics(res, t, rep, kcfg, footprint); err != nil {
		return nil, err
	}
	serviceMetrics(res, nil, nil)
	res.set("store.wal_records", 0, "count")
	res.set("store.snapshots", 0, "count")
	res.set("store.append_us", 0, "us")
	res.set("store.replay_ms", 0, "ms")
	res.set("store.memo_imported", 0, "count")
	res.set("cluster.retries", 0, "count")
	return res, nil
}

func firstLatencyCritical() workload.Profile {
	for _, p := range workload.Datacenter() {
		if p.LatencyCritical {
			return p
		}
	}
	return workload.Profile{}
}

// replicateTwice runs a replica twice at one seed, tracing the first,
// and fails the run if any simulated count differs between the two.
func replicateTwice(res *result, t *tracer, id string, fn func(*replica) error) (counts, error) {
	first := &replica{t: t, id: id + "-replica"}
	if err := fn(first); err != nil {
		return counts{}, fmt.Errorf("replica: %w", err)
	}
	second := &replica{t: newTracer(), id: id + "-replica"}
	if err := fn(second); err != nil {
		return counts{}, fmt.Errorf("replica: %w", err)
	}
	res.Attempted++
	if first.c != second.c {
		res.fail("replica counts differ between two runs at one seed: %+v vs %+v", first.c, second.c)
	}
	return first.c, nil
}

// layerMetrics reports the simulator layers' metrics from a replica's
// counts and spans, and runs the kernel and hotplug drain probe.
//
// Which end-to-end metric each layer should move: sim (events, ns per
// event) moves wall_s on tail, then energy; mc and workload move wall_s
// on energy and tail; baseline moves wall_s on energy; power moves
// nothing (the bypass check); kernel, hotplug and core move the daemon's
// job latency and wall_s on vmday; ksm and vmtrace move wall_s on vmday.
// Everywhere else a layer's metrics are predicted flat.
func layerMetrics(res *result, t *tracer, c counts, kcfg kernel.Config, footprint int64) error {
	run := t.stats("sim.run")
	res.set("sim.events", float64(c.Events), "count")
	res.set("sim.ns_per_event", ratio(float64(run.Total), float64(c.Events)), "ns")
	res.set("mc.requests", float64(c.MCRequests), "count")
	res.set("mc.row_hits", float64(c.MCRowHits), "count")
	res.set("mc.row_accesses", float64(c.MCAccesses), "count")
	res.set("mc.row_hit_ratio", ratio(float64(c.MCRowHits), float64(c.MCAccesses)), "ratio")
	res.set("mc.refreshes", float64(c.MCRefreshes), "count")
	res.set("mc.wakeups", float64(c.MCWakeups), "count")
	res.set("mc.submit_ns", t.perCall("mc.submit", time.Nanosecond), "ns")
	res.set("baseline.scans", float64(c.Scans), "count")
	res.set("baseline.scan_ms", t.perCall("baseline.scan", time.Millisecond), "ms")
	res.set("power.evals", float64(c.PowerEvals), "count")
	res.set("power.eval_us", t.perCall("power.eval", time.Microsecond), "us")
	res.set("workload.complete_ns", t.perCall("workload.complete", time.Nanosecond), "ns")
	res.set("workload.ops_served", float64(c.OpsServed), "count")
	res.set("ksm.pages_scanned", float64(c.KSMScanned), "count")
	res.set("ksm.merges", float64(c.KSMMerges), "count")
	res.set("ksm.merge_ratio", ratio(float64(c.KSMMerges), float64(c.KSMScanned)), "ratio")
	res.set("ksm.ns_per_page", ratio(float64(t.stats("ksm.scan_chunk").self()), float64(c.KSMScanned)), "ns")
	res.set("core.ticks", float64(c.CoreTicks), "count")
	res.set("core.tick_us", t.perCall("core.tick", time.Microsecond), "us")
	res.set("core.offlines", float64(c.CoreOfflines), "count")
	res.set("core.failures", float64(c.CoreFailures), "count")

	d, err := drainProbe(t, "drain-probe", kcfg, 1<<30, footprint)
	if err != nil {
		return fmt.Errorf("drain probe: %w", err)
	}
	res.set("kernel.alloc_calls", float64(d.AllocCalls), "count")
	res.set("kernel.alloc_us", t.perCall("kernel.alloc", time.Microsecond), "us")
	res.set("kernel.alloc_failures", float64(d.AllocFailures), "count")
	res.set("kernel.migrations", float64(d.Migrations), "count")
	res.set("hotplug.offline_attempts", float64(d.OfflineAttempts), "count")
	res.set("hotplug.failures", float64(d.Failures), "count")
	res.set("hotplug.failure_ratio", ratio(float64(d.Failures), float64(d.OfflineAttempts)), "ratio")
	res.set("hotplug.onlines", float64(d.Onlines), "count")
	res.set("hotplug.offline_us", t.perCall("hotplug.offline", time.Microsecond), "us")
	return nil
}

// serviceMetrics reports the server layer from the traced window's jobs
// (none for a simulation workload).
func serviceMetrics(res *result, jobs []jobRecord, refused *int64) {
	var queue, execute, overhead []float64
	hits := 0
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if j.view.Cached {
			hits++
			continue
		}
		v := j.view
		queue = append(queue, v.QueueWaitMS)
		server := v.FinishedAt.Sub(v.SubmittedAt)
		execute = append(execute, float64(v.FinishedAt.Sub(*v.StartedAt))/float64(time.Millisecond))
		overhead = append(overhead, float64(j.latency()-server)/float64(time.Millisecond))
	}
	res.set("server.queue_wait_ms", quantile(queue, 0.5), "ms")
	res.set("server.execute_ms", quantile(execute, 0.5), "ms")
	res.set("server.overhead_ms", quantile(overhead, 0.5), "ms")
	res.set("server.jobs", float64(len(jobs)), "count")
	res.set("server.cache_hits", float64(hits), "count")
	res.set("server.cache_hit_ratio", ratio(float64(hits), float64(len(jobs))), "ratio")
	n := int64(0)
	if refused != nil {
		n = *refused
	}
	res.set("server.refused", float64(n), "count")
}

// traceDaemon runs the daemon mix untraced and traced, records per-job
// spans, scrapes /metrics around the traced window, replays the window's
// journal operations into a fresh store and replicates one fresh VM job.
func traceDaemon(cfg config, t *tracer) (*result, error) {
	res := newResult()
	dr, err := prepareDaemon(cfg, res)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	res.set("store.memo_imported", float64(dr.d.srv.MemoImported()), "count")
	tally(res, "warm-up", dr.mix.runPool(ctx, dr.pool))
	maxCycles := math.MaxInt
	if cfg.tiny {
		maxCycles = 1
	}
	window := time.Duration(cfg.seconds / 3 * float64(time.Second))
	plainJobs := dr.mix.runCycles(ctx, time.Now().Add(window), dr.pool, maxCycles)
	_, plain := tally(res, "untraced", plainJobs)

	before, err := scrape(dr.mix.hc, dr.d.base)
	if err != nil {
		return nil, err
	}
	refused0 := dr.mix.rt.refused.Load()
	var jobs []jobRecord
	dr.mix.traceJobs = true
	err = profiled(res, func() error {
		jobs = dr.mix.runCycles(ctx, time.Now().Add(window), dr.pool, maxCycles)
		return nil
	})
	dr.mix.traceJobs = false
	if err != nil {
		return nil, err
	}
	refused := dr.mix.rt.refused.Load() - refused0
	after, err := scrape(dr.mix.hc, dr.d.base)
	if err != nil {
		return nil, err
	}
	_, ran := tally(res, "traced", jobs)
	if refused > 0 {
		res.Attempted += int(refused)
		res.fail("%d submissions refused by the daemon", refused)
	}
	res.set("trace.overhead_ms", quantile(ran, 0.5)-quantile(plain, 0.5), "ms")
	var cells []float64
	var hashes []string // specs the daemon ran, in completion order
	seen := map[string]bool{}
	for _, j := range jobs {
		jobID := j.view.ID
		root := t.addSpan("job", jobID, -1, j.start, j.end)
		if j.err != nil || j.view.Cached {
			continue
		}
		if !seen[j.view.SpecHash] {
			seen[j.view.SpecHash] = true
			hashes = append(hashes, j.view.SpecHash)
		}
		v := j.view
		t.addSpan("server.queue_wait", jobID, root, v.SubmittedAt, *v.StartedAt)
		exec := t.addSpan("server.execute", jobID, root, *v.StartedAt, *v.FinishedAt)
		for _, s := range j.trace.Spans {
			if s.Name == "cell" {
				cells = append(cells, float64(s.DurNs)/1e6)
			}
		}
		t.addView(j.trace, exec, jobID)
	}
	serviceMetrics(res, jobs, &refused)
	res.set("sweep.cells", float64(len(cells)), "count")
	res.set("sweep.cell_p50_ms", quantile(cells, 0.5), "ms")
	res.set("sweep.cell_max_ms", quantile(cells, 1), "ms")
	memoHits := after["greendimm_memo_hits_total"] - before["greendimm_memo_hits_total"]
	memoLookups := memoHits + after["greendimm_memo_computes_total"] - before["greendimm_memo_computes_total"]
	res.set("sweep.memo_hits", memoHits, "count")
	res.set("sweep.memo_lookups", memoLookups, "count")
	res.set("sweep.memo_hit_ratio", ratio(memoHits, memoLookups), "ratio")
	res.set("cluster.retries", float64(dr.mix.counters.Retries.Load()), "count")

	if err := dr.d.close(); err != nil {
		return nil, err
	}
	dr.mix.closeIdle()
	if err := replayStore(res, t, dr.dir, hashes); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dr.dir); err != nil {
		return nil, err
	}

	vmSeed := derive(cfg.seed, 3, 0)
	rep, err := replicateTwice(res, t, "daemon", func(r *replica) error {
		return r.vmScenario(*vmSpec(vmSeed).VMServer)
	})
	if err != nil {
		return nil, err
	}
	kcfg := kernel.Config{TotalBytes: 256 << 30, PageBytes: 2 << 20, Seed: vmSeed}
	if err := layerMetrics(res, t, rep, kcfg, rep.UsedBytes); err != nil {
		return nil, err
	}
	return res, nil
}

// replayStore times store.Open on the daemon's journal, then replays the
// traced window's journal operations — Accept, PutCell, Finish for each
// spec the daemon ran — into a fresh store.
func replayStore(res *result, t *tracer, dir string, hashes []string) error {
	t.begin("store.open", "store-replay", true)
	src, err := store.Open(dir, store.Options{})
	took := t.end()
	if err != nil {
		return fmt.Errorf("reopening the daemon's store: %w", err)
	}
	defer src.Close()
	res.set("store.replay_ms", float64(took)/float64(time.Millisecond), "ms")
	freshDir := filepath.Join(filepath.Dir(dir), filepath.Base(dir)+"-replay")
	if err := os.RemoveAll(freshDir); err != nil {
		return err
	}
	dst, err := store.Open(freshDir, store.Options{})
	if err != nil {
		return err
	}
	step := func(name string, fn func() error) error {
		t.begin(name, "store-replay", false)
		err := fn()
		t.end()
		return err
	}
	for _, hash := range hashes {
		rec, ok := src.Get(hash)
		if !ok {
			continue // pruned from the journal since
		}
		cells, _ := src.Resume(hash)
		if err := step("store.append", func() error { return dst.Accept(hash, rec.Spec) }); err != nil {
			return err
		}
		for _, c := range cells {
			if err := step("store.append", func() error { return dst.PutCell(hash, c.Key, c.Value) }); err != nil {
				return err
			}
		}
		if err := step("store.append", func() error { return dst.Finish(hash, rec.State, rec.Err) }); err != nil {
			return err
		}
	}
	st := dst.Stats()
	if err := dst.Close(); err != nil {
		return err
	}
	res.set("store.wal_records", float64(st.Appends), "count")
	res.set("store.snapshots", float64(st.Snapshots), "count")
	res.set("store.append_us", t.perCall("store.append", time.Microsecond), "us")
	return os.RemoveAll(freshDir)
}

// scrape reads the daemon's /metrics, summing samples by metric name.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		name, _, _ := strings.Cut(f[0], "{")
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			out[name] += v
		}
	}
	return out, sc.Err()
}
