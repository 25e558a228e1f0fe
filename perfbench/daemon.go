package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"greendimm/internal/cluster"
	"greendimm/internal/exp"
	"greendimm/internal/obs"
	"greendimm/internal/server"
)

// The daemon workload's shape. Two closed-loop clients share one HTTP
// transport of at most two connections. Each client works in cycles of
// cycleLen jobs: cycleVM fresh short VM scenarios, cycleExp fresh quick
// matrix experiments and the rest resubmissions drawn from a pool of
// poolSize finished specs — more than the server's 128-entry result
// cache, so some resubmissions miss it and fall through to the memo and
// the journal.
const (
	clients   = 2
	cycleLen  = 10
	cycleVM   = 3
	cycleExp  = 1
	poolSize  = 160
	setupRuns = 9
	// maxRecords bounds the daemon's retained job table (-max-records)
	// below what one window submits on any host, so the table, and with it
	// the daemon's memory, reaches its bound early in every run.
	maxRecords = 1024
	// vmHours keeps a fresh VM scenario short enough that the daemon's
	// initial drain through core, hotplug and kernel dominates its cost.
	vmHours = 0.05
	// matrixID is the fresh matrix experiment: a quick sweep whose every
	// cell journals to the job store and the memo log.
	matrixID = "tab3"
)

// Job kinds of the mix.
const (
	kindVM = iota
	kindExp
	kindResubmit
)

// derive maps (seed, stream, i) to a positive experiment seed, so that
// every input of the mix is a function of the workload seed alone.
func derive(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)<<40 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>12) + 1
}

func vmSpec(seed int64) server.JobSpec {
	return server.JobSpec{Kind: server.KindVMServer, VMServer: &exp.VMScenario{Hours: vmHours, GreenDIMM: true, Seed: seed}}
}

func matrixSpec(seed int64) server.JobSpec {
	return server.JobSpec{Kind: server.KindExperiment, Experiment: &server.ExperimentSpec{ID: matrixID, Quick: true, Seed: seed}}
}

// poolSpec is the i-th spec of the resubmission pool.
func poolSpec(seed int64, i int) server.JobSpec {
	if i%2 == 0 {
		return vmSpec(derive(seed, 1, i))
	}
	return matrixSpec(derive(seed, 1, i))
}

// daemon is one greendimmd instance wired as cmd/greendimmd wires it:
// server.Open with a durable store directory and the default memo, and
// its Handler on a loopback listener. Workers and CPU budget are fixed at
// parallelism rather than the machine's GOMAXPROCS, and the job table at
// maxRecords.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// openDaemon starts a daemon on dir and returns it once /healthz answers,
// with the time that took.
func openDaemon(dir string, hc *http.Client) (*daemon, time.Duration, error) {
	t := time.Now()
	cfg := server.Config{Workers: parallelism, CPUBudget: parallelism, MaxJobRecords: maxRecords, StoreDir: dir}
	cfg.Memo = cfg.NewMemo()
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, 0, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t), nil
			}
		}
		if time.Since(t) > 30*time.Second {
			_ = d.close() // the health failure is the error to report
			return nil, 0, fmt.Errorf("daemon on %s did not become healthy: %v", dir, err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close stops the listener, then drains the worker pool, and waits for
// both.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// refusalCounter counts responses that refuse a request — queue full or
// draining — before the client's retry logic sees them, so a refusal
// counts even when a retry later succeeds.
type refusalCounter struct {
	next    http.RoundTripper
	refused atomic.Int64
}

func (r *refusalCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.next.RoundTrip(req)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		r.refused.Add(1)
	}
	return resp, err
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	start, end time.Time
	view       server.JobView
	trace      obs.TraceView // the server's spans of the job, when traced
	err        error
}

func (j jobRecord) latency() time.Duration { return j.end.Sub(j.start) }

// mix drives one daemon from the two clients and checks every result: a
// spec's result bytes must be identical whether it was a fresh run, a
// cache hit or served after the restart.
type mix struct {
	seed     int64
	srv      *server.Server
	hc       *http.Client
	rt       *refusalCounter
	counters cluster.Counters
	clients  []*cluster.Client

	// fresh counts each client's fresh specs across runs, so that every
	// fresh job of an invocation is a new spec.
	fresh [clients]int

	// traceJobs makes each client fetch the server's trace of every job
	// it ran; set only between runs.
	traceJobs bool

	mu      sync.Mutex
	digests map[string]string // spec hash → result digest
}

func newMix(seed int64) *mix {
	rt := &refusalCounter{next: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	return &mix{seed: seed, rt: rt, hc: &http.Client{Transport: rt}, digests: map[string]string{}}
}

// attach points the clients at a daemon.
func (m *mix) attach(d *daemon) {
	m.srv = d.srv
	m.clients = m.clients[:0]
	for i := 0; i < clients; i++ {
		m.clients = append(m.clients, cluster.NewClient(d.base, cluster.ClientConfig{HTTP: m.hc, Counters: &m.counters}))
	}
}

func (m *mix) closeIdle() { m.hc.CloseIdleConnections() }

// do submits one spec and long-polls it to a terminal state.
func (m *mix) do(ctx context.Context, client int, spec server.JobSpec) jobRecord {
	rec := jobRecord{start: time.Now()}
	c := m.clients[client]
	v, err := c.Submit(ctx, spec)
	if err == nil && !v.Cached {
		v, err = c.Wait(ctx, v.ID)
	}
	rec.end, rec.view, rec.err = time.Now(), v, err
	if err == nil {
		rec.err = m.check(v)
		if m.traceJobs && !v.Cached {
			rec.trace, _ = m.srv.Trace(v.ID)
		}
	}
	return rec
}

// check verifies a terminal job view against the first result seen for
// its spec.
func (m *mix) check(v server.JobView) error {
	if v.State != server.StateSucceeded || v.Result == nil {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	r := *v.Result
	r.WallSeconds, r.SimSeconds = 0, 0 // execution accounting, not result bytes
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	d := fmt.Sprintf("%x", sha256.Sum256(b))
	m.mu.Lock()
	defer m.mu.Unlock()
	if first, ok := m.digests[v.SpecHash]; ok && first != d {
		return fmt.Errorf("job %s (spec %.12s): result digest %.12s differs from the first result %.12s", v.ID, v.SpecHash, d, first)
	}
	m.digests[v.SpecHash] = d
	return nil
}

// runPool submits the whole resubmission pool, split across the clients.
func (m *mix) runPool(ctx context.Context, n int) []jobRecord {
	out := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				out[c] = append(out[c], m.do(ctx, c, poolSpec(m.seed, i)))
			}
		}(c)
	}
	wg.Wait()
	return append(out[0], out[1]...)
}

// runCycles runs both clients' closed loops until the deadline (at least
// one cycle each) and returns every job.
func (m *mix) runCycles(ctx context.Context, deadline time.Time, pool int, maxCycles int) []jobRecord {
	jobs := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(derive(m.seed, 2, c)))
			kinds := make([]int, cycleLen)
			for i := range kinds {
				switch {
				case i < cycleVM:
					kinds[i] = kindVM
				case i < cycleVM+cycleExp:
					kinds[i] = kindExp
				default:
					kinds[i] = kindResubmit
				}
			}
			for n := 0; n == 0 || (n < maxCycles && time.Now().Before(deadline)); n++ {
				rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
				for _, k := range kinds {
					var spec server.JobSpec
					switch k {
					case kindVM:
						spec = vmSpec(derive(m.seed, 3+c, m.fresh[c]))
						m.fresh[c]++
					case kindExp:
						spec = matrixSpec(derive(m.seed, 3+c, m.fresh[c]))
						m.fresh[c]++
					default:
						spec = poolSpec(m.seed, rng.Intn(pool))
					}
					jobs[c] = append(jobs[c], m.do(ctx, c, spec))
				}
			}
		}(c)
	}
	wg.Wait()
	return append(jobs[0], jobs[1]...)
}

// daemonRun is the prepared daemon workload: a store populated by a
// first instance, a second instance opened on it, and the set-up times.
type daemonRun struct {
	dir    string
	mix    *mix
	d      *daemon
	setups []float64
	pool   int
}

// prepareDaemon runs the seed batch on a first instance and shuts it
// down, leaving a populated job journal and memo log; then it opens the
// daemon on that store setupRuns times, timing each open until /healthz
// answers, and keeps the last instance running.
func prepareDaemon(cfg config, res *result) (*daemonRun, error) {
	dr := &daemonRun{dir: filepath.Join(cfg.outDir, fmt.Sprintf("daemon-%d-%d", cfg.seed, os.Getpid())), mix: newMix(cfg.seed), pool: poolSize}
	if cfg.tiny {
		dr.pool = 8
	}
	if err := os.RemoveAll(dr.dir); err != nil {
		return nil, err
	}
	ctx := context.Background()
	first, _, err := openDaemon(dr.dir, dr.mix.hc)
	if err != nil {
		return nil, err
	}
	dr.mix.attach(first)
	for _, j := range dr.mix.runPool(ctx, dr.pool) {
		res.Attempted++
		if j.err != nil {
			res.fail("seed batch: %v", j.err)
		}
	}
	if err := first.close(); err != nil {
		return nil, fmt.Errorf("closing the seed-batch daemon: %w", err)
	}
	runs := setupRuns
	if cfg.tiny {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		d, took, err := openDaemon(dr.dir, dr.mix.hc)
		if err != nil {
			return nil, err
		}
		dr.setups = append(dr.setups, took.Seconds())
		if i < runs-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
			continue
		}
		dr.d = d
	}
	dr.mix.attach(dr.d)
	return dr, nil
}

// finish stops the daemon and removes its store.
func (dr *daemonRun) finish() error {
	err := dr.d.close()
	dr.mix.closeIdle()
	if rerr := os.RemoveAll(dr.dir); err == nil {
		err = rerr
	}
	return err
}

// tally checks a phase's jobs into res and splits client latencies (ms)
// into cache hits and jobs the server ran.
func tally(res *result, phase string, jobs []jobRecord) (hits, ran []float64) {
	for _, j := range jobs {
		res.Attempted++
		if j.err != nil {
			res.fail("%s: %v", phase, j.err)
			continue
		}
		ms := float64(j.latency()) / float64(time.Millisecond)
		if j.view.Cached {
			hits = append(hits, ms)
		} else {
			ran = append(ran, ms)
		}
	}
	return hits, ran
}

// runDaemon measures the daemon workload. After set-up, one untimed pass
// over the resubmission pool warms the restarted daemon's cache; then
// both clients run their cycles for the window.
func runDaemon(cfg config) (*result, error) {
	res := newResult()
	dr, err := prepareDaemon(cfg, res)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tally(res, "warm-up", dr.mix.runPool(ctx, dr.pool))
	refused0 := dr.mix.rt.refused.Load()

	maxCycles := math.MaxInt
	if cfg.tiny {
		maxCycles = 1
	}
	a0 := totalAlloc()
	t0 := time.Now()
	jobs := dr.mix.runCycles(ctx, t0.Add(time.Duration(cfg.seconds*float64(time.Second))), dr.pool, maxCycles)
	elapsed := time.Since(t0).Seconds()
	allocMB := float64(totalAlloc()-a0) / 1e6 / float64(len(jobs))
	hits, ran := tally(res, "timed", jobs)
	if n := dr.mix.rt.refused.Load() - refused0; n > 0 {
		res.Attempted += int(n)
		res.fail("%d submissions refused by the daemon", n)
	}
	if err := dr.finish(); err != nil {
		return nil, err
	}
	if len(hits) == 0 || len(ran) == 0 {
		return nil, fmt.Errorf("the mix produced %d cache hits and %d executed jobs; it needs both", len(hits), len(ran))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("setup_s", quantile(dr.setups, 0.5), "s")
	res.set("wall_s", quantile(ran, 0.5)/1000, "s")
	res.set("job_p50_ms", quantile(ran, 0.5), "ms")
	res.set("job_p90_ms", quantile(ran, 0.9), "ms")
	res.set("hit_p50_ms", quantile(hits, 0.5), "ms")
	res.set("hit_p90_ms", quantile(hits, 0.9), "ms")
	res.set("jobs_per_s", float64(len(jobs))/elapsed, "1/s")
	res.set("alloc_mb_per_op", allocMB, "MB")
	res.set("peak_rss_mb", rss, "MB")
	res.set("jobs", float64(len(jobs)), "count")
	res.set("cache_hits", float64(len(hits)), "count")
	return res, nil
}
