package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"greendimm/internal/core"
	"greendimm/internal/exp"
	"greendimm/internal/metrics"
	"greendimm/internal/obs"
	"greendimm/internal/store"
	"greendimm/internal/sweep"
)

// Submit errors; the HTTP layer maps them onto statuses (429, 503, 400).
var (
	// ErrQueueFull means the bounded queue rejected the job: the client
	// should back off and retry.
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining means the server is shutting down and accepts no work.
	ErrDraining = errors.New("server: shutting down")
)

// applyDefaultPolicy fills a vmserver spec's omitted policy with the
// configured default (Config.DefaultPolicy). It runs before
// normalization, so jobs submitted without a policy hash — and journal,
// and cache — as jobs FOR the default policy. The scenario is copied,
// never mutated: the caller's spec stays as written.
func (s *Server) applyDefaultPolicy(spec JobSpec) JobSpec {
	if s.cfg.DefaultPolicy == nil || spec.VMServer == nil || !spec.VMServer.Policy.IsZero() {
		return spec
	}
	sc := *spec.VMServer
	sc.Policy = *s.cfg.DefaultPolicy
	spec.VMServer = &sc
	return spec
}

// InvalidSpecError reports a spec that failed validation.
type InvalidSpecError struct{ Err error }

func (e *InvalidSpecError) Error() string { return "server: invalid job spec: " + e.Err.Error() }
func (e *InvalidSpecError) Unwrap() error { return e.Err }

// JobState is a job's lifecycle state.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled" // client cancel or deadline
)

// terminal reports whether no further transitions can happen.
func (s JobState) terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Config tunes the service. Zero values take defaults.
type Config struct {
	// Workers is the pool size (default GOMAXPROCS). Each worker runs
	// one job at a time on that job's own engines; engines share
	// nothing, so jobs parallelize across cores.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs
	// (default 16). A full queue rejects submissions with ErrQueueFull.
	QueueDepth int
	// CacheEntries bounds the result cache (default 128, LRU).
	CacheEntries int
	// DefaultTimeout applies to jobs that don't set timeout_sec
	// (default 15m); MaxTimeout caps every job (default 2h).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxJobRecords bounds the in-memory job table: beyond it, the
	// oldest terminal records are forgotten (default 4096).
	MaxJobRecords int
	// CPUBudget is the total goroutine budget shared by the worker pool
	// and per-job sweep parallelism (default GOMAXPROCS). Each running
	// job always gets its own worker; any CPUBudget - Workers surplus
	// forms a shared slot pool that jobs requesting parallelism > 1
	// borrow extra sweep workers from. With the defaults (Workers ==
	// CPUBudget == GOMAXPROCS) there is no surplus and jobs degrade to
	// serial sweeps — the pool is already using every core.
	CPUBudget int

	// MemoEntries bounds the server-wide baseline-cell memo (default
	// 512 entries, LRU) that lets concurrent or successive jobs share
	// identical sweep cells (e.g. fig12 and fig13's common traced day).
	// It is also the only way a resumed or merged job replays its
	// completed cells (RunHooks.Cells); a job replays at most 45 keys
	// (the Figs. 9-11 energy matrix), so a smaller memo recomputes the
	// overflow: slower, same bytes.
	MemoEntries int

	// Memo, when non-nil, is the shared baseline-cell memo itself —
	// for callers (cmd/greendimmd) that must hand the same instance to
	// both the server and the cluster's warm-placement machinery. Nil
	// lets the server build one from MemoEntries via NewMemo.
	Memo *sweep.Memo

	// Runner is the execution function — a test seam (used by the
	// server's own tests and internal/cluster's fault-injection
	// backends); nil means runSpec (the real simulator). The pool fills
	// every RunHooks field; fake runners may ignore what they don't
	// need.
	Runner func(JobSpec, RunHooks) (*Result, error)

	// Overflow, when non-nil, places a job that the full queue turned
	// away on another node (cmd/greendimmd passes the cluster
	// Dispatcher's Overflow). Submit calls it synchronously, without the
	// server lock held. On success it returns the placed job's runner:
	// the job then takes an ordinary id and runs that runner on its own
	// goroutine, outside the worker pool, with the usual hooks. Stop
	// must abort the placed job. An error rejects the submission with
	// ErrQueueFull.
	Overflow func(JobSpec) (func(JobSpec, RunHooks) (*Result, error), error)

	// DefaultPolicy, when non-nil, is the block-selection pipeline
	// applied to vmserver specs that omit their policy field — the
	// operator's `-policy-config` default. It is filled in BEFORE
	// normalization, so the default is part of the job's identity (its
	// spec hash), not a hidden runtime knob: the same spec submitted to
	// daemons with different defaults is different jobs. Specs that name
	// a policy are untouched. Open validates it.
	DefaultPolicy *core.PolicySpec

	// StoreDir, when non-empty, enables the durable job store
	// (internal/store) in that directory: accepted jobs, their completed
	// sweep-cell artifacts and shard ranges are journaled, jobs left
	// non-terminal by a crash are re-enqueued at the next Open, a
	// resubmitted identical spec resumes from its journaled cells, and
	// Open warms the memo with every journaled cell (WarmMemo). Empty
	// keeps the server fully in-memory.
	StoreDir string
}

func (c Config) withDefaults() Config {
	c = c.resolved()
	if c.Runner == nil {
		c.Runner = c.baseRunner()
	}
	return c
}

// resolved fills numeric defaults and materializes the shared memo (with
// the experiment codec installed, so it can export/import entries).
func (c Config) resolved() Config {
	c = c.filled()
	if c.Memo == nil {
		c.Memo = c.NewMemo()
	} else {
		c.Memo.SetCodec(exp.MemoCodec())
	}
	return c
}

// NewMemo builds the baseline-cell memo this config implies: an
// LRU-bounded memo of MemoEntries entries with the experiment layer's
// entry codec installed. cmd/greendimmd calls this once and sets
// Config.Memo so the server, the shard runner and the cluster's
// warm-peer exchange all share one instance.
func (c Config) NewMemo() *sweep.Memo {
	c = c.filled()
	m := sweep.NewMemo(c.MemoEntries)
	m.SetCodec(exp.MemoCodec())
	return m
}

// filled resolves every numeric default, leaving Runner untouched.
func (c Config) filled() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 15 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Hour
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 4096
	}
	if c.CPUBudget <= 0 {
		c.CPUBudget = runtime.GOMAXPROCS(0)
	}
	if c.MemoEntries <= 0 {
		c.MemoEntries = 512
	}
	return c
}

// baseRunner builds the in-process execution function: runSpec under a
// fresh sweep limiter and the config's shared memo. Call on a resolved
// config.
func (c Config) baseRunner() func(JobSpec, RunHooks) (*Result, error) {
	// Extra sweep workers (beyond each job's own pool worker) draw
	// from the budget left over after the worker pool is staffed.
	limiter := sweep.NewLimiter(c.CPUBudget - c.Workers)
	// One memo across all jobs: distinct specs still share their
	// common baseline cells (result-neutral; see exp.Options.Memo).
	memo := c.Memo
	return func(spec JobSpec, h RunHooks) (*Result, error) {
		return runSpec(spec, h, limiter, memo)
	}
}

// BaseRunner returns the execution function this config would install
// when Runner is nil — for callers (cmd/greendimmd) that compose a
// wrapper, e.g. the cluster's shard runner, around the real simulator
// while keeping the config's limiter/memo sizing. Callers that also
// pass the config to Open should set Config.Memo (NewMemo) first, so
// the wrapper and the server share one memo instead of building two.
func (c Config) BaseRunner() func(JobSpec, RunHooks) (*Result, error) {
	return c.resolved().baseRunner()
}

// job is the internal record; jobView snapshots it for clients.
type job struct {
	id        string
	hash      string
	spec      JobSpec
	state     JobState
	cached    bool
	errMsg    string
	result    *Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	trace     *obs.Trace // lifecycle spans; never nil for executed jobs

	// Sweep-cell progress, written by the runner's Progress hook while
	// the job executes and read by view/snapshot — atomics, because the
	// readers hold mu but the writer must not.
	cellsDone  atomic.Int64
	cellsTotal atomic.Int64

	// recovered marks a job re-enqueued from the durable store at boot;
	// resumedCells counts journaled artifacts handed to its run to
	// replay (atomic: written by runJob outside mu).
	recovered    bool
	resumedCells atomic.Int64

	// placed marks a job Config.Overflow placed on a peer: it runs on
	// its own goroutine and occupies no pool worker.
	placed bool

	cancelRequested bool
	cancel          context.CancelFunc // set while running
	done            chan struct{}      // closed on terminal state
}

// ProgressView reports how far a job's sweep has come: cells_done of
// cells_total completed. Jobs without an internal sweep (VM scenarios)
// never report progress.
type ProgressView struct {
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
}

// JobView is the JSON snapshot of a job returned by the API. Progress
// and QueueWaitMS are additive observability fields: like every field
// here other than Spec, they are excluded from the spec hash and so
// never influence caching or cluster merge fingerprints.
type JobView struct {
	ID          string        `json:"id"`
	SpecHash    string        `json:"spec_hash"`
	State       JobState      `json:"state"`
	Cached      bool          `json:"cached,omitempty"`
	Error       string        `json:"error,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	Progress    *ProgressView `json:"progress,omitempty"`
	QueueWaitMS float64       `json:"queue_wait_ms,omitempty"`
	// Recovered marks a job the daemon re-enqueued from its durable
	// store after a restart; ResumedCells counts the journaled sweep
	// cells its execution replayed instead of re-simulating.
	Recovered    bool    `json:"recovered,omitempty"`
	ResumedCells int     `json:"resumed_cells,omitempty"`
	Spec         JobSpec `json:"spec"`
	Result       *Result `json:"result,omitempty"`
}

// counters aggregates service activity for /metrics. Guarded by Server.mu.
type counters struct {
	submitted        int64
	succeeded        int64
	failed           int64
	canceled         int64
	rejectedFull     int64
	rejectedInvalid  int64
	rejectedDraining int64
	cacheHits        int64
	cacheMisses      int64
	simSecondsSum    float64 // over succeeded jobs
	recovered        int64   // jobs re-enqueued from the store at boot
	resumedCells     int64   // journaled cells replayed across all runs
}

type cacheEntry struct {
	hash string
	res  *Result
}

// Server is the simulation service: Submit feeds the queue, Workers drain
// it, results land in the LRU cache. All methods are safe for concurrent
// use.
type Server struct {
	cfg Config

	baseCtx   context.Context // parent of every job context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	seq      int64
	jobs     map[string]*job
	order    []string // insertion order, for listing and record pruning
	queue    chan *job
	draining bool
	ctr      counters
	cache    map[string]*list.Element
	lru      *list.List // front = most recent; values are cacheEntry

	// Latency histograms, lock-free (observed outside mu). Buckets span
	// 1ms..1h, 3 per decade — wide enough for quick CI specs and full
	// paper sweeps alike.
	histWall  *metrics.Histogram // executed jobs' wall time (all outcomes)
	histQueue *metrics.Histogram // queue wait, submit → execution start
	histCell  *metrics.Histogram // individual sweep-cell wall time

	// store is the durable job journal (nil without Config.StoreDir).
	// It has its own lock; journaling failures never fail a job — they
	// only bump storeErrs (the job loses durability, not correctness).
	store     *store.Store
	storeErrs atomic.Int64

	// memoImported counts the journaled cells that Open installed in the
	// memo after codec verification, so a restarted daemon boots warm;
	// memoPeerFetch counts entries pulled from warm cluster peers
	// (reported via NotePeerMemoFetch).
	memoImported  int64
	memoPeerFetch atomic.Int64

	wg sync.WaitGroup
}

// New starts a server with cfg's worker pool. Call Shutdown to stop it.
// It panics if cfg.StoreDir is set and the store cannot open; servers
// that want the error use Open.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open starts a server with cfg's worker pool. When cfg.StoreDir is
// set, it opens (recovering if needed) the durable job store, warms the
// memo with every cell the store retains, and re-enqueues every job a
// previous process left non-terminal, marked Recovered, before the
// first worker starts. Call Shutdown to stop.
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.DefaultPolicy != nil {
		norm, err := cfg.DefaultPolicy.Normalized()
		if err != nil {
			return nil, fmt.Errorf("server: default policy: %w", err)
		}
		cfg.DefaultPolicy = &norm
	}
	var st *store.Store
	var pending []store.Record
	var memoImported int64
	if cfg.StoreDir != "" {
		var err error
		st, err = store.Open(cfg.StoreDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("server: opening job store: %w", err)
		}
		pending = st.Pending()
		// Importing before the first worker starts means even the
		// recovered jobs re-enqueued below run against a warm memo.
		memoImported = int64(WarmMemo(cfg.Memo, st))
	}
	// The queue must absorb every recovered job without blocking boot.
	qcap := cfg.QueueDepth
	if len(pending) > qcap {
		qcap = len(pending)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		baseCtx:      ctx,
		cancelAll:    cancel,
		jobs:         make(map[string]*job),
		queue:        make(chan *job, qcap),
		cache:        make(map[string]*list.Element),
		lru:          list.New(),
		histWall:     metrics.NewLogHistogram(0.001, 3600, 3),
		histQueue:    metrics.NewLogHistogram(0.001, 3600, 3),
		histCell:     metrics.NewLogHistogram(0.001, 3600, 3),
		store:        st,
		memoImported: memoImported,
	}
	for _, rec := range pending {
		s.recoverJob(rec)
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// recoverJob re-enqueues one journaled non-terminal record at boot
// (workers are not running yet, so no lock ordering issues). A record
// whose spec no longer validates or hashes differently — schema drift
// across versions — is closed out as failed rather than run wrong.
func (s *Server) recoverJob(rec store.Record) {
	fail := func(msg string) {
		if err := s.store.Finish(rec.Hash, store.StateFailed, msg); err != nil {
			s.storeErrs.Add(1)
		}
	}
	var spec JobSpec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		fail("recovery: unreadable journaled spec: " + err.Error())
		return
	}
	norm, err := spec.normalized()
	if err != nil {
		fail("recovery: journaled spec no longer valid: " + err.Error())
		return
	}
	hash, err := norm.hash()
	if err != nil || hash != rec.Hash {
		fail("recovery: journaled spec no longer hashes to its record")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := &job{
		id:        s.newID(),
		hash:      hash,
		spec:      norm,
		state:     StateQueued,
		submitted: time.Now(),
		recovered: true,
		trace:     obs.NewTrace(obs.DefaultCapacity),
		done:      make(chan struct{}),
	}
	j.trace.Mark("recovered", fmt.Sprintf("journaled_cells=%d", rec.CellCount))
	s.queue <- j // capacity sized for every pending record above
	s.ctr.recovered++
	s.record(j)
}

// Submit validates, cache-checks and enqueues one job. It returns the
// job's snapshot: state "succeeded" with Cached set when the result came
// from the cache, "queued" otherwise, or "running" when the queue was
// full and Config.Overflow placed the job on a peer. Errors:
// *InvalidSpecError, ErrQueueFull, ErrDraining.
func (s *Server) Submit(spec JobSpec) (JobView, error) {
	spec = s.applyDefaultPolicy(spec)
	norm, err := spec.normalized()
	if err == nil {
		_, err = norm.hash()
	}
	if err != nil {
		s.mu.Lock()
		s.ctr.rejectedInvalid++
		s.mu.Unlock()
		return JobView{}, &InvalidSpecError{Err: err}
	}
	hash, _ := norm.hash()
	j := &job{hash: hash, spec: norm, submitted: time.Now(), done: make(chan struct{})}
	v, err := s.enqueue(j)
	if errors.Is(err, ErrQueueFull) && s.cfg.Overflow != nil {
		return s.overflow(j)
	}
	return v, err
}

// enqueue serves j from the cache or queues it. A full queue counts as
// a rejection here only without an Overflow hook; with one, overflow
// decides.
func (s *Server) enqueue(j *job) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.ctr.rejectedDraining++
		return JobView{}, ErrDraining
	}
	if res, ok := s.cacheGet(j.hash); ok {
		j.id = s.newID()
		s.ctr.submitted++
		s.ctr.cacheHits++
		j.state = StateSucceeded
		j.cached = true
		j.result = res
		j.started, j.finished = j.submitted, j.submitted
		// Cache hits get a minimal trace: one mark, so the trace endpoint
		// answers for every job id and shows why there is no execute span.
		j.trace = obs.NewTrace(1)
		j.trace.Mark("cache_hit", "")
		close(j.done)
		s.record(j)
		return s.view(j, true), nil
	}
	j.state = StateQueued
	j.trace = obs.NewTrace(obs.DefaultCapacity)
	select {
	case s.queue <- j: // the worker that takes j waits for mu, so admit's id lands first
	default:
		if s.cfg.Overflow == nil {
			s.ctr.rejectedFull++
		}
		return JobView{}, ErrQueueFull
	}
	s.admit(j)
	return s.view(j, false), nil
}

// overflow places j, which the full queue turned away, through
// Config.Overflow. Placement is a network round trip, so it runs without
// mu, and j takes its id only once placed. The placed job runs on its
// own goroutine, outside the worker pool.
func (s *Server) overflow(j *job) (JobView, error) {
	run, err := s.cfg.Overflow(j.spec)
	s.mu.Lock()
	switch {
	case err != nil:
		s.ctr.rejectedFull++
		s.mu.Unlock()
		return JobView{}, ErrQueueFull
	case s.draining:
		// Shutdown began during placement. The job is refused, so its
		// placed copy is aborted through the runner's Stop; the outcome
		// of that aborted run has no reader.
		s.ctr.rejectedDraining++
		s.mu.Unlock()
		_, _ = run(j.spec, RunHooks{Stop: func() bool { return true }})
		return JobView{}, ErrDraining
	}
	defer s.mu.Unlock()
	j.placed = true
	s.admit(j)
	ctx := s.start(j)
	s.wg.Add(1) // under mu while not draining, so Shutdown waits for it
	go func() {
		defer s.wg.Done()
		s.execute(ctx, j, run)
	}()
	return s.view(j, false), nil
}

// newID takes the next job id. Caller holds mu.
func (s *Server) newID() string {
	s.seq++
	return fmt.Sprintf("j%06d", s.seq)
}

// admit gives j, accepted for execution, its id, then counts, records
// and journals it. Caller holds mu.
func (s *Server) admit(j *job) {
	j.id = s.newID()
	s.ctr.submitted++
	s.ctr.cacheMisses++
	s.record(j)
	if s.store != nil {
		// Journal the full normalized spec (knobs included) so a crashed
		// daemon re-runs the job exactly as submitted. A re-accepted hash
		// keeps its journaled cells: resubmission resumes.
		if b, err := json.Marshal(j.spec); err == nil {
			if err := s.store.Accept(j.hash, b); err != nil {
				s.storeErrs.Add(1)
			}
		}
	}
}

// record indexes a job and prunes the oldest terminal records beyond the
// table bound. Caller holds mu.
func (s *Server) record(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) <= s.cfg.MaxJobRecords {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxJobRecords
	for _, id := range s.order {
		if excess > 0 {
			if old, ok := s.jobs[id]; ok && old.state.terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// worker executes queued jobs until the queue closes (Shutdown) — which
// drains every queued job before the worker exits.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one queued job on the calling pool worker.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	ctx := s.start(j)
	s.mu.Unlock()
	s.execute(ctx, j, s.cfg.Runner)
}

// start moves j to running under its deadline context. Caller holds mu.
func (s *Server) start(j *job) context.Context {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.timeout(j.spec))
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return ctx
}

// timeout is a job's deadline: its timeout_sec, else the default, capped
// at MaxTimeout.
func (s *Server) timeout(spec JobSpec) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutSec > 0 {
		timeout = time.Duration(spec.TimeoutSec * float64(time.Second))
	}
	return min(timeout, s.cfg.MaxTimeout)
}

// execute runs a started job through runner and records the outcome.
func (s *Server) execute(ctx context.Context, j *job, runner func(JobSpec, RunHooks) (*Result, error)) {
	// Queue wait is an after-the-fact span: the interval from submission
	// to the job starting (for a placed job, the placement round trip).
	qw := j.started.Sub(j.submitted)
	j.trace.Add("queue_wait", "", j.submitted, qw, nil)
	s.histQueue.Observe(qw.Seconds())

	// The stop predicate is the cancel check the engines' event loops
	// poll: deadline, client cancel and shutdown-force all flow through
	// this one context. Trace and Progress write through lock-free /
	// atomic paths, so the running job never touches s.mu.
	h := RunHooks{
		Stop:  func() bool { return ctx.Err() != nil },
		Trace: j.trace,
		Progress: func(done, total int, cellSeconds float64) {
			j.cellsDone.Store(int64(done))
			j.cellsTotal.Store(int64(total))
			s.histCell.Observe(cellSeconds)
		},
	}
	if s.store != nil && !j.placed { // a placed job's cells live on the peer
		// Resume state: journaled cells replay through the memo instead
		// of re-simulating (codec-verified byte-exact), completed ranges
		// steer the shard planner past finished work, and cells and
		// ranges journal as they land; PutCell skips the cells the record
		// already holds. The store serializes its own writes;
		// CellObserved arrives from concurrent sweep cells.
		hash := j.hash
		cells, doneRanges := s.store.Resume(hash)
		h.Cells = artifacts(cells)
		j.resumedCells.Store(int64(len(cells)))
		h.CellObserved = func(a exp.CellArtifact) {
			if err := s.store.PutCell(hash, a.Key, a.Value); err != nil {
				s.storeErrs.Add(1)
			}
		}
		h.Ranges = &RangeLog{
			Done: doneRanges,
			OnPlan: func(total int, ranges [][2]int) {
				if err := s.store.Plan(hash, total, ranges); err != nil {
					s.storeErrs.Add(1)
				}
			},
			OnDone: func(lo, hi int) {
				if err := s.store.RangeDone(hash, lo, hi); err != nil {
					s.storeErrs.Add(1)
				}
			},
		}
	}
	sp := j.trace.Start("execute")
	res, err := runner(j.spec, h)
	sp.EndErr(err)
	wall := time.Since(j.started).Seconds()
	s.histWall.Observe(wall)
	ctxErr := ctx.Err()

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel()
	j.cancel = nil
	j.finished = time.Now()
	switch {
	case ctxErr != nil || j.cancelRequested:
		// The run may have been truncated mid-simulation; its partial
		// result is meaningless, so it is dropped even if the runner
		// reported success. (Its completed cells are journaled and will
		// be resumed — the artifacts are individually complete even when
		// the run is not.)
		j.state = StateCanceled
		switch {
		case errors.Is(ctxErr, context.DeadlineExceeded):
			j.errMsg = fmt.Sprintf("deadline exceeded after %s", s.timeout(j.spec))
		case err != nil && !errors.Is(err, context.Canceled):
			j.errMsg = fmt.Sprintf("canceled: %v", err)
		default:
			j.errMsg = "canceled"
		}
		s.ctr.canceled++
		// Only a deliberate cancel — client request or the job's own
		// deadline — closes the journal record. A forced shutdown
		// (base context canceled with no cancel request) leaves it
		// non-terminal on purpose: that is the crash marker boot
		// recovery looks for.
		if j.cancelRequested || errors.Is(ctxErr, context.DeadlineExceeded) {
			s.storeFinish(j.hash, store.StateCanceled, j.errMsg)
		}
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
		s.ctr.failed++
		s.storeFinish(j.hash, store.StateFailed, j.errMsg)
	default:
		res.WallSeconds = wall
		j.state = StateSucceeded
		j.result = res
		s.ctr.succeeded++
		s.ctr.simSecondsSum += res.SimSeconds
		s.ctr.resumedCells += j.resumedCells.Load()
		s.cachePut(j.hash, res)
		s.storeFinish(j.hash, store.StateMerged, "")
	}
	close(j.done)
}

// storeFinish journals a terminal state, if a store is attached. Caller
// may hold mu; the store has its own lock and never calls back.
func (s *Server) storeFinish(hash string, st store.State, errMsg string) {
	if s.store == nil {
		return
	}
	if err := s.store.Finish(hash, st, errMsg); err != nil {
		s.storeErrs.Add(1)
	}
}

// cacheGet looks up and refreshes a cached result. Caller holds mu.
func (s *Server) cacheGet(hash string) (*Result, bool) {
	el, ok := s.cache[hash]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(cacheEntry).res, true
}

// cachePut stores a result, evicting the least-recently-used entry past
// capacity. Caller holds mu.
func (s *Server) cachePut(hash string, res *Result) {
	if el, ok := s.cache[hash]; ok {
		s.lru.MoveToFront(el)
		el.Value = cacheEntry{hash: hash, res: res}
		return
	}
	s.cache[hash] = s.lru.PushFront(cacheEntry{hash: hash, res: res})
	for s.lru.Len() > s.cfg.CacheEntries {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.cache, oldest.Value.(cacheEntry).hash)
	}
}

// view snapshots a job. Caller holds mu.
func (s *Server) view(j *job, includeResult bool) JobView {
	v := JobView{
		ID:          j.id,
		SpecHash:    j.hash,
		State:       j.state,
		Cached:      j.cached,
		Error:       j.errMsg,
		SubmittedAt: j.submitted,
		Spec:        j.spec,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	if total := j.cellsTotal.Load(); total > 0 {
		v.Progress = &ProgressView{
			CellsDone:  int(j.cellsDone.Load()),
			CellsTotal: int(total),
		}
	}
	if !j.started.IsZero() && !j.cached {
		v.QueueWaitMS = float64(j.started.Sub(j.submitted)) / float64(time.Millisecond)
	}
	v.Recovered = j.recovered
	v.ResumedCells = int(j.resumedCells.Load())
	if includeResult && j.state == StateSucceeded {
		v.Result = j.result
	}
	return v
}

// Get returns a job's snapshot, including its result once succeeded.
func (s *Server) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return s.view(j, true), true
}

// ListQuery filters and paginates List. The zero query selects every
// retained job.
type ListQuery struct {
	// Status, when non-empty, keeps only jobs in that state.
	Status JobState
	// Recovered keeps only jobs the daemon re-enqueued from its durable
	// store at boot (any state). Composes with Status.
	Recovered bool
	// Limit bounds the page size (0 = no bound); Offset skips that many
	// matching jobs first. Both apply after the Status filter, over the
	// deterministic submission order.
	Limit  int
	Offset int
}

// List returns retained jobs in submission order, without results,
// after applying q's filter and pagination. The second return is the
// total number of jobs matching the filter before pagination, so
// clients can page without racing a moving tail.
func (s *Server) List(q ListQuery) ([]JobView, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	matched := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok || (q.Status != "" && j.state != q.Status) || (q.Recovered && !j.recovered) {
			continue
		}
		matched = append(matched, j)
	}
	total := len(matched)
	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			matched = nil
		} else {
			matched = matched[q.Offset:]
		}
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	out := make([]JobView, 0, len(matched))
	for _, j := range matched {
		out = append(out, s.view(j, false))
	}
	return out, total
}

// Trace returns a job's trace snapshot — safe while the job is still
// running (only fully-published spans appear) — and whether the id
// exists.
func (s *Server) Trace(id string) (obs.TraceView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return obs.TraceView{}, false
	}
	return j.trace.View(), true
}

// Cancel cancels a queued or running job. It reports the job's snapshot
// after the request and whether the id exists. Cancelling a terminal job
// is a no-op.
func (s *Server) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		j.state = StateCanceled
		j.errMsg = "canceled before start"
		j.finished = time.Now()
		s.ctr.canceled++
		s.storeFinish(j.hash, store.StateCanceled, j.errMsg)
		close(j.done)
	case StateRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel() // the engine's stop check fires within its stride
		}
	}
	return s.view(j, true), true
}

// Wait blocks until the job reaches a terminal state or ctx is done, then
// returns the snapshot.
func (s *Server) Wait(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("server: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	v, _ := s.Get(id)
	return v, nil
}

// RetryAfterHint suggests, in whole seconds, how long a client rejected
// with ErrQueueFull should wait before resubmitting: the p90 of
// executed-job wall time (a queue slot frees roughly once per job, and
// the tail — not the mean — is what keeps slots occupied), clamped to
// [1, MaxRetryAfterS]. Before any job has executed it returns 1.
func (s *Server) RetryAfterHint() int {
	hint := int(math.Ceil(s.histWall.Quantile(0.9)))
	return min(max(hint, 1), MaxRetryAfterS)
}

// MaxRetryAfterS bounds, in seconds, the retry hint a daemon sends with
// a 429 (RetryAfterHint) and the hint a cluster client honors from a
// peer.
const MaxRetryAfterS = 60

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown stops accepting jobs and drains the pool: queued and running
// jobs finish normally. If ctx expires first, every remaining job context
// is canceled (the engines abort at their next stop-check poll) and
// Shutdown waits for the workers to exit, returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: Shutdown called twice")
	}
	s.draining = true
	close(s.queue) // Submit rejects before sending once draining is set
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.closeStore()
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done
		// Jobs the forced stop interrupted were deliberately NOT marked
		// terminal in the store: closing it now leaves them journaled as
		// accepted, so the next Open re-enqueues them — the in-process
		// equivalent of a crash, which the recovery tests exploit.
		s.closeStore()
		return ctx.Err()
	}
}

// closeStore releases the job store after the workers have exited.
func (s *Server) closeStore() {
	if s.store == nil {
		return
	}
	if err := s.store.Close(); err != nil {
		s.storeErrs.Add(1)
	}
}

// Memo returns the server's shared baseline-cell memo — the instance
// the memo-exchange endpoints serve and the cluster's warm machinery
// scores against.
func (s *Server) Memo() *sweep.Memo { return s.cfg.Memo }

// MemoImported reports how many journaled cells the boot import
// installed in the memo — the warm-restart tests' zero-recompute
// witness.
func (s *Server) MemoImported() int64 { return s.memoImported }

// WarmMemo imports every cell the job journal st retains into m and
// reports how many it installed. Import codec-verifies each cell, so a
// stale or corrupt one degrades to recomputation. The journal keys
// cells by fingerprint alone, so the memo is warm for any spec that
// shares a cell, not only the spec that journaled it.
func WarmMemo(m *sweep.Memo, st *store.Store) int {
	return importCells(m, artifacts(st.Cells()))
}

// artifacts converts journaled cells to the artifacts a run replays.
func artifacts(cells []store.Cell) []exp.CellArtifact {
	out := make([]exp.CellArtifact, len(cells))
	for i, c := range cells {
		out[i] = exp.CellArtifact(c)
	}
	return out
}

// NotePeerMemoFetch records n memo entries pulled from warm cluster
// peers, for /metrics. The cluster layer calls it (via the wiring in
// cmd/greendimmd) because the fetch happens outside the server.
func (s *Server) NotePeerMemoFetch(n int64) { s.memoPeerFetch.Add(n) }

// stats is one consistent snapshot for /metrics.
type stats struct {
	counters
	queueDepth  int
	queueCap    int
	workers     int
	busyWorkers int
	cacheSize   int
	byState     map[JobState]int
	draining    bool
	// In-flight sweep progress summed over running jobs, so Prometheus
	// can plot a fleet's completion fraction without polling each job.
	cellsDoneRunning  int64
	cellsTotalRunning int64
	// Durable-store accounting (store nil when disabled).
	store     *store.Stats
	storeErrs int64
	// Baseline-cell memo accounting.
	memoEntries   int
	memoHits      int64
	memoComputes  int64
	memoEvictions int64
	memoImports   int64
	memoPeerFetch int64
}

func (s *Server) snapshot() stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := stats{
		counters:   s.ctr,
		queueDepth: len(s.queue),
		queueCap:   s.cfg.QueueDepth,
		workers:    s.cfg.Workers,
		cacheSize:  len(s.cache),
		draining:   s.draining,
		byState: map[JobState]int{
			StateQueued: 0, StateRunning: 0, StateSucceeded: 0, StateFailed: 0, StateCanceled: 0,
		},
	}
	for _, j := range s.jobs {
		st.byState[j.state]++
		if j.state == StateRunning {
			if !j.placed {
				st.busyWorkers++
			}
			st.cellsDoneRunning += j.cellsDone.Load()
			st.cellsTotalRunning += j.cellsTotal.Load()
		}
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.store = &ss
	}
	st.storeErrs = s.storeErrs.Load()
	m := s.cfg.Memo
	st.memoEntries = m.Len()
	st.memoHits = m.Hits()
	st.memoComputes = m.Computes()
	st.memoEvictions = m.Evictions()
	st.memoImports = m.Imports()
	st.memoPeerFetch = s.memoPeerFetch.Load()
	return st
}
