package workload

import (
	"fmt"

	"greendimm/internal/kernel"
	"greendimm/internal/metrics"
	"greendimm/internal/sim"
)

// Service models a latency-critical request/response application
// (CloudSuite data-caching / data-serving / web-serving): operations
// arrive open-loop at a Poisson rate and are served FIFO by one logical
// server whose per-operation work is a little compute plus a chain of
// dependent DRAM accesses. Response time = queueing + service, so any
// CPU stall the GreenDIMM daemon injects shows up in the tail — exactly
// the effect §6.2's tail-latency discussion is about.
type Service struct {
	eng *sim.Engine
	mem *kernel.Mem
	sub Submitter
	cfg ServiceConfig
	rng *sim.RNG

	// queue[qhead:] holds the arrival times of queued ops; the head
	// index (instead of re-slicing the front) lets the emptied buffer
	// reset and reuse its capacity, so steady-state arrivals stop
	// growing the backing array.
	queue      []sim.Time
	qhead      int
	busy       bool
	stallUntil sim.Time

	// The op in service (busy == true). Keeping per-op state here
	// instead of closing over it lets one bound completion handler
	// serve every access of every op.
	curArrival   sim.Time
	curRemaining int

	// Handlers bound once at construction; see Core.
	arriveFn func()
	serveFn  func()
	finishFn func()
	retryFn  func()

	served    int64
	arrived   int64
	latencies metrics.Distribution // response times, microseconds
	warmupCut sim.Time             // samples before this are dropped

	streamPage int64
}

// ServiceConfig tunes the service.
type ServiceConfig struct {
	Profile Profile
	Owner   uint32
	// OpsPerSec is the Poisson arrival rate.
	OpsPerSec float64
	// AccessesPerOp is the dependent DRAM-access chain length per op.
	AccessesPerOp int
	// ComputePerOp is the non-memory service time per op.
	ComputePerOp sim.Time
	// Warmup discards response samples before this time.
	Warmup sim.Time
	Seed   int64
	// SampleCap, when positive, bounds the retained response-time
	// samples (metrics.Distribution.SetCap): the buffer is preallocated
	// and long runs keep a deterministic decimated subset for
	// percentiles while Mean/N stay exact. Zero retains every sample.
	SampleCap int
}

// NewService allocates the profile's footprint and returns a stopped
// service; Start begins arrivals.
func NewService(eng *sim.Engine, mem *kernel.Mem, sub Submitter, cfg ServiceConfig) (*Service, error) {
	switch {
	case cfg.OpsPerSec <= 0:
		return nil, fmt.Errorf("workload: non-positive op rate")
	case cfg.AccessesPerOp <= 0:
		return nil, fmt.Errorf("workload: non-positive accesses per op")
	case cfg.ComputePerOp < 0:
		return nil, fmt.Errorf("workload: negative compute per op")
	}
	pages := (cfg.Profile.FootprintAt(0) + mem.PageBytes() - 1) / mem.PageBytes()
	if pages == 0 {
		pages = 1
	}
	if _, err := mem.AllocPages(pages, true, cfg.Owner); err != nil {
		return nil, fmt.Errorf("workload: service footprint: %w", err)
	}
	s := &Service{
		eng: eng, mem: mem, sub: sub, cfg: cfg,
		rng:       sim.NewRNG(cfg.Seed ^ 0x737663),
		warmupCut: eng.Now() + cfg.Warmup,
	}
	if cfg.SampleCap > 0 {
		s.latencies.SetCap(cfg.SampleCap)
	}
	s.arriveFn = func() {
		s.arrived++
		s.queue = append(s.queue, s.eng.Now())
		s.maybeServe()
		s.scheduleArrival()
	}
	s.serveFn = s.maybeServe
	s.finishFn = s.finishOp
	s.retryFn = s.opStep
	return s, nil
}

// Start begins Poisson arrivals; they continue until Stop.
func (s *Service) Start() { s.scheduleArrival() }

func (s *Service) scheduleArrival() {
	gap := sim.Time(s.rng.Exp(1.0/s.cfg.OpsPerSec) * float64(sim.Second))
	s.eng.After(gap, s.arriveFn)
}

// Stall blocks the server for d (daemon-induced CPU theft).
func (s *Service) Stall(d sim.Time) {
	now := s.eng.Now()
	if s.stallUntil < now {
		s.stallUntil = now
	}
	s.stallUntil += d
}

// maybeServe starts the next op if the server is free.
func (s *Service) maybeServe() {
	if s.busy || s.qhead == len(s.queue) {
		return
	}
	start := s.eng.Now()
	if s.stallUntil > start {
		// Server is stalled; retry when the stall drains.
		s.eng.At(s.stallUntil, s.serveFn)
		return
	}
	s.busy = true
	s.curArrival = s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
	s.curRemaining = s.cfg.AccessesPerOp
	s.opStep()
}

// opStep advances the current op: issue the next access of its
// dependent chain, or — chain done — finish after the compute time.
func (s *Service) opStep() {
	if s.curRemaining == 0 {
		s.eng.After(s.cfg.ComputePerOp, s.finishFn)
		return
	}
	pa, ok := s.nextAddr()
	if !ok {
		// Footprint gone (shouldn't happen for services); drop the op.
		s.finishOp()
		return
	}
	write := s.rng.Bool(1 - s.cfg.Profile.ReadFrac)
	if err := s.sub.SubmitCall(pa, write, s, 0); err != nil {
		s.eng.After(200*sim.Nanosecond, s.retryFn)
	}
}

// Complete implements mc.Completer: one access of the current op's
// dependent chain returned; issue the next.
func (s *Service) Complete(uint64, sim.Time) {
	s.curRemaining--
	s.opStep()
}

func (s *Service) finishOp() {
	now := s.eng.Now()
	if now >= s.warmupCut {
		s.latencies.Add((now - s.curArrival).Microseconds())
	}
	s.served++
	s.busy = false
	s.maybeServe()
}

// nextAddr picks the op's next line: mostly random (hash-table lookups).
func (s *Service) nextAddr() (uint64, bool) {
	n := s.mem.OwnerPageCount(s.cfg.Owner)
	if n == 0 {
		return 0, false
	}
	if !s.rng.Bool(s.cfg.Profile.SeqProb) || s.streamPage >= n {
		s.streamPage = s.rng.Int63n(n)
	}
	pfn := s.mem.OwnerPage(s.cfg.Owner, s.streamPage)
	off := s.rng.Int63n(s.mem.PageBytes()/64) * 64
	return uint64(pfn)*uint64(s.mem.PageBytes()) + uint64(off), true
}

// Served reports completed operations.
func (s *Service) Served() int64 { return s.served }

// Latency exposes the response-time distribution (microseconds), warmup
// excluded.
func (s *Service) Latency() *metrics.Distribution { return &s.latencies }

// Utilization estimates offered load: arrival rate x mean service demand.
func (s *Service) Utilization() float64 {
	if s.latencies.N() == 0 {
		return 0
	}
	return float64(s.served) / float64(s.arrived)
}
