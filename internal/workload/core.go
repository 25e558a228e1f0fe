package workload

import (
	"fmt"

	"greendimm/internal/kernel"
	"greendimm/internal/mc"
	"greendimm/internal/sim"
)

// Submitter is what cores and services issue memory requests to
// (satisfied by *mc.Controller). Completions arrive on a long-lived
// mc.Completer instead of a per-access closure: Core and Service
// implement mc.Completer themselves, so against a real controller the
// per-access path performs zero heap allocations.
type Submitter interface {
	SubmitCall(pa uint64, write bool, cb mc.Completer, id uint64) error
}

// CoreConfig configures a closed-loop core run.
type CoreConfig struct {
	Profile  Profile
	Owner    uint32
	Accesses int64   // DRAM accesses to simulate (the scaled run length)
	FreqGHz  float64 // core clock; 0 means 3.0
	Seed     int64
}

// Core drives one application: it allocates the profile's footprint,
// issues DRAM accesses in a closed loop with the profile's MLP, and pays
// compute gaps between accesses derived from MPKI and IPC. Execution time
// emerges from the interplay of compute, memory latency and queueing —
// which is how interleaving's Fig. 3a speedups and GreenDIMM's Fig. 7/11
// overheads are measured.
type Core struct {
	eng *sim.Engine
	mem *kernel.Mem
	sub Submitter
	cfg CoreConfig
	rng *sim.RNG

	// Handlers bound once at construction so the issue loop and its
	// retry/timer re-arms never allocate a closure per access.
	pumpFn  func()
	timerFn func()

	computeGap sim.Time // CPU time between consecutive accesses
	cpuReady   sim.Time // compute frontier
	timerSet   bool     // one outstanding compute-frontier timer at most
	issued     int64
	completed  int64
	inFlight   int
	streamPage int64 // sequential stream position: owner page index
	streamOff  int64 // byte offset within page (line aligned)
	stallTime  sim.Time
	totalLat   sim.Time

	start    sim.Time
	finish   sim.Time
	finished bool
	onDone   []func()
}

// NewCore allocates the profile's (initial) footprint and returns a core
// ready to Start.
func NewCore(eng *sim.Engine, mem *kernel.Mem, sub Submitter, cfg CoreConfig) (*Core, error) {
	if cfg.Accesses <= 0 {
		return nil, fmt.Errorf("workload: non-positive access budget")
	}
	if cfg.FreqGHz == 0 {
		cfg.FreqGHz = 3.0
	}
	p := cfg.Profile
	if p.MPKI <= 0 || p.IPC <= 0 || p.MLP <= 0 {
		return nil, fmt.Errorf("workload: profile %q missing MPKI/IPC/MLP", p.Name)
	}
	c := &Core{
		eng: eng, mem: mem, sub: sub, cfg: cfg,
		rng: sim.NewRNG(cfg.Seed ^ int64(len(p.Name))),
	}
	c.pumpFn = c.pump
	c.timerFn = func() {
		c.timerSet = false
		c.pump()
	}
	// Instructions between misses = 1000/MPKI; time = insts/IPC/freq.
	instPerMiss := 1000 / p.MPKI
	c.computeGap = sim.Time(instPerMiss / p.IPC / cfg.FreqGHz * 1000) // ps
	pages := (p.FootprintAt(0) + mem.PageBytes() - 1) / mem.PageBytes()
	if pages == 0 {
		pages = 1
	}
	if err := mem.Alloc(pages, true, cfg.Owner); err != nil {
		return nil, fmt.Errorf("workload: footprint allocation: %w", err)
	}
	return c, nil
}

// OnDone registers a completion callback.
func (c *Core) OnDone(fn func()) { c.onDone = append(c.onDone, fn) }

// Start begins issuing at the current simulated time.
func (c *Core) Start() {
	c.start = c.eng.Now()
	c.cpuReady = c.eng.Now()
	c.pump()
}

// Stall charges d of CPU time to the core (the GreenDIMM daemon and
// on/off-lining operations steal cycles — Fig. 7/11's overhead).
func (c *Core) Stall(d sim.Time) {
	c.stallTime += d
	if c.cpuReady < c.eng.Now() {
		c.cpuReady = c.eng.Now()
	}
	c.cpuReady += d
}

// pump issues as many accesses as the MLP window and compute frontier
// allow, then re-arms itself.
func (c *Core) pump() {
	if c.finished {
		return
	}
	now := c.eng.Now()
	for c.inFlight < c.cfg.Profile.MLP && c.issued < c.cfg.Accesses && c.cpuReady <= now {
		pa, ok := c.nextAddr()
		if !ok {
			// Footprint momentarily empty (driver shrink); retry shortly.
			c.eng.After(10*sim.Microsecond, c.pumpFn)
			return
		}
		write := !c.rng.Bool(c.cfg.Profile.ReadFrac)
		if err := c.sub.SubmitCall(pa, write, c, 0); err != nil {
			// Queue full: back off one DRAM service quantum.
			c.eng.After(100*sim.Nanosecond, c.pumpFn)
			return
		}
		c.inFlight++
		c.issued++
		c.cpuReady += c.computeGap
	}
	// Arm at most ONE timer for the compute frontier. Completions also
	// invoke pump, so without this discipline every completion would
	// spawn a new self-perpetuating timer chain and the event count
	// would grow quadratically with the access budget.
	if c.issued < c.cfg.Accesses && c.inFlight < c.cfg.Profile.MLP &&
		c.cpuReady > now && !c.timerSet {
		c.timerSet = true
		c.eng.At(c.cpuReady, c.timerFn)
	}
}

// Complete implements mc.Completer: one access returned from the memory
// system. All its state lives on the Core.
func (c *Core) Complete(_ uint64, lat sim.Time) {
	c.inFlight--
	c.completed++
	c.totalLat += lat
	if c.completed == c.cfg.Accesses {
		c.finished = true
		c.finish = c.eng.Now()
		for _, fn := range c.onDone {
			fn()
		}
		return
	}
	c.pump()
}

// nextAddr produces the next physical address: sequential within the
// owner's pages with probability SeqProb, else a uniform jump.
func (c *Core) nextAddr() (uint64, bool) {
	n := c.mem.OwnerPageCount(c.cfg.Owner)
	if n == 0 {
		return 0, false
	}
	if c.streamPage >= n || !c.rng.Bool(c.cfg.Profile.SeqProb) {
		c.streamPage = c.rng.Int63n(n)
		c.streamOff = c.rng.Int63n(c.mem.PageBytes()/64) * 64
	} else {
		c.streamOff += 64
		if c.streamOff >= c.mem.PageBytes() {
			c.streamOff = 0
			c.streamPage++
			if c.streamPage >= n {
				c.streamPage = 0
			}
		}
	}
	pfn := c.mem.OwnerPage(c.cfg.Owner, c.streamPage)
	return uint64(pfn)*uint64(c.mem.PageBytes()) + uint64(c.streamOff), true
}

// Done reports whether the access budget completed.
func (c *Core) Done() bool { return c.finished }

// Runtime returns the elapsed simulated time of the run (valid after
// Done; before completion it reports time so far).
func (c *Core) Runtime() sim.Time {
	if c.finished {
		return c.finish - c.start
	}
	return c.eng.Now() - c.start
}

// AvgLatency reports the mean access latency.
func (c *Core) AvgLatency() sim.Time {
	if c.completed == 0 {
		return 0
	}
	return c.totalLat / sim.Time(c.completed)
}

// StallTime reports accumulated daemon-induced stalls.
func (c *Core) StallTime() sim.Time { return c.stallTime }

// Progress reports the fraction of the access budget completed.
func (c *Core) Progress() float64 {
	return float64(c.completed) / float64(c.cfg.Accesses)
}
