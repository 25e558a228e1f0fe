package workload

import (
	"fmt"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// FootprintDriver plays a profile's footprint curve against the kernel
// allocator over a nominal run duration: it is the memory-dynamics half of
// an application (the request stream being the timing half), and it is
// what makes the GreenDIMM daemon on/off-line blocks mid-run (Figs. 6-8,
// Table 2).
type FootprintDriver struct {
	eng      *sim.Engine
	mem      *kernel.Mem
	prof     Profile
	owner    uint32
	duration sim.Time
	period   sim.Time
	start    sim.Time
	running  bool
	done     bool
	onDone   []func()
	tap      func(pfn kernel.PFN)
}

// SetAccessTap registers a per-page access hook (GreenDIMM's tracker
// feed). After each footprint adjustment the driver touches a
// deterministic sample of its resident pages through the tap, modelling
// the application's working-set accesses between allocation events.
func (f *FootprintDriver) SetAccessTap(fn func(pfn kernel.PFN)) { f.tap = fn }

// touchResident samples the owner's resident set: a fixed-stride walk in
// allocation order (at most ~64 pages per period), so tracker heat
// reflects which blocks actually hold this application's pages. Pure
// function of allocator state — no RNG, no wall clock — keeping runs
// byte-identical at any parallelism.
func (f *FootprintDriver) touchResident() {
	if f.tap == nil {
		return
	}
	n := f.mem.OwnerPageCount(f.owner)
	if n == 0 {
		return
	}
	stride := n/64 + 1
	for i := int64(0); i < n; i += stride {
		f.tap(f.mem.OwnerPage(f.owner, i))
	}
}

// NewFootprintDriver builds a driver that walks the curve over duration,
// updating the allocation every period.
func NewFootprintDriver(eng *sim.Engine, mem *kernel.Mem, prof Profile, owner uint32,
	duration, period sim.Time) (*FootprintDriver, error) {
	if duration <= 0 || period <= 0 || period > duration {
		return nil, fmt.Errorf("workload: bad footprint driver timing %v/%v", duration, period)
	}
	return &FootprintDriver{
		eng: eng, mem: mem, prof: prof, owner: owner,
		duration: duration, period: period,
	}, nil
}

// OnDone registers a completion callback.
func (f *FootprintDriver) OnDone(fn func()) { f.onDone = append(f.onDone, fn) }

// Start allocates the initial footprint and begins the curve.
func (f *FootprintDriver) Start() {
	f.start = f.eng.Now()
	f.running = true
	f.adjust(0)
	f.tick()
}

// Done reports whether the curve has completed.
func (f *FootprintDriver) Done() bool { return f.done }

func (f *FootprintDriver) tick() {
	f.eng.After(f.period, func() {
		if !f.running {
			return
		}
		progress := float64(f.eng.Now()-f.start) / float64(f.duration)
		if progress >= 1 {
			f.adjust(1)
			f.running = false
			f.done = true
			for _, fn := range f.onDone {
				fn()
			}
			return
		}
		f.adjust(progress)
		f.tick()
	})
}

// adjust reconciles the owner's allocation with the curve target.
func (f *FootprintDriver) adjust(progress float64) {
	targetPages := (f.prof.FootprintAt(progress) + f.mem.PageBytes() - 1) / f.mem.PageBytes()
	if targetPages == 0 {
		targetPages = 1
	}
	have := f.mem.OwnerPageCount(f.owner)
	switch {
	case have < targetPages:
		// Partial success under pressure is fine: the curve retries next
		// period.
		if err := f.mem.Alloc(targetPages-have, true, f.owner); err != nil {
			half := (targetPages - have) / 2
			if half > 0 {
				_ = f.mem.Alloc(half, true, f.owner)
			}
		}
	case have > targetPages:
		f.mem.FreeOwnerPages(f.owner, have-targetPages)
	}
	f.touchResident()
}

// Teardown frees everything the driver allocated.
func (f *FootprintDriver) Teardown() {
	f.running = false
	f.mem.FreeOwner(f.owner)
}
