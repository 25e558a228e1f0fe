// Package hotplug implements Linux memory-block on/off-lining on top of
// internal/kernel, mirroring mm/memory_hotplug.c at the fidelity the
// GreenDIMM paper depends on (§2.3, §5.2):
//
//   - The physical address space is divided into fixed-size memory blocks
//     (128MB by default, configurable like
//     /sys/devices/system/memory/block_size_bytes).
//   - Off-lining isolates the block's free pages, migrates used movable
//     pages away (up to three attempts), and fails with EBUSY when the
//     block holds unmovable pages or EAGAIN when migration resources are
//     unavailable — with the latency profile of the paper's Table 3.
//   - Each block exposes the sysfs `removable` bit (true when every page
//     is movable or free), which GreenDIMM's block selector checks to
//     halve the failure rate (Fig. 8).
package hotplug

import (
	"errors"
	"fmt"

	"greendimm/internal/kernel"
	"greendimm/internal/metrics"
	"greendimm/internal/sim"
)

// BlockState is the hotplug state of a memory block.
type BlockState int

const (
	// BlockOnline: part of the physical address space.
	BlockOnline BlockState = iota
	// BlockOffline: removed; its DRAM can be deep-powered-down.
	BlockOffline
)

func (s BlockState) String() string {
	if s == BlockOnline {
		return "online"
	}
	return "offline"
}

// Failure kinds for off-lining, matching the errno the kernel returns.
var (
	// ErrBusy: the block contains unmovable pages; isolation failed.
	ErrBusy = errors.New("hotplug: EBUSY: unmovable pages in block")
	// ErrAgain: page migration could not complete (transient resource
	// shortage) after the retry budget.
	ErrAgain = errors.New("hotplug: EAGAIN: page migration failed")
	// ErrState: block already in the requested state.
	ErrState = errors.New("hotplug: block already in requested state")
)

// LatencyModel carries the cost constants for on/off-lining, expressed per
// byte so simulations with scaled page sizes keep the paper's absolute
// latencies (Table 3: off-line 1.58ms, on-line 3.44ms, EAGAIN 4.37ms,
// EBUSY 6us — for 128MB blocks).
type LatencyModel struct {
	OfflineBase    sim.Time // page-table/radix updates, notifier chain
	OfflinePerByte float64  // ps per byte isolated
	OnlineBase     sim.Time
	OnlinePerByte  float64 // ps per byte re-initialized (struct page init)
	EBusyLatency   sim.Time
	MigratePerByte float64 // ps per byte copied during migration
	MigrateRetries int     // attempts before EAGAIN (paper: 3)
}

// DefaultLatency reproduces Table 3 for 128MB blocks.
func DefaultLatency() LatencyModel {
	const mb128 = 128 << 20
	return LatencyModel{
		OfflineBase:    200 * sim.Microsecond,
		OfflinePerByte: float64(1380*sim.Microsecond) / mb128,
		OnlineBase:     400 * sim.Microsecond,
		OnlinePerByte:  float64(3040*sim.Microsecond) / mb128,
		EBusyLatency:   6 * sim.Microsecond,
		MigratePerByte: float64(1250*sim.Microsecond) / mb128,
		MigrateRetries: 3,
	}
}

// Config configures a hotplug manager.
type Config struct {
	BlockBytes int64 // memory block size; 0 means 128MB
	Latency    LatencyModel

	// MigrateAttemptFailProb is the per-attempt probability that migrating
	// a block with used pages hits a transient resource failure (page
	// locks, LRU isolation races, allocation pressure). The paper observes
	// off-lining succeeding essentially only on fully-free blocks; 0.9
	// reproduces that while leaving EAGAIN (not instant success) as the
	// common outcome for used blocks.
	MigrateAttemptFailProb float64

	// Seed drives the transient-failure draw.
	Seed int64
}

// Stats accumulates hotplug activity.
type Stats struct {
	Offlines int64 // successful off-linings
	Onlines  int64
	EBusy    int64
	EAgain   int64

	MigratedPages int64

	OfflineLat metrics.Distribution // milliseconds
	OnlineLat  metrics.Distribution
	EBusyLat   metrics.Distribution
	EAgainLat  metrics.Distribution
}

// Failures reports total failed off-line attempts.
func (s *Stats) Failures() int64 { return s.EBusy + s.EAgain }

// Manager tracks block states over a kernel.Mem.
type Manager struct {
	mem           *kernel.Mem
	cfg           Config
	rng           *sim.RNG
	states        []BlockState
	pagesPerBlock int64
	stats         Stats
	// isolated is Offline's record of the pages it has taken out of the
	// allocator, for rollback; reset per call so that repeated
	// off-lining reuses one buffer.
	isolated []kernel.PFN
}

// New builds a manager. BlockBytes must divide total memory and be a
// multiple of the page size.
func New(mem *kernel.Mem, cfg Config) (*Manager, error) {
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 128 << 20
	}
	total := mem.NPages() * mem.PageBytes()
	switch {
	case cfg.BlockBytes%mem.PageBytes() != 0:
		return nil, fmt.Errorf("hotplug: block size %d not a multiple of page size %d", cfg.BlockBytes, mem.PageBytes())
	case total%cfg.BlockBytes != 0:
		return nil, fmt.Errorf("hotplug: total %d not a multiple of block size %d", total, cfg.BlockBytes)
	case cfg.MigrateAttemptFailProb < 0 || cfg.MigrateAttemptFailProb > 1:
		return nil, fmt.Errorf("hotplug: fail probability %v out of range", cfg.MigrateAttemptFailProb)
	}
	if cfg.Latency == (LatencyModel{}) {
		cfg.Latency = DefaultLatency()
	}
	if cfg.Latency.MigrateRetries <= 0 {
		cfg.Latency.MigrateRetries = 3
	}
	return &Manager{
		mem:           mem,
		cfg:           cfg,
		rng:           sim.NewRNG(cfg.Seed ^ 0x686f74706c7567),
		states:        make([]BlockState, total/cfg.BlockBytes),
		pagesPerBlock: cfg.BlockBytes / mem.PageBytes(),
	}, nil
}

// Blocks reports the number of memory blocks.
func (m *Manager) Blocks() int { return len(m.states) }

// BlockBytes reports the block size.
func (m *Manager) BlockBytes() int64 { return m.cfg.BlockBytes }

// State reports a block's hotplug state.
func (m *Manager) State(i int) BlockState { return m.states[i] }

// OfflineCount reports how many blocks are off-lined.
func (m *Manager) OfflineCount() int {
	n := 0
	for _, s := range m.states {
		if s == BlockOffline {
			n++
		}
	}
	return n
}

// Stats exposes accumulated statistics.
func (m *Manager) Stats() *Stats { return &m.stats }

// Range returns the PFN range [lo, hi) of block i.
func (m *Manager) Range(i int) (lo, hi kernel.PFN) {
	lo = kernel.PFN(int64(i) * m.pagesPerBlock)
	return lo, lo + kernel.PFN(m.pagesPerBlock)
}

// AddrRange returns the physical byte range [lo, hi) of block i.
func (m *Manager) AddrRange(i int) (lo, hi uint64) {
	lo = uint64(int64(i) * m.cfg.BlockBytes)
	return lo, lo + uint64(m.cfg.BlockBytes)
}

// Removable mirrors /sys/devices/system/memory/memoryN/removable: true
// when the block contains no unmovable pages.
func (m *Manager) Removable(i int) bool {
	lo, hi := m.Range(i)
	for p := lo; p < hi; p++ {
		if m.mem.State(p) == kernel.PageUnmovable {
			return false
		}
	}
	return true
}

// FullyFree reports whether every page of the block is free — the blocks
// GreenDIMM prefers, since off-lining them migrates nothing.
func (m *Manager) FullyFree(i int) bool {
	lo, hi := m.Range(i)
	for p := lo; p < hi; p++ {
		if m.mem.State(p) != kernel.PageFree {
			return false
		}
	}
	return true
}

// UsedPages counts allocated (movable or unmovable) pages in the block.
func (m *Manager) UsedPages(i int) int64 {
	lo, hi := m.Range(i)
	var n int64
	for p := lo; p < hi; p++ {
		switch m.mem.State(p) {
		case kernel.PageMovable, kernel.PageUnmovable:
			n++
		}
	}
	return n
}

// Offline attempts to off-line block i (offline_pages()). On success the
// block's pages leave the physical address space. The returned latency is
// the modelled CPU cost of the operation (also recorded in Stats); the
// caller decides what to do with it (the GreenDIMM daemon charges it to a
// core).
func (m *Manager) Offline(i int) (sim.Time, error) {
	if m.states[i] == BlockOffline {
		return 0, ErrState
	}
	lo, hi := m.Range(i)

	// Step 1: movability check (start_isolate_page_range). Any unmovable
	// page fails the whole block with EBUSY, quickly.
	for p := lo; p < hi; p++ {
		if m.mem.State(p) == kernel.PageUnmovable {
			m.stats.EBusy++
			m.stats.EBusyLat.Add(m.cfg.Latency.EBusyLatency.Milliseconds())
			return m.cfg.Latency.EBusyLatency, ErrBusy
		}
	}

	// Step 2: isolate free pages out of the buddy allocator.
	m.isolated = m.isolated[:0]
	rollback := func() {
		for _, p := range m.isolated {
			m.mem.Unisolate(p)
		}
	}
	for p := lo; p < hi; p++ {
		if m.mem.State(p) == kernel.PageFree {
			if !m.mem.Isolate(p) {
				rollback()
				m.stats.EBusy++
				m.stats.EBusyLat.Add(m.cfg.Latency.EBusyLatency.Milliseconds())
				return m.cfg.Latency.EBusyLatency, ErrBusy
			}
			m.isolated = append(m.isolated, p)
		}
	}

	// Step 3: migrate used movable pages away, with a bounded retry
	// budget; transient failures model page locks and allocation races.
	usedBytes := int64(0)
	lat := m.cfg.Latency.OfflineBase +
		sim.Time(m.cfg.Latency.OfflinePerByte*float64(m.cfg.BlockBytes))
	attempt := 0
	for p := lo; p < hi; p++ {
		if m.mem.State(p) != kernel.PageMovable {
			continue
		}
		usedBytes += m.mem.PageBytes()
		for {
			attempt++
			transient := m.rng.Bool(m.cfg.MigrateAttemptFailProb)
			if !transient {
				if _, err := m.mem.MigratePage(p, lo, hi); err == nil {
					m.stats.MigratedPages++
					m.isolated = append(m.isolated, p) // now isolated
					break
				}
			}
			if attempt >= m.cfg.Latency.MigrateRetries {
				rollback()
				// Each attempt walked and copied; EAGAIN costs roughly
				// retries x a successful off-lining (Table 3).
				failLat := sim.Time(float64(m.cfg.Latency.MigrateRetries)) *
					(m.cfg.Latency.OfflineBase +
						sim.Time(m.cfg.Latency.OfflinePerByte*float64(m.cfg.BlockBytes)))
				m.stats.EAgain++
				m.stats.EAgainLat.Add(failLat.Milliseconds())
				return failLat, ErrAgain
			}
		}
	}
	lat += sim.Time(m.cfg.Latency.MigratePerByte * float64(usedBytes))

	// Step 4: pull the block out of the address space.
	for p := lo; p < hi; p++ {
		m.mem.MarkOffline(p)
	}
	m.states[i] = BlockOffline
	m.stats.Offlines++
	m.stats.OfflineLat.Add(lat.Milliseconds())
	return lat, nil
}

// Online brings block i back into the physical address space
// (online_pages()): struct-page re-init plus buddy insertion.
func (m *Manager) Online(i int) (sim.Time, error) {
	if m.states[i] == BlockOnline {
		return 0, ErrState
	}
	lo, hi := m.Range(i)
	for p := lo; p < hi; p++ {
		m.mem.MarkOnline(p)
	}
	m.states[i] = BlockOnline
	lat := m.cfg.Latency.OnlineBase +
		sim.Time(m.cfg.Latency.OnlinePerByte*float64(m.cfg.BlockBytes))
	m.stats.Onlines++
	m.stats.OnlineLat.Add(lat.Milliseconds())
	return lat, nil
}
