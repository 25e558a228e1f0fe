// Package ksm models Linux Kernel Samepage Merging (mm/ksm.c) at the
// granularity the GreenDIMM paper uses it (§2.4, §5.3): a daemon that
// periodically scans madvise(MADV_MERGEABLE)-registered pages, finds
// identical content via a stable index (already-shared pages) and an
// unstable index (candidates whose checksum held still since the previous
// pass), replaces duplicates with one write-protected frame, and breaks
// shares copy-on-write when a sharer writes. mm/ksm.c keeps both as
// rbtrees ordered by memcmp of page contents; here content is a digest, so
// both are maps keyed by it.
//
// Page content is modelled as a 64-bit digest plus a per-page volatility
// (probability the content changes between scan visits). The memory the
// daemon reclaims is real in the simulation: duplicate frames go back to
// the buddy allocator, shrinking the footprint GreenDIMM's usage monitor
// sees — which is exactly the synergy §6.3 measures.
package ksm

import (
	"fmt"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// Owner is the pseudo-owner holding shared (merged) frames, so that a VM's
// teardown cannot free a frame other VMs still map.
const Owner uint32 = 1

// VPage is one registered virtual page: the unit ksmd scans.
type VPage struct {
	owner       uint32
	digest      uint64
	volatility  float64
	frame       kernel.PFN
	merged      *stableNode // nil when the page maps its own frame
	checksum    uint64      // digest observed at the previous visit
	hasChecksum bool
	dead        bool
}

// Merged reports whether the page currently shares a stable frame.
func (v *VPage) Merged() bool { return v.merged != nil }

// Frame returns the physical frame currently backing the page.
func (v *VPage) Frame() kernel.PFN { return v.frame }

// Digest returns the page's current content digest.
func (v *VPage) Digest() uint64 { return v.digest }

// stableNode is a write-protected shared frame in the stable index.
type stableNode struct {
	digest uint64
	frame  kernel.PFN
	refs   int
}

// Config tunes the daemon; the defaults are the paper's §5.3 settings.
type Config struct {
	PagesPerScan    int      // pages visited per wake-up (paper: 1000)
	ScanPeriod      sim.Time // sleep between wake-ups (paper: 50ms)
	ScanCostPerPage sim.Time // CPU cost per visited page
	Seed            int64
}

// DefaultConfig returns the paper's configuration: 1000 pages per 50ms,
// costing ~10% of one core.
func DefaultConfig() Config {
	return Config{
		PagesPerScan:    1000,
		ScanPeriod:      50 * sim.Millisecond,
		ScanCostPerPage: 5 * sim.Microsecond, // 1000 x 5us / 50ms = 10% of a core
	}
}

// Stats summarizes daemon activity.
type Stats struct {
	Scans      int64 // pages visited
	FullPasses int64
	Merges     int64 // pages merged (cumulative)
	CoWBreaks  int64
	CPUTime    sim.Time
}

// Daemon is the ksmd model.
type Daemon struct {
	eng *sim.Engine
	mem *kernel.Mem
	cfg Config
	rng *sim.RNG

	pages    []*VPage // scan order = registration order, like the rmap list
	cursor   int
	stable   map[uint64]*stableNode
	unstable map[uint64]*VPage // emptied each time the cursor wraps
	// byFrame[pfn] is the *VPage mapping frame pfn exclusively or the
	// *stableNode sharing it; nil when KSM tracks no page there.
	byFrame []any

	sharedSaved int64 // frames freed by merging, currently
	stats       Stats
	running     bool
	wake        func() // the scan timer's callback, bound once
	onPass      []func()
}

// New builds a daemon bound to the engine and memory.
func New(eng *sim.Engine, mem *kernel.Mem, cfg Config) (*Daemon, error) {
	if cfg.PagesPerScan <= 0 || cfg.ScanPeriod <= 0 {
		return nil, fmt.Errorf("ksm: scan parameters must be positive: %+v", cfg)
	}
	d := &Daemon{
		eng:      eng,
		mem:      mem,
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ 0x6b736d64),
		stable:   make(map[uint64]*stableNode),
		unstable: make(map[uint64]*VPage),
		byFrame:  make([]any, mem.NPages()),
	}
	d.wake = func() {
		if !d.running {
			return
		}
		d.ScanChunk()
		d.armScan()
	}
	mem.OnMigrate(d.frameMigrated)
	return d, nil
}

// Register advises a set of frames mergeable (madvise MADV_MERGEABLE).
// digests[i] is the content of frames[i]; volatility is the probability a
// page's content changes between scan visits. Returns the VPages for the
// caller to mutate (Write) or inspect. A rejected call registers nothing.
func (d *Daemon) Register(owner uint32, frames []kernel.PFN, digests []uint64, volatility float64) ([]*VPage, error) {
	if len(frames) != len(digests) {
		return nil, fmt.Errorf("ksm: %d frames but %d digests", len(frames), len(digests))
	}
	if volatility < 0 || volatility > 1 {
		return nil, fmt.Errorf("ksm: volatility %v out of [0,1]", volatility)
	}
	for _, f := range frames {
		if d.mem.Owner(f) != owner {
			return nil, fmt.Errorf("ksm: frame %d not owned by %d", f, owner)
		}
	}
	block := make([]VPage, len(frames)) // one allocation for the call's pages
	out := make([]*VPage, len(frames))
	for i, f := range frames {
		v := &block[i]
		*v = VPage{owner: owner, digest: digests[i], volatility: volatility, frame: f}
		d.pages = append(d.pages, v)
		d.byFrame[f] = v
		out[i] = v
	}
	return out, nil
}

// UnregisterOwner removes every page of an owner (VM teardown). Merged
// pages drop their stable reference; exclusive frames stay allocated for
// kernel.FreeOwner to reclaim.
func (d *Daemon) UnregisterOwner(owner uint32) {
	kept := d.pages[:0]
	for _, v := range d.pages {
		if v.owner != owner {
			kept = append(kept, v)
			continue
		}
		if v.merged != nil {
			d.detachSharer(v.merged)
		} else {
			d.byFrame[v.frame] = nil
		}
		v.dead = true
	}
	d.pages = kept
	if d.cursor > len(d.pages) {
		d.cursor = 0
	}
}

// Write models a store to a registered page with new content: merged pages
// break copy-on-write (a fresh frame is allocated for the writer).
func (d *Daemon) Write(v *VPage, newDigest uint64) error {
	if v.dead {
		return fmt.Errorf("ksm: write to unregistered page")
	}
	v.digest = newDigest
	v.hasChecksum = false
	if v.merged == nil {
		return nil
	}
	frames, err := d.mem.AllocPages(1, true, v.owner)
	if err != nil {
		return fmt.Errorf("ksm: CoW allocation failed: %w", err)
	}
	node := v.merged
	v.merged = nil
	v.frame = frames[0]
	d.byFrame[v.frame] = v
	d.stats.CoWBreaks++
	d.detachSharer(node)
	return nil
}

// detachSharer removes one sharer from a stable node, maintaining the
// invariant SavedPages == (merged sharers) - (stable nodes): losing a
// sharer costs one saved frame, but the last detach also frees the shared
// frame, which wins it back.
func (d *Daemon) detachSharer(n *stableNode) {
	d.sharedSaved--
	n.refs--
	if n.refs == 0 {
		d.sharedSaved++
		delete(d.stable, n.digest)
		d.byFrame[n.frame] = nil
		d.mem.FreePage(n.frame)
	}
}

// Start begins periodic scanning.
func (d *Daemon) Start() {
	if d.running {
		return
	}
	d.running = true
	d.armScan()
}

// Stop pauses scanning.
func (d *Daemon) Stop() { d.running = false }

// OnFullPass registers a callback invoked each time the scan cursor wraps
// (GreenDIMM's §5.3 optimization triggers off-lining right after a merge
// pass completes, regardless of the monitor period).
func (d *Daemon) OnFullPass(fn func()) { d.onPass = append(d.onPass, fn) }

func (d *Daemon) armScan() { d.eng.AfterDaemon(d.cfg.ScanPeriod, d.wake) }

// ScanChunk performs one wake-up's worth of scanning: up to PagesPerScan
// page visits. Exposed for tests and single-stepped experiments.
func (d *Daemon) ScanChunk() {
	for i := 0; i < d.cfg.PagesPerScan; i++ {
		if len(d.pages) == 0 {
			return
		}
		if d.cursor >= len(d.pages) {
			d.cursor = 0
			clear(d.unstable)
			d.stats.FullPasses++
			for _, fn := range d.onPass {
				fn()
			}
		}
		v := d.pages[d.cursor]
		d.cursor++
		d.visit(v)
	}
}

// visit processes one page, mirroring cmp_and_merge_page().
func (d *Daemon) visit(v *VPage) {
	d.stats.Scans++
	d.stats.CPUTime += d.cfg.ScanCostPerPage

	// Volatile content mutates between visits; a merged page mutating is
	// a write and breaks the share.
	if v.volatility > 0 && d.rng.Bool(v.volatility) {
		// Error only possible when memory is exhausted; drop the mutation
		// then (the share simply persists).
		_ = d.Write(v, d.rng.Uint64())
		return
	}
	if v.merged != nil {
		return // already shared; nothing to do
	}

	// 1. Stable index: merge with an existing shared frame.
	if sn := d.stable[v.digest]; sn != nil {
		d.mergeIntoStable(v, sn)
		return
	}

	// 2. Unstable index: another un-shared page with identical content
	// seen this pass -> promote both into a new stable node. Entries can
	// be stale (the candidate's content changed after insertion, or its
	// owner died); verify before merging. A stale entry keeps its slot
	// until the pass ends.
	other, seen := d.unstable[v.digest]
	if seen && other != v && !other.dead && other.merged == nil && other.digest == v.digest {
		d.promote(other, v)
		return
	}

	// 3. Checksum gate: only checksum-stable pages enter the unstable
	// index (mm/ksm.c skips pages that changed since the last visit).
	if !seen && v.hasChecksum && v.checksum == v.digest {
		d.unstable[v.digest] = v
	}
	v.checksum = v.digest
	v.hasChecksum = true
}

// mergeIntoStable points v at the shared frame and frees its own frame.
func (d *Daemon) mergeIntoStable(v *VPage, sn *stableNode) {
	d.byFrame[v.frame] = nil
	d.mem.FreePage(v.frame)
	v.frame = sn.frame
	v.merged = sn
	sn.refs++
	d.sharedSaved++
	d.stats.Merges++
}

// promote creates a stable node from two identical unshared pages: a's
// frame becomes the shared frame (reassigned to the KSM owner), b's frame
// is freed.
func (d *Daemon) promote(a, b *VPage) {
	if d.stable[a.digest] != nil {
		// visit looks the stable index up first; a second node for one
		// digest means the scan logic broke.
		panic(fmt.Sprintf("ksm: duplicate stable digest %#x", a.digest))
	}
	delete(d.unstable, a.digest)
	sn := &stableNode{digest: a.digest, frame: a.frame, refs: 2}
	d.mem.Reassign(a.frame, Owner)
	d.byFrame[sn.frame] = sn
	a.merged = sn
	d.byFrame[b.frame] = nil
	d.mem.FreePage(b.frame)
	b.frame = sn.frame
	b.merged = sn
	d.stable[sn.digest] = sn
	d.sharedSaved++ // two pages now occupy one frame
	d.stats.Merges += 2
}

// frameMigrated keeps content tracking consistent across page migration
// (memory off-lining moves frames; KSM metadata must follow).
func (d *Daemon) frameMigrated(src, dst kernel.PFN) {
	entry := d.byFrame[src]
	if entry == nil {
		return
	}
	d.byFrame[src] = nil
	d.byFrame[dst] = entry
	switch e := entry.(type) {
	case *VPage:
		e.frame = dst
	case *stableNode:
		e.frame = dst
		// Every sharer's mapping moves with the frame.
		for _, v := range d.pages {
			if v.merged == e {
				v.frame = dst
			}
		}
	}
}

// SavedPages reports how many frames merging currently saves.
func (d *Daemon) SavedPages() int64 { return d.sharedSaved }

// SavedBytes reports the bytes merging currently saves.
func (d *Daemon) SavedBytes() int64 { return d.sharedSaved * d.mem.PageBytes() }

// StableLen reports the stable index size (shared frames).
func (d *Daemon) StableLen() int { return len(d.stable) }

// Registered reports the number of registered pages.
func (d *Daemon) Registered() int { return len(d.pages) }

// Stats returns accumulated counters.
func (d *Daemon) Stats() Stats { return d.stats }

// CPUShare reports the fraction of one core the daemon consumes at the
// configured scan rate (paper §5.3: ~10%).
func (d *Daemon) CPUShare() float64 {
	return float64(d.cfg.ScanCostPerPage) * float64(d.cfg.PagesPerScan) / float64(d.cfg.ScanPeriod)
}
