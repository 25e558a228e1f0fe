// Package kernel models the slice of Linux physical-memory management that
// GreenDIMM interacts with: the page-frame array with per-page state and
// movability, Normal and Movable zones backed by real buddy allocators,
// owner-tracked user allocations, page migration, and /proc/meminfo-style
// accounting. Memory-block on/off-lining builds on these primitives in
// internal/hotplug.
//
// Pages carry no data; content identity (needed by KSM) lives in
// internal/ksm, which registers a migration hook so content follows pages.
package kernel

import (
	"fmt"
	"math/bits"

	"greendimm/internal/sim"
)

// PFN is a physical page frame number.
type PFN int64

// PageState is the lifecycle state of a page frame.
type PageState uint8

const (
	// PageFree: in the buddy allocator.
	PageFree PageState = iota
	// PageMovable: allocated user memory, migratable.
	PageMovable
	// PageUnmovable: allocated kernel/device memory, not migratable.
	PageUnmovable
	// PageIsolated: temporarily removed from the allocator during
	// off-lining (still holds its allocation state implicitly free).
	PageIsolated
	// PageOffline: removed from the physical address space.
	PageOffline
)

var pageStateNames = [...]string{"free", "movable", "unmovable", "isolated", "offline"}

func (s PageState) String() string {
	if int(s) >= len(pageStateNames) {
		return "invalid"
	}
	return pageStateNames[s]
}

// KernelOwner is the reserved owner id for unmovable kernel allocations.
const KernelOwner uint32 = 0

// Config describes the physical memory layout.
type Config struct {
	TotalBytes int64
	PageBytes  int64 // page size; 4KB kernels, larger for big scaled sims

	// MovableBytes reserves the top MovableBytes of the address space as
	// the Movable zone (the movablecore= boot parameter). Zero keeps a
	// single Normal zone.
	MovableBytes int64

	// KernelReservedBytes is allocated as unmovable at boot (text, slab,
	// page tables, DMA buffers).
	KernelReservedBytes int64

	// UnmovableLeakEvery scatters one unmovable kernel page into the
	// movable region every N memory-block-sized strides at boot, modelling
	// the paper's §5.2 observation that "reserved movable regions can also
	// have unmovable pages". Zero disables scattering.
	UnmovableLeakEvery int

	// Seed drives boot-time scattering placement.
	Seed int64
}

// pageMeta is per-page-frame metadata (kept small: millions of instances).
// slot is the owner's slot in Mem.owners. Free, isolated and offline pages
// hold slot 0, KernelOwner's, so Owner reports KernelOwner for them.
type pageMeta struct {
	state PageState
	slot  uint32
}

// ownerList is one slot of the owner table: an owner id and its pages.
// Pages are removed by swap-remove, so their order is allocation order
// only until the first removal; OwnerPage exposes it as is.
type ownerList struct {
	id    uint32
	pages []PFN
}

// Mem is the machine's physical memory manager.
type Mem struct {
	cfg      Config
	npages   int64
	pages    []pageMeta
	normal   *buddy // always present
	movable  *buddy // nil without a movable zone
	movStart PFN    // first movable-zone PFN (== npages when no zone)

	// owners tracks each live owner's pages for LIFO partial frees,
	// whole-owner teardown and OwnerPage. pageMeta.slot indexes it, so
	// per-page bookkeeping never hashes; ownerSlot maps an owner id to its
	// slot once per call. Slot 0 belongs to KernelOwner for good; FreeOwner
	// returns every other slot to freeSlots, keeping its list's array for
	// the next owner there, so the table grows with the owners alive at
	// once, not with the largest id. posInOwner[pfn] is the page's index
	// in its owner's list (swap-remove bookkeeping).
	owners     []ownerList
	ownerSlot  map[uint32]uint32
	freeSlots  []uint32
	posInOwner []int32
	// lastOwner's slot is lastSlot: address generators ask for one
	// owner's pages on every access, so OwnerPage skips the map for it.
	// KernelOwner and slot 0 always agree, which makes them the reset.
	lastOwner uint32
	lastSlot  uint32

	onlinePages int64
	usedPages   int64 // movable + unmovable
	migrations  int64
	onMigrate   []func(src, dst PFN)
	pageTap     func(pfn PFN, alloc bool)
	migrateCost sim.Time // accumulated modelled migration work

	// Swap state (see swap.go).
	swapCapPages  int64
	swapUsedPages int64
	swappedPages  map[uint32]int64
	swapOuts      int64
	swapIns       int64
	reclaimer     func(pages int64) bool
	reclaiming    bool
}

// New boots a memory manager.
func New(cfg Config) (*Mem, error) {
	if cfg.PageBytes <= 0 || cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return nil, fmt.Errorf("kernel: page size %d not a power of two", cfg.PageBytes)
	}
	if cfg.TotalBytes <= 0 || cfg.TotalBytes%cfg.PageBytes != 0 {
		return nil, fmt.Errorf("kernel: total %d not a multiple of page size %d", cfg.TotalBytes, cfg.PageBytes)
	}
	npages := cfg.TotalBytes / cfg.PageBytes
	if cfg.MovableBytes < 0 || cfg.MovableBytes%cfg.PageBytes != 0 || cfg.MovableBytes > cfg.TotalBytes {
		return nil, fmt.Errorf("kernel: movable size %d invalid", cfg.MovableBytes)
	}
	movPages := cfg.MovableBytes / cfg.PageBytes

	maxOrder := 10 // 4MB blocks at 4KB pages, Linux's MAX_ORDER-1
	for npages%(1<<maxOrder) != 0 || (movPages != 0 && movPages%(1<<maxOrder) != 0) {
		maxOrder--
		if maxOrder < 0 {
			return nil, fmt.Errorf("kernel: zone sizes not alignable")
		}
	}

	m := &Mem{
		cfg:         cfg,
		npages:      npages,
		pages:       make([]pageMeta, npages),
		owners:      []ownerList{{id: KernelOwner}},
		ownerSlot:   map[uint32]uint32{KernelOwner: 0},
		posInOwner:  make([]int32, npages),
		movStart:    PFN(npages - movPages),
		onlinePages: npages,
	}
	var err error
	if m.normal, err = newBuddy(0, npages-movPages, maxOrder); err != nil {
		return nil, err
	}
	if movPages > 0 {
		if m.movable, err = newBuddy(m.movStart, movPages, maxOrder); err != nil {
			return nil, err
		}
	}
	if err := m.bootReserve(); err != nil {
		return nil, err
	}
	return m, nil
}

// bootReserve pins the kernel's own unmovable memory.
func (m *Mem) bootReserve() error {
	pages := m.cfg.KernelReservedBytes / m.cfg.PageBytes
	if pages > 0 {
		if _, err := m.AllocPages(pages, false, KernelOwner); err != nil {
			return fmt.Errorf("kernel: boot reservation: %w", err)
		}
	}
	if m.cfg.UnmovableLeakEvery > 0 {
		g := sim.NewRNG(m.cfg.Seed ^ 0x6b65726e)
		stride := m.npages / 64 // one candidate region per sub-array-group-ish slice
		if stride == 0 {
			stride = 1
		}
		for i, base := int64(0), int64(0); base < m.npages; i, base = i+1, base+stride {
			if int(i)%m.cfg.UnmovableLeakEvery != 0 {
				continue
			}
			pfn := PFN(base + g.Int63n(stride))
			if m.pages[pfn].state != PageFree {
				continue
			}
			if m.carveSpecific(pfn) {
				m.setAllocated(pfn, false, 0)
			}
		}
	}
	return nil
}

// PageBytes returns the page size.
func (m *Mem) PageBytes() int64 { return m.cfg.PageBytes }

// NPages returns the total page-frame count (online + offline).
func (m *Mem) NPages() int64 { return m.npages }

// State returns the state of a page.
func (m *Mem) State(pfn PFN) PageState { return m.pages[pfn].state }

// Owner returns the owner of an allocated page.
func (m *Mem) Owner(pfn PFN) uint32 { return m.owners[m.pages[pfn].slot].id }

// Meminfo mirrors the /proc/meminfo fields GreenDIMM's usage monitor reads.
type Meminfo struct {
	TotalBytes int64 // on-lined capacity
	FreeBytes  int64
	UsedBytes  int64
}

// Meminfo reports current memory accounting.
func (m *Mem) Meminfo() Meminfo {
	return Meminfo{
		TotalBytes: m.onlinePages * m.cfg.PageBytes,
		FreeBytes:  (m.onlinePages - m.usedPages) * m.cfg.PageBytes,
		UsedBytes:  m.usedPages * m.cfg.PageBytes,
	}
}

// Migrations reports how many pages have been migrated since boot.
func (m *Mem) Migrations() int64 { return m.migrations }

// OnMigrate registers a hook invoked after each page migration with the
// source and destination PFNs (KSM uses this to move content identity).
func (m *Mem) OnMigrate(fn func(src, dst PFN)) {
	m.onMigrate = append(m.onMigrate, fn)
}

// SetPageTap registers the per-page event hook: called with (pfn, true)
// when a page is allocated and (pfn, false) when it is released. This is
// the access stream GreenDIMM's block-activity trackers consume. One tap
// only — last registration wins; nil removes it.
func (m *Mem) SetPageTap(fn func(pfn PFN, alloc bool)) { m.pageTap = fn }

// zoneFor returns the zone owning pfn.
func (m *Mem) zoneFor(pfn PFN) *buddy {
	if m.movable != nil && pfn >= m.movStart {
		return m.movable
	}
	return m.normal
}

// slotOf returns owner's slot in the owner table, giving a new owner a
// recycled slot or a new one.
func (m *Mem) slotOf(owner uint32) uint32 {
	if s, ok := m.ownerSlot[owner]; ok {
		return s
	}
	var s uint32
	if k := len(m.freeSlots) - 1; k >= 0 {
		s = m.freeSlots[k]
		m.freeSlots = m.freeSlots[:k]
		m.owners[s].id = owner
	} else {
		s = uint32(len(m.owners))
		m.owners = append(m.owners, ownerList{id: owner})
	}
	m.ownerSlot[owner] = s
	return s
}

// ownerPages returns owner's pages, nil for an owner without a slot.
func (m *Mem) ownerPages(owner uint32) []PFN {
	if owner == m.lastOwner {
		return m.owners[m.lastSlot].pages
	}
	s, ok := m.ownerSlot[owner]
	if !ok {
		return nil
	}
	m.lastOwner, m.lastSlot = owner, s
	return m.owners[s].pages
}

// setAllocated marks a page allocated to the owner in slot s and appends
// it to the owner's list.
func (m *Mem) setAllocated(pfn PFN, movableAlloc bool, s uint32) {
	st := PageUnmovable
	if movableAlloc {
		st = PageMovable
	}
	m.pages[pfn] = pageMeta{state: st, slot: s}
	o := &m.owners[s]
	m.posInOwner[pfn] = int32(len(o.pages))
	o.pages = append(o.pages, pfn)
	m.usedPages++
	if m.pageTap != nil {
		m.pageTap(pfn, true)
	}
}

// clearAllocated removes owner bookkeeping; the caller decides the next
// page state.
func (m *Mem) clearAllocated(pfn PFN) {
	o := &m.owners[m.pages[pfn].slot]
	pos := m.posInOwner[pfn]
	last := o.pages[len(o.pages)-1]
	o.pages[pos] = last
	m.posInOwner[last] = pos
	o.pages = o.pages[:len(o.pages)-1]
	m.usedPages--
	if m.pageTap != nil {
		m.pageTap(pfn, false)
	}
}

// AllocPages allocates n pages for owner, movable or unmovable, returning
// the PFNs in allocation order. Unmovable allocations are served from the
// Normal zone only; movable allocations prefer the Movable zone. Fails
// with ErrNoMemory (rolling back) if memory is exhausted.
func (m *Mem) AllocPages(n int64, movableAlloc bool, owner uint32) ([]PFN, error) {
	if n <= 0 {
		return nil, fmt.Errorf("kernel: non-positive allocation %d", n)
	}
	// Size the result once, but never beyond the free pages: a request
	// that cannot fit fails (or reclaims and grows) rather than
	// allocating its full size first.
	avail := m.normal.Free()
	if movableAlloc && m.movable != nil {
		avail += m.movable.Free()
	}
	got, err := m.alloc(make([]PFN, 0, min(n, avail)), n, movableAlloc, m.slotOf(owner))
	if err != nil {
		return nil, err
	}
	return got, nil
}

// alloc appends n pages for the owner in slot s to got. On failure it
// frees the pages it took and returns got as it came.
func (m *Mem) alloc(got []PFN, n int64, movableAlloc bool, s uint32) ([]PFN, error) {
	start := len(got)
	remaining := n
	zones := []*buddy{m.normal}
	if movableAlloc && m.movable != nil {
		zones = []*buddy{m.movable, m.normal}
	}
	for _, z := range zones {
		for remaining > 0 {
			order := orderFor(remaining, z.maxOrder)
			pfn, ok := z.alloc(order)
			if !ok {
				if order == 0 {
					break // zone exhausted, try next
				}
				// Retry smaller orders before giving up on the zone.
				found := false
				for o := order - 1; o >= 0; o-- {
					if pfn, ok = z.alloc(o); ok {
						order, found = o, true
						break
					}
				}
				if !found {
					break
				}
			}
			cnt := int64(1) << order
			for i := int64(0); i < cnt; i++ {
				m.setAllocated(pfn+PFN(i), movableAlloc, s)
				got = append(got, pfn+PFN(i))
			}
			remaining -= cnt
		}
		if remaining == 0 {
			break
		}
	}
	if remaining > 0 {
		// Direct reclaim: give the configured reclaimer one chance to
		// free memory (swap-out), then retry. The guard prevents
		// recursion when the reclaimer itself allocates.
		if m.reclaimer != nil && !m.reclaiming {
			m.reclaiming = true
			ok := m.reclaimer(remaining)
			m.reclaiming = false
			if ok {
				if more, err := m.alloc(got, remaining, movableAlloc, s); err == nil {
					return more, nil
				}
			}
		}
		for _, pfn := range got[start:] {
			m.freeOne(pfn)
		}
		return got[:start], ErrNoMemory
	}
	return got, nil
}

// ErrNoMemory is returned when an allocation cannot be satisfied.
var ErrNoMemory = fmt.Errorf("kernel: out of memory")

// orderFor picks the largest order not exceeding remaining.
func orderFor(remaining int64, maxOrder int) int {
	o := bits.Len64(uint64(remaining)) - 1
	if o > maxOrder {
		o = maxOrder
	}
	return o
}

// freeOne releases a single allocated page back to its zone.
func (m *Mem) freeOne(pfn PFN) {
	st := m.pages[pfn].state
	if st != PageMovable && st != PageUnmovable {
		panic(fmt.Sprintf("kernel: freeing page %d in state %v", pfn, st))
	}
	m.clearAllocated(pfn)
	m.pages[pfn] = pageMeta{state: PageFree}
	m.zoneFor(pfn).freeBlock(pfn, 0)
}

// FreeOwnerPages frees the n most recently allocated pages of owner
// (LIFO, matching heap shrink). Freeing more than owned frees everything.
// Returns the number freed.
func (m *Mem) FreeOwnerPages(owner uint32, n int64) int64 {
	s, ok := m.ownerSlot[owner]
	if !ok {
		return 0
	}
	return m.freeLast(s, n)
}

// freeLast frees up to n pages from the end of slot s's list.
func (m *Mem) freeLast(s uint32, n int64) int64 {
	freed := int64(0)
	for freed < n {
		lst := m.owners[s].pages
		if len(lst) == 0 {
			break
		}
		m.freeOne(lst[len(lst)-1]) // shrinks the list
		freed++
	}
	return freed
}

// OwnerPageCount reports the pages currently held by owner.
func (m *Mem) OwnerPageCount(owner uint32) int64 {
	return int64(len(m.ownerPages(owner)))
}

// FreeOwner releases every page of an owner (process/VM exit) and, except
// for KernelOwner, its slot in the owner table.
func (m *Mem) FreeOwner(owner uint32) int64 {
	s, ok := m.ownerSlot[owner]
	if !ok {
		return 0
	}
	n := m.freeLast(s, int64(len(m.owners[s].pages)))
	if s != 0 {
		delete(m.ownerSlot, owner)
		m.owners[s] = ownerList{pages: m.owners[s].pages[:0]}
		m.freeSlots = append(m.freeSlots, s)
		if m.lastOwner == owner {
			m.lastOwner, m.lastSlot = KernelOwner, 0
		}
	}
	return n
}

// carveSpecific pulls one specific free page out of its zone's free lists.
func (m *Mem) carveSpecific(pfn PFN) bool {
	return m.zoneFor(pfn).carve(pfn)
}

// MigratePage moves the allocated movable page src to a newly allocated
// frame outside [avoidLo, avoidHi), preserving owner. Returns the new PFN.
// Fails with ErrNoMemory when no target frame exists (the EAGAIN path of
// off-lining).
func (m *Mem) MigratePage(src PFN, avoidLo, avoidHi PFN) (PFN, error) {
	return m.MigratePageAvoid(src, func(p PFN) bool { return p >= avoidLo && p < avoidHi })
}

// MigratePageAvoid is MigratePage with an arbitrary destination filter
// (RAMZzz avoids every victim rank at once).
func (m *Mem) MigratePageAvoid(src PFN, avoid func(PFN) bool) (PFN, error) {
	if m.pages[src].state != PageMovable {
		return 0, fmt.Errorf("kernel: page %d is %v, not movable", src, m.pages[src].state)
	}
	s := m.pages[src].slot
	// Allocate a destination; retry while the allocator hands us frames
	// inside the avoided range (they would be isolated next anyway).
	var rejected []PFN
	var dst PFN = -1
	var one [1]PFN
	for {
		got, err := m.alloc(one[:0], 1, true, s)
		if err != nil {
			break
		}
		p := got[0]
		if avoid != nil && avoid(p) {
			rejected = append(rejected, p)
			continue
		}
		dst = p
		break
	}
	for _, p := range rejected {
		m.freeOne(p)
	}
	if dst < 0 {
		return 0, ErrNoMemory
	}
	// Release the source frame but leave it OUT of the free lists: the
	// off-lining path isolates it; online paths return it to the buddy.
	m.clearAllocated(src)
	m.pages[src] = pageMeta{state: PageIsolated}
	m.migrations++
	for _, fn := range m.onMigrate {
		fn(src, dst)
	}
	return dst, nil
}

// --- memory-hotplug support interface (used by internal/hotplug) ---
//
// These primitives correspond to the steps of mm/memory_hotplug.c's
// offline_pages()/online_pages(): isolating free pages out of the buddy
// allocator, releasing isolation on rollback, and moving whole page ranges
// between the online and offline worlds with accounting adjustments.

// Isolate removes a FREE page from the buddy allocator and marks it
// isolated. Reports false if the page is not free.
func (m *Mem) Isolate(pfn PFN) bool {
	if m.pages[pfn].state != PageFree {
		return false
	}
	if !m.carveSpecific(pfn) {
		return false
	}
	m.pages[pfn].state = PageIsolated
	return true
}

// Unisolate returns an isolated page to the buddy allocator (rollback).
func (m *Mem) Unisolate(pfn PFN) {
	if m.pages[pfn].state != PageIsolated {
		panic(fmt.Sprintf("kernel: unisolate page %d in state %v", pfn, m.pages[pfn].state))
	}
	m.pages[pfn].state = PageFree
	m.zoneFor(pfn).freeBlock(pfn, 0)
}

// MarkOffline transitions an isolated page to offline and removes it from
// the on-line capacity accounting.
func (m *Mem) MarkOffline(pfn PFN) {
	if m.pages[pfn].state != PageIsolated {
		panic(fmt.Sprintf("kernel: offline page %d in state %v", pfn, m.pages[pfn].state))
	}
	m.pages[pfn].state = PageOffline
	m.onlinePages--
}

// MarkOnline brings an offline page back as free capacity.
func (m *Mem) MarkOnline(pfn PFN) {
	if m.pages[pfn].state != PageOffline {
		panic(fmt.Sprintf("kernel: online page %d in state %v", pfn, m.pages[pfn].state))
	}
	m.pages[pfn].state = PageFree
	m.zoneFor(pfn).freeBlock(pfn, 0)
	m.onlinePages++
}

// --- KSM support interface (used by internal/ksm) ---

// FreePage releases one specific allocated page (KSM frees duplicate
// frames after merging). The page must be movable or unmovable.
func (m *Mem) FreePage(pfn PFN) {
	m.freeOne(pfn)
}

// Reassign transfers an allocated page to a new owner (KSM takes ownership
// of shared write-protected frames so VM teardown cannot free them).
func (m *Mem) Reassign(pfn PFN, newOwner uint32) {
	st := m.pages[pfn].state
	if st != PageMovable && st != PageUnmovable {
		panic(fmt.Sprintf("kernel: reassigning page %d in state %v", pfn, st))
	}
	m.clearAllocated(pfn)
	m.setAllocated(pfn, st == PageMovable, m.slotOf(newOwner))
}

// OwnerPage returns the i-th page of owner in allocation order (address
// generators map virtual page indexes to frames through this).
func (m *Mem) OwnerPage(owner uint32, i int64) PFN {
	return m.ownerPages(owner)[i]
}

// MovableZoneBytes reports the size of the Movable zone (0 without one).
func (m *Mem) MovableZoneBytes() int64 {
	if m.movable == nil {
		return 0
	}
	return m.movable.npages * m.cfg.PageBytes
}

// MovableFreeBytes reports free bytes inside the Movable zone.
func (m *Mem) MovableFreeBytes() int64 {
	if m.movable == nil {
		return 0
	}
	return m.movable.Free() * m.cfg.PageBytes
}
