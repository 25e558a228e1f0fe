package kernel_test

import (
	"fmt"
	"testing"

	"greendimm/internal/kernel"
	"greendimm/internal/sim"
)

// ownerOracle is the owner bookkeeping the kernel kept before its owner
// table: one map entry per owner id, made by the owner's first page and
// deleted by FreeOwner, and a per-page position for swap-remove. It
// follows the kernel through the page tap, which fires as each page joins
// or leaves its owner; cur names the owner the next joining page belongs
// to (the caller of AllocPages or Reassign, or a migrated page's owner).
type ownerOracle struct {
	pages map[uint32][]kernel.PFN
	pos   map[kernel.PFN]int
	owner map[kernel.PFN]uint32
	cur   uint32
}

func (o *ownerOracle) tap(pfn kernel.PFN, alloc bool) {
	if alloc {
		lst := o.pages[o.cur]
		o.pos[pfn] = len(lst)
		o.pages[o.cur] = append(lst, pfn)
		o.owner[pfn] = o.cur
		return
	}
	owner := o.owner[pfn]
	lst := o.pages[owner]
	pos := o.pos[pfn]
	last := lst[len(lst)-1]
	lst[pos] = last
	o.pos[last] = pos
	o.pages[owner] = lst[:len(lst)-1]
	delete(o.pos, pfn)
	delete(o.owner, pfn)
}

// ownerOracleIDs are the owner ids the random sequences draw from: the
// kernel, KSM's pseudo-owner, and ids far apart, as an admission counter
// leaves them after a long run.
var ownerOracleIDs = []uint32{kernel.KernelOwner, 1, 7, 100, 101, 102, 193, 4000, 1 << 20, 1<<32 - 1}

// TestOwnerIndexMatchesOracle runs seeded random sequences of every call
// that changes page ownership and, after each one, holds the kernel's
// owner table to the map bookkeeping: the same page count for every owner
// id, the same page at every OwnerPage index (the order address
// generation and migration see), and the same Owner of every frame. Owners
// are freed and re-created, so slots are recycled; the table must never
// hold more slots than owners were ever alive at once.
func TestOwnerIndexMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { ownerOracleRun(t, seed, 600) })
	}
}

func ownerOracleRun(t *testing.T, seed int64, steps int) {
	mem, err := kernel.New(ownerOracleConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	ownerOracleDrive(t, mem, seed, steps, nil)
}

// ownerOracleConfig is the machine the oracle sequences run on: small,
// with a Movable zone, a kernel reservation and scattered unmovable pages.
func ownerOracleConfig(seed int64) kernel.Config {
	return kernel.Config{
		TotalBytes: 8 << 20, PageBytes: 4096, MovableBytes: 4 << 20,
		KernelReservedBytes: 256 << 10, UnmovableLeakEvery: 4, Seed: seed,
	}
}

// ownerOracleDrive runs the seeded op sequence on a freshly booted mem,
// holding it to the oracle after every op; after, when set, sees each
// step once the checks pass.
func ownerOracleDrive(t *testing.T, mem *kernel.Mem, seed int64, steps int, after func(step int, op string)) {
	mem.ConfigureSwap(1 << 20)
	o := &ownerOracle{pages: map[uint32][]kernel.PFN{}, pos: map[kernel.PFN]int{}, owner: map[kernel.PFN]uint32{}}
	// Boot ran before the tap could be installed; start from its pages.
	for i := int64(0); i < mem.OwnerPageCount(kernel.KernelOwner); i++ {
		o.cur = kernel.KernelOwner
		o.tap(mem.OwnerPage(kernel.KernelOwner, i), true)
	}
	mem.SetPageTap(o.tap)
	g := sim.NewRNG(seed)

	// live holds the owners the table has a slot for: KernelOwner always,
	// every other id from its first AllocPages or Reassign to FreeOwner.
	// freed holds the owners FreeOwner released; recreated counts those
	// that came back, into whichever slot was free.
	live := map[uint32]bool{kernel.KernelOwner: true}
	freed := map[uint32]bool{}
	peak, recreated, failed := 1, 0, 0
	intern := func(owner uint32) {
		if freed[owner] && !live[owner] {
			recreated++
		}
		live[owner] = true
		peak = max(peak, len(live))
	}
	randomOwner := func() uint32 { return ownerOracleIDs[g.Intn(len(ownerOracleIDs))] }
	randomPage := func() (kernel.PFN, bool) {
		owner := randomOwner()
		n := len(o.pages[owner])
		if n == 0 {
			return 0, false
		}
		return o.pages[owner][g.Intn(n)], true
	}
	// The reclaimer evicts some other owner: swapping out the allocating
	// owner's newest pages would free the very pages the call just took.
	reclaim := func(pages int64) bool {
		victim := randomOwner()
		if victim == o.cur {
			return false
		}
		n, err := mem.SwapOutOwnerPages(victim, pages)
		return err == nil && n > 0
	}

	for step := 0; step < steps; step++ {
		var op string
		switch r := g.Intn(22); {
		case r < 6:
			n := 1 + g.Int63n(40)
			if g.Bool(0.15) {
				n = 200 + g.Int63n(2000) // often more than is free
			}
			movable, owner := g.Bool(0.8), randomOwner()
			if g.Bool(0.2) {
				mem.SetReclaimer(reclaim)
			}
			o.cur = owner
			intern(owner)
			got, err := mem.AllocPages(n, movable, owner)
			mem.SetReclaimer(nil)
			op = fmt.Sprintf("alloc %d %t %d: %d pages, %v", n, movable, owner, len(got), err)
			if err != nil {
				failed++
			} else {
				lst := o.pages[owner]
				for i, p := range got {
					if want := lst[len(lst)-len(got)+i]; p != want {
						t.Fatalf("step %d %s: page %d = %d, oracle appended %d", step, op, i, p, want)
					}
				}
			}
		case r < 9:
			p, ok := randomPage()
			if !ok {
				continue
			}
			op = fmt.Sprintf("free page %d", p)
			mem.FreePage(p)
		case r < 11:
			owner, n := randomOwner(), g.Int63n(30)
			want := min(n, int64(len(o.pages[owner])))
			op = fmt.Sprintf("free %d pages of %d", n, owner)
			if got := mem.FreeOwnerPages(owner, n); got != want {
				t.Fatalf("step %d %s: freed %d, want %d", step, op, got, want)
			}
		case r < 13:
			owner := randomOwner()
			want := int64(len(o.pages[owner]))
			op = fmt.Sprintf("free owner %d", owner)
			if got := mem.FreeOwner(owner); got != want {
				t.Fatalf("step %d %s: freed %d, want %d", step, op, got, want)
			}
			delete(o.pages, owner)
			if owner != kernel.KernelOwner {
				delete(live, owner)
				freed[owner] = true
			}
		case r < 15:
			p, ok := randomPage()
			if !ok {
				continue
			}
			to := randomOwner()
			op = fmt.Sprintf("reassign %d to %d", p, to)
			o.cur = to
			intern(to)
			mem.Reassign(p, to)
		case r < 18:
			p, ok := randomPage()
			if !ok || mem.State(p) != kernel.PageMovable {
				continue
			}
			lo := p &^ 63
			op = fmt.Sprintf("migrate %d out of [%d,%d)", p, lo, lo+64)
			o.cur = o.owner[p]
			if _, err := mem.MigratePage(p, lo, lo+64); err == nil && g.Bool(0.7) {
				mem.Unisolate(p)
			}
		case r < 20:
			p, ok := randomPage()
			if !ok || mem.State(p) != kernel.PageMovable {
				continue
			}
			mod := kernel.PFN(2 + g.Intn(3))
			op = fmt.Sprintf("migrate %d avoiding %%%d", p, mod)
			o.cur = o.owner[p]
			if _, err := mem.MigratePageAvoid(p, func(q kernel.PFN) bool { return q%mod == 0 }); err == nil {
				mem.Unisolate(p)
			}
		default:
			owner, n := randomOwner(), g.Int63n(50)
			op = fmt.Sprintf("swap out %d pages of %d", n, owner)
			_, _ = mem.SwapOutOwnerPages(owner, n)
		}
		checkOwnerOracle(t, mem, o, fmt.Sprintf("step %d %s", step, op))
		if got := kernel.OwnerSlots(mem); got != peak {
			t.Fatalf("step %d %s: owner table has %d slots, want %d (the most owners alive at once)", step, op, got, peak)
		}
		if after != nil {
			after(step, op)
		}
	}
	if failed == 0 || recreated == 0 {
		t.Fatalf("sequence ran %d failing allocations and re-created %d freed owners; want some of each", failed, recreated)
	}
}

// TestFreedOwnerSlotReuse: an owner freed right after a lookup, whose
// slot a new owner then fills, must read as empty, and the new owner must
// see only its own pages.
func TestFreedOwnerSlotReuse(t *testing.T) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 8 << 20, PageBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mem.AllocPages(10, true, 100); err != nil {
		t.Fatal(err)
	}
	if n := mem.OwnerPageCount(100); n != 10 {
		t.Fatalf("OwnerPageCount(100) = %d, want 10", n)
	}
	mem.FreeOwner(100)
	pfns, err := mem.AllocPages(3, true, 101)
	if err != nil {
		t.Fatal(err)
	}
	if n := mem.OwnerPageCount(100); n != 0 {
		t.Errorf("freed owner 100 holds %d pages after its slot was reused", n)
	}
	if n := mem.OwnerPageCount(101); n != 3 {
		t.Errorf("OwnerPageCount(101) = %d, want 3", n)
	}
	for i, p := range pfns {
		if got := mem.OwnerPage(101, int64(i)); got != p || mem.Owner(p) != 101 {
			t.Errorf("OwnerPage(101, %d) = %d owned by %d, want %d owned by 101", i, got, mem.Owner(p), p)
		}
	}
	if got := kernel.OwnerSlots(mem); got != 2 {
		t.Errorf("owner table has %d slots, want 2 (the kernel's and one reused)", got)
	}
}

// checkOwnerOracle compares every owner's list and every frame's owner.
func checkOwnerOracle(t *testing.T, mem *kernel.Mem, o *ownerOracle, where string) {
	t.Helper()
	for _, owner := range ownerOracleIDs {
		lst := o.pages[owner]
		if got := mem.OwnerPageCount(owner); got != int64(len(lst)) {
			t.Fatalf("%s: OwnerPageCount(%d) = %d, oracle %d", where, owner, got, len(lst))
		}
		for i, want := range lst {
			if got := mem.OwnerPage(owner, int64(i)); got != want {
				t.Fatalf("%s: OwnerPage(%d, %d) = %d, oracle %d", where, owner, i, got, want)
			}
		}
	}
	for p := kernel.PFN(0); p < kernel.PFN(mem.NPages()); p++ {
		if got, want := mem.Owner(p), o.owner[p]; got != want {
			t.Fatalf("%s: Owner(%d) = %d, oracle %d", where, p, got, want)
		}
	}
}

// BenchmarkOwnerAllocFree is one VM's life in the owner bookkeeping on
// the VM-trace host, 256 GB of 2 MB pages with 16 resident guests of 4 GB:
// a new owner id, as the admission counter hands them out, faults in
// 16 GB in 2 GB ramp chunks and is then torn down with FreeOwner.
func BenchmarkOwnerAllocFree(b *testing.B) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 256 << 30, PageBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for owner := uint32(100); owner < 116; owner++ {
		if _, err := mem.AllocPages(2048, true, owner); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		owner := uint32(116 + i)
		for chunk := 0; chunk < 8; chunk++ {
			if _, err := mem.AllocPages(1024, true, owner); err != nil {
				b.Fatal(err)
			}
		}
		if n := mem.FreeOwner(owner); n != 8192 {
			b.Fatalf("FreeOwner freed %d pages, want 8192", n)
		}
	}
}

// BenchmarkOwnerPage is the address generators' lookup, once per access:
// an owner's page count, then one of its pages, among eight owners of
// 2,048 pages on a 64 GB machine of 1 MB pages.
func BenchmarkOwnerPage(b *testing.B) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 64 << 30, PageBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	for owner := uint32(40); owner < 48; owner++ {
		if _, err := mem.AllocPages(2048, true, owner); err != nil {
			b.Fatal(err)
		}
	}
	var sum kernel.PFN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := mem.OwnerPageCount(42)
		sum += mem.OwnerPage(42, int64(i)%n)
	}
	if sum < 0 {
		b.Fatal("negative page sum")
	}
}
