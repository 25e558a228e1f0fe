package kernel_test

import (
	"fmt"
	"runtime"
	"testing"

	"greendimm/internal/kernel"
)

// raceEnabled is set by race_test.go in race-detector builds, whose
// sync.Pool drops a share of puts at random.
var raceEnabled bool

// bootRecycled boots cfg's machine from the storage of a machine that
// dirty leaves mid-workload and then releases, and returns both. A
// sync.Pool may drop a put value (the race detector drops a share on
// purpose), so it retries until the boot gets that storage.
func bootRecycled(t *testing.T, cfg kernel.Config, dirty func(*kernel.Mem)) (recycled, released *kernel.Mem) {
	t.Helper()
	for try := 0; try < 20; try++ {
		old, err := kernel.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dirty(old)
		arrays := kernel.PageArray(old)
		old.Release()
		mem, err := kernel.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if kernel.PageArray(mem) == arrays {
			return mem, old
		}
		mem.Release()
	}
	t.Fatal("no boot recycled a released machine's storage in 20 tries")
	return nil, nil
}

// dirtyMem leaves mem as a cell's machine is left when its run ends:
// owners of every size, some torn down so their slots are free, frames
// isolated, frames off-lined, and the hooks installed.
func dirtyMem(t *testing.T, mem *kernel.Mem) {
	t.Helper()
	mem.SetPageTap(func(kernel.PFN, bool) {})
	mem.OnMigrate(func(_, _ kernel.PFN) {})
	for owner := uint32(1); owner <= 12; owner++ {
		if err := mem.Alloc(int64(owner)*13, owner%3 != 0, owner); err != nil {
			t.Fatal(err)
		}
	}
	mem.FreeOwner(4)
	mem.FreeOwner(9)
	mem.FreeOwnerPages(7, 40)
	var isolated int
	for p := kernel.PFN(mem.NPages()) - 1; p >= 0 && isolated < 300; p-- {
		if mem.Isolate(p) {
			if isolated%2 == 0 {
				mem.MarkOffline(p)
			}
			isolated++
		}
	}
	if isolated < 300 {
		t.Fatalf("isolated only %d frames", isolated)
	}
}

// memQueries lists every answer mem gives about its frames: the
// accounting totals, each frame's owner and state, and each oracle
// owner's swapped count and pages in OwnerPage order.
func memQueries(mem *kernel.Mem) []int64 {
	mi := mem.Meminfo()
	normal, movable := kernel.ZoneFree(mem)
	outs, ins := mem.SwapTraffic()
	q := []int64{mi.TotalBytes, mi.FreeBytes, mi.UsedBytes, normal, movable,
		mem.Migrations(), outs, ins, mem.SwapUsedBytes(), int64(kernel.OwnerSlots(mem))}
	for p := kernel.PFN(0); p < kernel.PFN(mem.NPages()); p++ {
		q = append(q, int64(mem.Owner(p))<<8|int64(mem.State(p)))
	}
	for _, owner := range ownerOracleIDs {
		n := mem.OwnerPageCount(owner)
		q = append(q, mem.SwappedPageCount(owner), n)
		for i := int64(0); i < n; i++ {
			q = append(q, int64(mem.OwnerPage(owner, i)))
		}
	}
	return q
}

// diffQueries describes the first answer where got departs from want.
func diffQueries(got, want []int64) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("answer %d of %d is %#x, fresh %#x (10 totals, then owner<<8|state per frame, then owner lists)",
				i, len(want), got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d answers, fresh %d", len(got), len(want))
	}
	return ""
}

// TestRecycledMemMatchesFresh boots from storage that a machine released
// mid-workload, with owner lists still full and frames isolated and
// off-lined, then drives the owner oracle's op mix on it and on a freshly
// allocated machine. Every query must answer alike, at boot and after
// every op: a boot must clear every page's metadata and find every owner
// list empty.
func TestRecycledMemMatchesFresh(t *testing.T) {
	const steps = 300
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := ownerOracleConfig(seed)
			// Two collections empty the storage pool, so this boot
			// allocates its arrays.
			runtime.GC()
			runtime.GC()
			fresh, err := kernel.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := map[int][]int64{-1: memQueries(fresh)}
			ownerOracleDrive(t, fresh, seed, steps, func(step int, _ string) { want[step] = memQueries(fresh) })

			mem, _ := bootRecycled(t, cfg, func(m *kernel.Mem) { dirtyMem(t, m) })
			if d := diffQueries(memQueries(mem), want[-1]); d != "" {
				t.Fatalf("at boot: %s", d)
			}
			ownerOracleDrive(t, mem, seed, steps, func(step int, op string) {
				w, ok := want[step]
				if !ok {
					t.Fatalf("step %d %s ran on the recycled machine only", step, op)
				}
				if d := diffQueries(memQueries(mem), w); d != "" {
					t.Fatalf("step %d %s: %s", step, op, d)
				}
			})
		})
	}
}

// TestReleasedMemPanics: every call on a released machine panics, and
// none reaches the storage the next boot now owns.
func TestReleasedMemPanics(t *testing.T) {
	cfg := kernel.Config{TotalBytes: 8 << 20, PageBytes: 4096, KernelReservedBytes: 64 << 10}
	mem, old := bootRecycled(t, cfg, func(m *kernel.Mem) {
		if err := m.Alloc(50, true, 5); err != nil {
			t.Fatal(err)
		}
	})
	old.Release() // a second Release does nothing
	before := memQueries(mem)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"OwnerPage", func() { old.OwnerPage(5, 0) }},
		{"OwnerPage of the kernel", func() { old.OwnerPage(kernel.KernelOwner, 0) }},
		{"Alloc", func() { _ = old.Alloc(1, true, 5) }},
		{"Alloc for a new owner", func() { _ = old.Alloc(1, true, 6) }},
		{"FreeOwner", func() { old.FreeOwner(5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released machine did not panic", c.name)
				}
			}()
			c.call()
		}()
	}
	if d := diffQueries(memQueries(mem), before); d != "" {
		t.Errorf("calls on the released machine changed the machine booted from its storage: %s", d)
	}
}

// bootReleaseCycle boots the energy matrix's machine (64 GB of 1 MB
// frames), allocates 2 GB to one owner, and releases it.
func bootReleaseCycle(tb testing.TB) {
	mem, err := kernel.New(kernel.Config{TotalBytes: 64 << 30, PageBytes: 1 << 20})
	if err != nil {
		tb.Fatal(err)
	}
	if err := mem.Alloc(2048, true, 100); err != nil {
		tb.Fatal(err)
	}
	mem.Release()
}

// TestBootReleaseSteadyStateAllocs: once a released machine's storage is
// pooled, a boot reuses it. A boot without it allocates 768 KiB of page
// metadata and owner positions, and the 2 GB owner's list 16 KiB more.
func TestBootReleaseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled storage at random")
	}
	const cycles, ceiling = 50, 64 << 10
	bootReleaseCycle(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		bootReleaseCycle(t)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= ceiling {
		t.Fatalf("a boot-allocate-release cycle allocates %d bytes, want under %d", per, ceiling)
	}
}

// BenchmarkBootRelease is kernel's cost per sweep cell: boot the 64 GB
// machine of 1 MB frames, give one owner 2 GB, release the machine.
func BenchmarkBootRelease(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bootReleaseCycle(b)
	}
}
