package exp

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in race-detector builds, whose
// sync.Pool drops a share of puts at random.
var raceEnabled bool

// TestEnergyMatrixAllocCeiling caps the garbage of one quick fig9
// regeneration. Its 45 machines boot from storage that earlier cells
// released, and its 30 controllers record into released latency
// buffers. Without that, each boot allocates 768 KiB of page arrays and
// each controller 1 MiB of buffers, 83.6 MB a regeneration in all, and
// the collector runs every few milliseconds.
func TestEnergyMatrixAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled storage at random")
	}
	const ceiling = 12 << 20
	opts := Options{Quick: true, Seed: 1, Parallelism: 1}
	fig9 := Registry()["fig9"]
	if _, _, err := fig9(opts); err != nil { // warm-up: fills the pools
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := fig9(opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a quick fig9 regeneration allocated %.2f MB", float64(got)/1e6)
	if got >= ceiling {
		t.Fatalf("a quick fig9 regeneration allocated %.1f MB, want under %.0f MB", float64(got)/1e6, float64(ceiling)/(1<<20))
	}
}
