package metrics

import (
	"runtime"
	"testing"
)

// TestDistributionExactMeanN pins the running-moment contract: Mean and
// N are exact whether or not a cap bounds percentile storage.
func TestDistributionExactMeanN(t *testing.T) {
	var capped, full Distribution
	capped.SetCap(16)
	n := 10000
	for i := 1; i <= n; i++ {
		capped.Add(float64(i))
		full.Add(float64(i))
	}
	if capped.N() != n || full.N() != n {
		t.Fatalf("N = %d (capped), %d (full), want %d", capped.N(), full.N(), n)
	}
	want := float64(n+1) / 2
	if got := capped.Mean(); got != want {
		t.Fatalf("capped Mean = %g, want %g", got, want)
	}
	if got := full.Mean(); got != want {
		t.Fatalf("full Mean = %g, want %g", got, want)
	}
	if got := len(capped.samples); got > 16 {
		t.Fatalf("capped distribution retains %d samples, cap is 16", got)
	}
}

// TestDistributionCapDeterministic checks that the decimated subset is a
// pure function of the Add sequence: two distributions fed the same
// stream retain identical samples and answer identical percentiles.
func TestDistributionCapDeterministic(t *testing.T) {
	var a, b Distribution
	a.SetCap(64)
	b.SetCap(64)
	for i := 0; i < 100000; i++ {
		v := float64((i*2654435761 + 1) % 997)
		a.Add(v)
		b.Add(v)
	}
	if len(a.samples) != len(b.samples) {
		t.Fatalf("retained %d vs %d samples for identical streams", len(a.samples), len(b.samples))
	}
	for i := range a.samples {
		if a.samples[i] != b.samples[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, a.samples[i], b.samples[i])
		}
	}
	for _, p := range []float64{0, 50, 95, 99, 100} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("P%g differs across identical streams", p)
		}
	}
}

// TestDistributionCapPercentileAccuracy sanity-checks that the retained
// subset still tracks the underlying distribution: percentiles of a
// uniform ramp stay within a few percent of the true quantile.
func TestDistributionCapPercentileAccuracy(t *testing.T) {
	var d Distribution
	d.SetCap(1024)
	n := 200000
	for i := 0; i < n; i++ {
		d.Add(float64(i))
	}
	for _, p := range []float64{10, 50, 90, 99} {
		got := d.Percentile(p)
		want := p / 100 * float64(n)
		if diff := got - want; diff < -0.05*float64(n) || diff > 0.05*float64(n) {
			t.Fatalf("P%g = %g, true quantile %g: decimation skewed the subset", p, got, want)
		}
	}
}

// TestDistributionReserveNoGrowth verifies Reserve + steady-state Add
// never reallocates: recording into a reserved buffer is allocation-free.
func TestDistributionReserveNoGrowth(t *testing.T) {
	var d Distribution
	d.Reserve(2048)
	i := 0.0
	avg := testing.AllocsPerRun(2000, func() {
		d.Add(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("Add into reserved buffer allocates %.2f/op, want 0", avg)
	}
}

// TestDistributionCappedAddNoAllocs locks in the hot-path property the
// controller relies on: once capped, Add never allocates — the buffer is
// preallocated by SetCap and compaction happens in place.
func TestDistributionCappedAddNoAllocs(t *testing.T) {
	var d Distribution
	d.SetCap(256)
	i := 0.0
	avg := testing.AllocsPerRun(100000, func() {
		d.Add(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("capped Add allocates %.2f/op, want 0", avg)
	}
}

// TestDistributionRecycledBufferMatchesFresh: a capped Distribution
// recording into the buffer another one released full and decimated
// reports the same N, Mean and percentiles as one on a new buffer, at
// every point of the stream: SetCap must start the buffer empty.
func TestDistributionRecycledBufferMatchesFresh(t *testing.T) {
	const max = 64
	value := func(i int) float64 { return float64((i*2654435761 + 1) % 997) }
	// Two collections empty the pool, so fresh gets a new buffer.
	runtime.GC()
	runtime.GC()
	var fresh Distribution
	fresh.SetCap(max)

	var d Distribution
	for try := 0; ; try++ {
		var old Distribution
		old.SetCap(max)
		for i := 0; i < 5000; i++ {
			old.Add(float64(1000 + i))
		}
		old.Percentile(50) // leave it sorted, too
		buf := &old.samples[:1][0]
		old.Release()
		d = Distribution{}
		d.SetCap(max)
		if &d.samples[:1][0] == buf {
			break
		}
		// The pool may drop a put value; the race detector does so on
		// purpose.
		if try == 20 {
			t.Fatal("no SetCap took a released buffer in 20 tries")
		}
	}
	for i := 0; i < 3000; i++ {
		fresh.Add(value(i))
		d.Add(value(i))
		if i%97 != 0 {
			continue
		}
		if d.N() != fresh.N() || d.Mean() != fresh.Mean() {
			t.Fatalf("after %d samples: N %d mean %g on the released buffer, N %d mean %g fresh",
				i+1, d.N(), d.Mean(), fresh.N(), fresh.Mean())
		}
		for _, p := range []float64{0, 50, 95, 99, 100} {
			if got, want := d.Percentile(p), fresh.Percentile(p); got != want {
				t.Fatalf("after %d samples: P%g = %g on the released buffer, %g fresh", i+1, p, got, want)
			}
		}
	}
}
