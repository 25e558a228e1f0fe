package cluster

import (
	"context"
	"fmt"
	"testing"

	"greendimm/internal/server"
)

// dispatchBatch is the number of jobs one Dispatcher.Run carries in
// BenchmarkDispatcher and TestDispatcherAllocCeiling.
const dispatchBatch = 8

// dispatcherAllocCeiling bounds the allocations of one dispatchBatch-job
// Run against newDispatchBatches' backend, counted across the client,
// the httptest server and the runner: routing, HTTP round trips,
// polling and merge. Fifty-five runs of the test on a 2-vCPU VM, alone,
// in the full package run and beside two CPU-bound loops, read 2,873 to
// 2,926 allocs per batch (the count moves with the number of polls).
// The ceiling is 20% over the highest, so a regression of ~25% fails
// while scheduling jitter does not.
const dispatcherAllocCeiling = 3500

// newDispatchBatches starts one httptest backend with an instant runner
// and returns a function that dispatches the next dispatchBatch jobs to
// it. Every call draws fresh seeds, so no job hits the backend cache and
// each takes the full submit/wait round trip; simulation cost is
// excluded, leaving only the cluster layer's.
func newDispatchBatches(tb testing.TB) func() error {
	backend, _ := newBackend(tb, server.Config{Workers: 4, QueueDepth: 64, CacheEntries: 1,
		Runner: func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
			return &server.Result{Text: fmt.Sprintf("seed %d\n", spec.VMServer.Seed), SimSeconds: 1}, nil
		}})
	pool := NewPool([]string{backend.URL}, PoolConfig{Client: fastClient(nil)})
	d := NewDispatcher(pool, Options{})
	ctx := context.Background()
	seed := int64(0)
	return func() error {
		specs := make([]server.JobSpec, dispatchBatch)
		for j := range specs {
			seed++
			specs[j] = scenSpec(seed)
		}
		_, err := d.Run(ctx, specs)
		return err
	}
}

// BenchmarkDispatcher measures dispatch overhead — routing, HTTP round
// trips, polling, merge — per batch of dispatchBatch jobs.
func BenchmarkDispatcher(b *testing.B) {
	run := newDispatchBatches(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestDispatcherAllocCeiling holds BenchmarkDispatcher's allocs/op under
// dispatcherAllocCeiling. The first batch runs outside the count: it
// dials the connection and grows the server's tables.
func TestDispatcherAllocCeiling(t *testing.T) {
	if raceEnabled {
		// net/http recycles its buffers through sync.Pool, which drops a
		// random share of them under the race detector (3,286 to 3,349
		// allocs per batch in ten runs), so the count is not the code's.
		t.Skip("allocation counts are inflated under the race detector")
	}
	run := newDispatchBatches(t)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var err error
	avg := testing.AllocsPerRun(10, func() {
		if rerr := run(); rerr != nil && err == nil {
			err = rerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg > dispatcherAllocCeiling {
		t.Fatalf("a %d-job dispatch allocates %.0f times, ceiling %d", dispatchBatch, avg, dispatcherAllocCeiling)
	}
}
