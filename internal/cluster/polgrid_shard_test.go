package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/server"
)

// polgridSpec is the policy-pipeline ablation as a job: an 18-cell
// (tracker x policy) x workload matrix sweep, shardable like the paper
// figures.
func polgridSpec() server.JobSpec {
	return server.JobSpec{Kind: server.KindExperiment, Experiment: &server.ExperimentSpec{ID: "polgrid", Quick: true, Seed: 1}}
}

// TestShardPolicyGridMergeDeterminism: the polgrid matrix fanned out
// across two real backends must merge to report bytes identical to a
// single-node run — the new experiment composes with cell-range
// sharding exactly like fig8 does.
func TestShardPolicyGridMergeDeterminism(t *testing.T) {
	want := mustFingerprint(t, localExec(t, polgridSpec()))
	sr, ctr := newShardHarness(t, 2, ShardOptions{CellsPerShard: 4})
	res, err := sr.Run(polgridSpec(), server.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustFingerprint(t, res); got != want {
		t.Fatalf("sharded polgrid diverged from single-node run: %s vs %s", got, want)
	}
	// ceil(18/4) = 5 near-equal shards.
	if sj, s := ctr.ShardJobs.Load(), ctr.Shards.Load(); sj != 1 || s != 5 {
		t.Fatalf("counters: shard_jobs=%d shards=%d, want 1/5", sj, s)
	}
}

// paced slows run down to test speed: every sweep cell costs a few
// extra milliseconds, so an 18-cell grid stays in flight long enough
// for the coordinator test to crash it mid-sweep.
func paced(run func(server.JobSpec, server.RunHooks) (*server.Result, error)) func(server.JobSpec, server.RunHooks) (*server.Result, error) {
	return func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
		inner := h.CellObserved
		h.CellObserved = func(a exp.CellArtifact) {
			time.Sleep(4 * time.Millisecond)
			if inner != nil {
				inner(a)
			}
		}
		return run(spec, h)
	}
}

// polgridCoordinator stands up the full daemon composition under test:
// a coordinator with a durable store (-store-dir) whose runner fans
// matrix jobs out across two real backends as cell-range shards
// (-shard-cells) and merges on the server's own memo, plus a counter
// observing every cell the coordinator offers its journal.
func polgridCoordinator(t *testing.T, dir string, observed *atomic.Int64) *server.Server {
	t.Helper()
	ctr := &Counters{}
	var urls []string
	for i := 0; i < 2; i++ {
		hs, _ := newBackend(t, server.Config{Workers: 1, QueueDepth: 16, Runner: paced(server.Execute)})
		urls = append(urls, hs.URL)
	}
	pool := NewPool(urls, PoolConfig{Client: fastClient(ctr)})
	d := NewDispatcher(pool, Options{Counters: ctr})
	cfg := server.Config{Workers: 1, QueueDepth: 4, StoreDir: dir}
	cfg.Memo = cfg.NewMemo()
	sr, err := NewShardRunner(d, ShardOptions{CellsPerShard: 2, Exec: paced(cfg.BaseRunner()), Counters: ctr})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Runner = func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
		inner := h.CellObserved
		h.CellObserved = func(a exp.CellArtifact) {
			observed.Add(1)
			if inner != nil {
				inner(a)
			}
		}
		return sr.Run(spec, h)
	}
	s, err := server.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardPolicyGridStoreRecovery is the acceptance e2e for the new
// experiment: polgrid runs through cluster.ShardRunner over a durable
// store, the coordinator is crashed mid-grid (forced shutdown, job left
// open in the journal), and a second coordinator over the same store
// re-enqueues it, resumes from the journaled cells, and merges the
// byte-identical single-node report, journaling each cell once.
func TestShardPolicyGridStoreRecovery(t *testing.T) {
	want := localExec(t, polgridSpec())
	dir := t.TempDir()

	var observed1 atomic.Int64
	s1 := polgridCoordinator(t, dir, &observed1)
	v, err := s1.Submit(polgridSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for observed1.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never journaled sweep cells")
		}
		got, ok := s1.Get(v.ID)
		if !ok {
			t.Fatalf("job %s vanished", v.ID)
		}
		if got.State == server.StateSucceeded || got.State == server.StateFailed || got.State == server.StateCanceled {
			t.Fatalf("job reached %s before 4 cells were journaled — grid too fast to interrupt", got.State)
		}
		time.Sleep(time.Millisecond)
	}
	// Forced shutdown: the drain context is already dead, so the job is
	// cut off immediately and its store record stays open.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Shutdown(dead); err != context.Canceled {
		t.Fatalf("forced shutdown: %v", err)
	}

	s2 := polgridCoordinator(t, dir, new(atomic.Int64))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	recovered, total := s2.List(server.ListQuery{Recovered: true})
	if total != 1 || len(recovered) != 1 {
		t.Fatalf("recovered jobs = %d, want 1", total)
	}
	rv := recovered[0]
	final, ok := s2.Get(rv.ID)
	for deadline := time.Now().Add(60 * time.Second); ; {
		if ok && (final.State == server.StateSucceeded || final.State == server.StateFailed || final.State == server.StateCanceled) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job stuck in %s", final.State)
		}
		time.Sleep(2 * time.Millisecond)
		final, ok = s2.Get(rv.ID)
	}
	if final.State != server.StateSucceeded {
		t.Fatalf("recovered job = %s (%s), want succeeded", final.State, final.Error)
	}
	if final.ResumedCells < 4 {
		t.Fatalf("resumed_cells = %d, want >= 4 (journaled before the crash: %d)", final.ResumedCells, observed1.Load())
	}
	if final.Result == nil || final.Result.Text != want.Text {
		t.Fatal("recovered sharded polgrid report is not byte-identical to the single-node run")
	}
	// The merge replays the journaled cells with the new shards' and
	// must compute strictly fewer cells than the full grid — resuming,
	// not restarting. Its replays reach the journal again, which holds
	// each key once.
	if n := s2.Memo().Computes(); n >= 18 {
		t.Fatalf("second coordinator's merge computed %d memo cells; it restarted instead of resuming", n)
	}
	checkJournaledOnce(t, dir, 18)
}
