package server

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func quickSpec(id string, parallelism int) JobSpec {
	return JobSpec{
		Kind:        KindExperiment,
		Experiment:  &ExperimentSpec{ID: id, Quick: true, Seed: 1},
		Parallelism: parallelism,
	}
}

func runToSuccess(t *testing.T, s *Server, spec JobSpec) JobView {
	t.Helper()
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitState(t, s, v.ID)
	if final.State != StateSucceeded {
		t.Fatalf("job = %s (%s), want succeeded", final.State, final.Error)
	}
	return final
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func metricsText(s *Server) string {
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	return rr.Body.String()
}

// copyJournal copies a store directory's files into a fresh one.
func copyJournal(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestWarmRestartServesWithoutRecompute is the recovery e2e the warm
// boot exists for: a daemon runs fig12, restarts on the same
// -store-dir, and serves fig13 — a different spec, whose cells are
// fig12's traced days — with no cell recomputed and the report a cold
// run prints, at parallelism 1 and 8. fig13 has no journal record of
// its own, so the warmth can only come from the cells fig12 journaled.
// Each parallelism boots its own copy of the journal: a second fig13 on
// one daemon would be a result-cache hit.
func TestWarmRestartServesWithoutRecompute(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: 8, StoreDir: dir}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runToSuccess(t, s1, quickSpec("fig12", 1))
	if got := s1.Memo().Computes(); got == 0 {
		t.Fatal("cold run recorded no memo computes")
	}
	shutdownServer(t, s1)
	dirs := map[int]string{1: dir, 8: copyJournal(t, dir)}

	cold, err := Execute(quickSpec("fig13", 1), RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 8} {
		cfg.StoreDir = dirs[par]
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if s.MemoImported() == 0 {
			t.Fatal("reopened daemon imported no memo entries")
		}
		warm := runToSuccess(t, s, quickSpec("fig13", par))
		if warm.Result == nil || warm.Result.Text != cold.Text {
			t.Fatalf("parallelism %d: warm fig13 report diverged from a cold run", par)
		}
		if got := s.Memo().Computes(); got != 0 {
			t.Fatalf("parallelism %d: warm daemon recomputed %d cells, want 0", par, got)
		}
		// The warm state surfaces on /metrics.
		wantMetrics(t, metricsText(s),
			"greendimm_memo_entries",
			"greendimm_memo_imports_total",
			"greendimm_memo_computes_total 0\n")
		shutdownServer(t, s)
	}
}

// TestStoreDirHoldsOneJournal runs a fresh tab3 quick job on a durable
// server. The store directory holds the job journal and nothing else,
// and the job appends four records to it: accept, its two cells and
// finish, so each cell is written to disk once. A memo/ directory, as
// earlier builds kept beside the journal, is ignored at the next boot.
func TestStoreDirHoldsOneJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 4, StoreDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runToSuccess(t, s, quickSpec("tab3", 0))
	wantMetrics(t, metricsText(s), "greendimm_store_wal_records_total 4\n", "greendimm_store_cells 2\n")
	shutdownServer(t, s)
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name() != "wal.log" {
			t.Errorf("store directory holds %s beside the journal's wal.log", f.Name())
		}
	}

	memoDir := filepath.Join(dir, "memo")
	if err := os.MkdirAll(memoDir, 0o755); err != nil {
		t.Fatal(err)
	}
	torn := `{"seq":12,"v":1,"entries":[{"key":"timing|x","val`
	if err := os.WriteFile(filepath.Join(memoDir, "snapshot.json"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(cfg)
	if err != nil {
		t.Fatalf("Open beside a leftover memo/ directory: %v", err)
	}
	defer shutdownServer(t, s)
	if n := s.MemoImported(); n != 2 {
		t.Fatalf("MemoImported = %d, want the journal's 2 cells", n)
	}
}
