package server

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fig8Slow is the interruptible workload: non-quick fig8 runs 12 cells
// at tens of milliseconds each, so a poller can reliably catch it
// mid-sweep before forcing a stop.
func fig8Slow() JobSpec {
	return JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "fig8", Seed: 1}}
}

// submitAndInterrupt submits spec and polls until at least minCells
// sweep cells have completed, failing the test if the job reaches a
// terminal state first.
func submitAndInterrupt(t *testing.T, s *Server, spec JobSpec, minCells int) JobView {
	t.Helper()
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		got, ok := s.Get(v.ID)
		if !ok {
			t.Fatalf("job %s vanished", v.ID)
		}
		if got.State.terminal() {
			t.Fatalf("job finished (%s) before %d cells were observed — workload too fast to interrupt", got.State, minCells)
		}
		if got.Progress != nil && got.Progress.CellsDone >= minCells {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("job never reported sweep progress")
	return JobView{}
}

// TestCrashRecoveryResumesFromJournaledCells is the crash e2e the store
// exists for: a multi-cell job is interrupted mid-sweep by a forced
// shutdown (the in-process stand-in for kill -9 — the job is NOT marked
// terminal in the journal), a second server opens the same store,
// re-enqueues the job, resumes from the journaled cells, and produces
// the byte-identical report of an uninterrupted run.
func TestCrashRecoveryResumesFromJournaledCells(t *testing.T) {
	want, err := Execute(fig8Slow(), RunHooks{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 4, StoreDir: dir}
	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mid := submitAndInterrupt(t, s1, fig8Slow(), 2)
	// Forced shutdown: the drain context is already dead, so every job
	// context is canceled immediately and the store record stays open.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Shutdown(dead); err != context.Canceled {
		t.Fatalf("forced shutdown: %v", err)
	}
	if v, _ := s1.Get(mid.ID); v.State != StateCanceled {
		t.Fatalf("interrupted job state = %s, want canceled", v.State)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	recovered, total := s2.List(ListQuery{Recovered: true})
	if total != 1 || len(recovered) != 1 {
		t.Fatalf("recovered jobs = %d, want 1", total)
	}
	rv := recovered[0]
	if !rv.Recovered {
		t.Fatal("recovered job not flagged Recovered")
	}
	final := waitState(t, s2, rv.ID)
	if final.State != StateSucceeded {
		t.Fatalf("recovered job = %s (%s), want succeeded", final.State, final.Error)
	}
	if final.ResumedCells < 2 {
		t.Fatalf("resumed_cells = %d, want >= 2 (journaled progress was %d)", final.ResumedCells, mid.Progress.CellsDone)
	}
	// The journaled cells replay through the memo; only the rest of the
	// 12-cell sweep is simulated.
	if computed, rest := s2.Memo().Computes(), int64(12-final.ResumedCells); computed != rest {
		t.Fatalf("recovered run computed %d memo cells, want 12 - %d resumed = %d", computed, final.ResumedCells, rest)
	}
	if final.Result == nil || final.Result.Text != want.Text {
		t.Fatal("recovered report is not byte-identical to the uninterrupted run")
	}

	// The recovery counters surface on /metrics.
	rr := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, line := range []string{
		"greendimm_jobs_recovered_total 1",
		"greendimm_store_specs 1",
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q", line)
		}
	}
	if !strings.Contains(body, "greendimm_cells_resumed_total") {
		t.Error("metrics missing greendimm_cells_resumed_total")
	}

	// The recovered-job filter is reachable over HTTP too.
	rr = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs?status=recovered", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"recovered": true`) {
		t.Errorf("GET /v1/jobs?status=recovered = %d: %s", rr.Code, rr.Body.String())
	}
}

// TestCancelThenResubmitResumes covers the deliberate-interruption
// sibling of crash recovery: a client cancel closes the journal record
// (no re-enqueue at boot) but keeps its cells, so resubmitting the
// identical spec resumes from them instead of starting cold.
func TestCancelThenResubmitResumes(t *testing.T) {
	want, err := Execute(fig8Slow(), RunHooks{})
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Workers: 1, QueueDepth: 4, StoreDir: t.TempDir()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	mid := submitAndInterrupt(t, s, fig8Slow(), 2)
	if _, ok := s.Cancel(mid.ID); !ok {
		t.Fatal("cancel: unknown job")
	}
	if v := waitState(t, s, mid.ID); v.State != StateCanceled {
		t.Fatalf("canceled job = %s", v.State)
	}

	computed := s.Memo().Computes()
	v2, err := s.Submit(fig8Slow())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if v2.Cached {
		t.Fatal("canceled job left a cached result")
	}
	final := waitState(t, s, v2.ID)
	if final.State != StateSucceeded {
		t.Fatalf("resubmitted job = %s (%s)", final.State, final.Error)
	}
	if final.ResumedCells < 2 {
		t.Fatalf("resubmission resumed %d cells, want >= 2", final.ResumedCells)
	}
	if got, most := s.Memo().Computes()-computed, int64(12-final.ResumedCells); got > most {
		t.Fatalf("resubmission computed %d memo cells, want at most 12 - %d resumed = %d", got, final.ResumedCells, most)
	}
	if final.Recovered {
		t.Fatal("a live resubmission must not be flagged Recovered")
	}
	if final.Result == nil || final.Result.Text != want.Text {
		t.Fatal("resumed report diverged from the cold run")
	}
}
