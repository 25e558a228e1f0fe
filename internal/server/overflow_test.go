package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newFullServer starts a one-worker, one-slot daemon with the given
// Overflow hook and fills it: job 1 runs (until release closes), job 2
// waits in the queue, so the next submission overflows.
func newFullServer(t *testing.T, overflow func(JobSpec) (func(JobSpec, RunHooks) (*Result, error), error)) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{Workers: 1, QueueDepth: 1, Overflow: overflow,
		Runner: func(JobSpec, RunHooks) (*Result, error) {
			started <- struct{}{}
			<-release
			return &Result{}, nil
		}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if resp, _ := postJob(t, ts, specN(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d", resp.StatusCode)
	}
	<-started
	if resp, _ := postJob(t, ts, specN(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d", resp.StatusCode)
	}
	return s, ts, release
}

// scrape fetches /metrics.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func wantMetrics(t *testing.T, body string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(body, w) {
			t.Errorf("metrics missing %q", w)
		}
	}
}

// TestOverflowCountsAsSubmitted: an overflowed job is an accepted
// submission, not a rejection, and occupies no pool worker while it
// runs elsewhere.
func TestOverflowCountsAsSubmitted(t *testing.T) {
	placedDone := make(chan struct{})
	s, ts, release := newFullServer(t, func(JobSpec) (func(JobSpec, RunHooks) (*Result, error), error) {
		return func(JobSpec, RunHooks) (*Result, error) {
			<-placedDone
			return &Result{Text: "placed\n"}, nil
		}, nil
	})
	defer func() { close(release); shutdown(t, s) }()

	resp, v := postJob(t, ts, specN(3))
	if resp.StatusCode != http.StatusAccepted || v.State != StateRunning || v.ID != "j000003" {
		t.Fatalf("overflow submission: %d %+v", resp.StatusCode, v)
	}
	wantMetrics(t, scrape(t, ts),
		"greendimm_jobs_submitted_total 3",
		`greendimm_jobs_rejected_total{reason="queue_full"} 0`,
		"greendimm_workers_busy 1",
		`greendimm_jobs{state="running"} 2`,
	)

	close(placedDone)
	if v = getJob(t, ts, v.ID, "?wait=10s"); v.State != StateSucceeded || v.Result == nil || v.Result.Text != "placed\n" {
		t.Fatalf("overflowed job: %+v", v)
	}
}

// TestOverflowErrorRejects: a job no peer accepts gets the plain
// 429-with-Retry-After contract and counts as rejected.
func TestOverflowErrorRejects(t *testing.T) {
	s, ts, release := newFullServer(t, func(JobSpec) (func(JobSpec, RunHooks) (*Result, error), error) {
		return nil, errors.New("no healthy peer")
	})
	defer func() { close(release); shutdown(t, s) }()

	resp, _ := postJob(t, ts, specN(3))
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("overflow error: status %d, Retry-After %q; want 429 with a hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	wantMetrics(t, scrape(t, ts),
		"greendimm_jobs_submitted_total 2",
		`greendimm_jobs_rejected_total{reason="queue_full"} 1`,
	)
}

// TestOverflowShutdownDuringPlacement: when Shutdown begins while a job
// is being placed, the submission gets 503 and the placed copy is
// aborted: its runner runs with Stop already true.
func TestOverflowShutdownDuringPlacement(t *testing.T) {
	placing := make(chan struct{})
	proceed := make(chan struct{})
	stopAtEntry := make(chan bool, 1)
	s, ts, release := newFullServer(t, func(JobSpec) (func(JobSpec, RunHooks) (*Result, error), error) {
		close(placing)
		<-proceed
		return func(_ JobSpec, h RunHooks) (*Result, error) {
			stopAtEntry <- h.Stop()
			return nil, errors.New("aborted")
		}, nil
	})

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"experiment","experiment":{"id":"hwcost","seed":3}}`))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-placing
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(proceed)

	if code := <-status; code != http.StatusServiceUnavailable {
		t.Errorf("submission during shutdown: status %d, want 503", code)
	}
	select {
	case stopped := <-stopAtEntry:
		if !stopped {
			t.Error("placed runner ran with Stop false; the placed job would keep running")
		}
	default:
		t.Error("placed runner never ran; the placed job would keep running")
	}
	close(release)
	if err := <-drained; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	if _, ok := s.Get("j000003"); ok {
		t.Error("refused job took an id")
	}
}
