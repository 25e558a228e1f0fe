package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greendimm/internal/server"
)

func writeView(w http.ResponseWriter, status int, v server.JobView) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func TestClientRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"blip"}`)
			return
		}
		writeView(w, http.StatusAccepted, server.JobView{ID: "j000001", State: server.StateQueued})
	}))
	defer hs.Close()

	ctr := &Counters{}
	cfg := fastClient(ctr)
	cfg.Retry.MaxAttempts = 4
	c := NewClient(hs.URL, cfg)
	v, err := c.Submit(context.Background(), scenSpec(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if v.ID != "j000001" {
		t.Errorf("id = %q", v.ID)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
	if got := ctr.Snapshot().Retries; got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
}

func TestClientDoesNotRetryBadRequest(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad spec"}`)
	}))
	defer hs.Close()

	c := NewClient(hs.URL, fastClient(nil))
	_, err := c.Submit(context.Background(), scenSpec(1))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want 400 StatusError", err)
	}
	if se.Msg != "bad spec" {
		t.Errorf("msg = %q", se.Msg)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (400 is not transient)", got)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"server: job queue full"}`)
	}))
	defer hs.Close()

	cfg := fastClient(nil)
	cfg.Retry.MaxAttempts = 3
	c := NewClient(hs.URL, cfg)
	_, err := c.Submit(context.Background(), scenSpec(1))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 StatusError", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

func TestClientWaitPollsUntilTerminal(t *testing.T) {
	var polls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) < 3 {
			writeView(w, http.StatusOK, server.JobView{ID: "j1", State: server.StateRunning})
			return
		}
		writeView(w, http.StatusOK, server.JobView{ID: "j1", State: server.StateSucceeded, Result: &server.Result{Text: "done"}})
	}))
	defer hs.Close()

	c := NewClient(hs.URL, fastClient(nil))
	v, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if v.State != server.StateSucceeded || v.Result == nil || v.Result.Text != "done" {
		t.Fatalf("view = %+v", v)
	}
	if got := polls.Load(); got != 3 {
		t.Errorf("polled %d times, want 3", got)
	}
}

func TestRetryDelayShape(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 800 * time.Millisecond}
	for n := 0; n < 10; n++ {
		d := p.delay(n)
		if d > p.MaxDelay {
			t.Errorf("delay(%d) = %v exceeds cap %v", n, d, p.MaxDelay)
		}
		// Equal jitter keeps at least half the exponential spacing.
		base := p.BaseDelay
		for i := 0; i < n && base < p.MaxDelay; i++ {
			base *= 2
		}
		if base > p.MaxDelay {
			base = p.MaxDelay
		}
		if d < base/2 {
			t.Errorf("delay(%d) = %v below half the pre-jitter delay %v", n, d, base)
		}
	}
}

func TestRetryDelayHonorsRetryAfterHint(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	hint := &StatusError{Status: http.StatusTooManyRequests, RetryAfter: 5 * time.Second}
	if d := retryDelay(p, 0, hint); d != 5*time.Second {
		t.Errorf("delay with Retry-After hint = %v, want 5s", d)
	}
	small := &StatusError{Status: http.StatusTooManyRequests, RetryAfter: time.Nanosecond}
	if d := retryDelay(p, 0, small); d > p.MaxDelay {
		t.Errorf("tiny hint must not raise the policy delay, got %v", d)
	}
}

func TestClientConnectionErrorIsTransient(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	hs.Close() // now every dial is refused

	cfg := fastClient(nil)
	cfg.Retry.MaxAttempts = 2
	c := NewClient(hs.URL, cfg)
	start := time.Now()
	_, err := c.Submit(context.Background(), scenSpec(1))
	if err == nil {
		t.Fatal("submit to a closed server succeeded")
	}
	var se *StatusError
	if errors.As(err, &se) {
		t.Fatalf("connection error surfaced as StatusError: %v", err)
	}
	// Two attempts with one backoff in between: it did retry.
	if elapsed := time.Since(start); elapsed < cfg.Retry.BaseDelay/2 {
		t.Errorf("returned after %v, before any backoff could have run", elapsed)
	}
}

// TestClientRejectsOversizedBody has a peer answer 200 with valid JSON
// one MiB longer than the endpoint's bound. The client stops reading at
// the bound and returns an error instead of buffering the body.
func TestClientRejectsOversizedBody(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		limit int
		call  func(c *Client) error
	}{
		{"job view", maxJobBody, func(c *Client) error { _, err := c.Get(ctx, "j000001"); return err }},
		{"memo keys", maxMemoKeysBody, func(c *Client) error { _, err := c.MemoKeys(ctx); return err }},
		{"memo entries", maxMemoEntriesBody, func(c *Client) error { _, err := c.MemoFetch(ctx, []string{"k"}); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				pad := bytes.Repeat([]byte("a"), 64<<10)
				if _, err := io.WriteString(w, `{"pad":"`); err != nil {
					return
				}
				for n := 0; n < tc.limit+1<<20; n += len(pad) {
					if _, err := w.Write(pad); err != nil {
						return // the client hung up
					}
				}
				io.WriteString(w, `"}`)
			}))
			defer hs.Close()

			c := NewClient(hs.URL, ClientConfig{Retry: RetryPolicy{MaxAttempts: 1}})
			err := tc.call(c)
			if err == nil {
				t.Fatalf("a %d-byte body over a %d-byte bound decoded without error", tc.limit+1<<20, tc.limit)
			}
			if !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("error %q does not report the bound", err)
			}
		})
	}
}
