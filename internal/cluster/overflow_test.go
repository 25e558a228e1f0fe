package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"greendimm/internal/obs"
	"greendimm/internal/server"
)

func postSpec(t *testing.T, base string, spec server.JobSpec) (int, server.JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, v
}

func getJob(t *testing.T, base, id, wait string) (int, server.JobView) {
	t.Helper()
	url := base + "/v1/jobs/" + id
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v server.JobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// newOverflowDaemon starts a one-worker, one-slot daemon whose queue
// overflow runs on pool's peers through a Dispatcher, and whose own
// jobs block until release closes.
func newOverflowDaemon(t *testing.T, pool *Pool, ctr *Counters, release chan struct{}) *httptest.Server {
	t.Helper()
	local := server.New(server.Config{Workers: 1, QueueDepth: 1,
		Overflow: NewDispatcher(pool, Options{Counters: ctr}).Overflow,
		Runner: func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
			<-release
			return &server.Result{Text: "local\n"}, nil
		}})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = local.Shutdown(ctx)
	})
	co := httptest.NewServer(local.Handler())
	t.Cleanup(co.Close)
	return co
}

// fillDaemon fills a newOverflowDaemon: one running job, one queued job.
func fillDaemon(t *testing.T, base string) {
	t.Helper()
	code, vA := postSpec(t, base, scenSpec(1))
	if code != http.StatusAccepted {
		t.Fatalf("job A: status %d", code)
	}
	waitRunning := time.Now()
	for {
		_, v := getJob(t, base, vA.ID, "")
		if v.State == server.StateRunning {
			break
		}
		if time.Since(waitRunning) > 5*time.Second {
			t.Fatalf("job A never started running: %+v", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := postSpec(t, base, scenSpec(2)); code != http.StatusAccepted {
		t.Fatalf("job B: status %d", code)
	}
}

// TestOverflowRunsOnPeer: a daemon with a one-worker, one-slot local
// queue runs the overflow submission on its peer, and the overflowed job
// is visible (poll, wait, cancel) under the daemon's own id.
func TestOverflowRunsOnPeer(t *testing.T) {
	release := make(chan struct{})
	peer, _ := newBackend(t, server.Config{Workers: 2, QueueDepth: 8,
		Runner: func(spec server.JobSpec, h server.RunHooks) (*server.Result, error) {
			return &server.Result{Text: fmt.Sprintf("peer seed %d\n", spec.VMServer.Seed), SimSeconds: 1}, nil
		}})

	ctr := &Counters{}
	pool := NewPool([]string{peer.URL}, PoolConfig{Client: fastClient(ctr)})
	co := newOverflowDaemon(t, pool, ctr, release)

	fillDaemon(t, co.URL)

	// The third submission overflows to the peer.
	code, vC := postSpec(t, co.URL, scenSpec(3))
	if code != http.StatusAccepted {
		t.Fatalf("overflow job: status %d", code)
	}
	id := vC.ID
	if got := ctr.Snapshot().ProxiedJobs; got != 1 {
		t.Errorf("proxied jobs = %d, want 1", got)
	}

	code, vC = getJob(t, co.URL, vC.ID, "5s")
	if code != http.StatusOK || vC.State != server.StateSucceeded {
		t.Fatalf("proxied wait: status %d view %+v", code, vC)
	}
	if vC.ID != id {
		t.Errorf("proxied view id = %q, want the submitted id %q", vC.ID, id)
	}
	if vC.Result == nil || vC.Result.Text != "peer seed 3\n" {
		t.Errorf("proxied result = %+v", vC.Result)
	}

	// DELETE answers for the overflowed job too (a no-op once finished).
	req, _ := http.NewRequest(http.MethodDelete, co.URL+"/v1/jobs/"+vC.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("proxied cancel: status %d", resp.StatusCode)
	}

	// Unknown ids still 404 through the local handler.
	if code, _ := getJob(t, co.URL, "nope", ""); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}

	close(release) // let the local jobs finish so shutdown drains clean
}

// TestOverflowRejectsWhenPeersDown: overflow with no reachable peer
// degrades to the plain 429-with-Retry-After contract.
func TestOverflowRejectsWhenPeersDown(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	pool := NewPool([]string{dead.URL}, PoolConfig{Client: fastClient(nil)})
	co := newOverflowDaemon(t, pool, &Counters{}, release)

	fillDaemon(t, co.URL)

	body, _ := json.Marshal(scenSpec(3))
	resp, err := http.Post(co.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow with dead peer: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After hint")
	}
}

// TestOverflowCancelStopsPeerJob: DELETE on an overflowed job cancels it
// here and, through the placed runner's Stop, on the peer; the local
// trace carries the peer attempt.
func TestOverflowCancelStopsPeerJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	peer, peerSrv := newBackend(t, server.Config{Workers: 2, QueueDepth: 8, Runner: stallRunner})
	pool := NewPool([]string{peer.URL}, PoolConfig{Client: fastClient(nil)})
	co := newOverflowDaemon(t, pool, &Counters{}, release)
	fillDaemon(t, co.URL)

	code, vC := postSpec(t, co.URL, scenSpec(3))
	if code != http.StatusAccepted || vC.State != server.StateRunning {
		t.Fatalf("overflow job: status %d view %+v", code, vC)
	}
	placed, _ := peerSrv.List(server.ListQuery{})
	if len(placed) != 1 {
		t.Fatalf("peer holds %d jobs, want the placed one", len(placed))
	}

	req, _ := http.NewRequest(http.MethodDelete, co.URL+"/v1/jobs/"+vC.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	if _, v := getJob(t, co.URL, vC.ID, "5s"); v.State != server.StateCanceled {
		t.Errorf("local view after cancel: %+v", v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if v, err := peerSrv.Wait(ctx, placed[0].ID); err != nil || v.State != server.StateCanceled {
		t.Errorf("peer job after cancel: %+v (%v), want canceled", v, err)
	}

	resp, err = http.Get(co.URL + "/v1/jobs/" + vC.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tv obs.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	spans := map[string]string{}
	for _, sp := range tv.Spans {
		spans[sp.Name] = sp.Arg
	}
	if arg, ok := spans["attempt"]; !ok || arg != peer.URL {
		t.Errorf("trace spans %v: want an attempt on %s", spans, peer.URL)
	}
	for _, name := range []string{"queue_wait", "execute"} {
		if _, ok := spans[name]; !ok {
			t.Errorf("trace spans %v: missing %s", spans, name)
		}
	}
}
