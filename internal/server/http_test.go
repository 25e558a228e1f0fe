package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"greendimm/internal/core"
	"greendimm/internal/exp"
	"greendimm/internal/report"
)

func postJob(t *testing.T, ts *httptest.Server, spec any) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id, query string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, b)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestE2EVMServerMatchesLibrary runs the paper's §6.3 scenario once
// through the library and once through the daemon and requires
// byte-identical reports — the determinism contract the result cache
// relies on.
func TestE2EVMServerMatchesLibrary(t *testing.T) {
	scen := exp.VMScenario{KSM: true, GreenDIMM: true, Hours: 0.5, Seed: 3}

	day, err := exp.RunVMScenario(scen, exp.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	norm := scen.Normalized()
	wantText := renderText([]*report.Table{vmScenarioTable(norm, day)}, vmScenarioSeries(day))

	s := New(Config{Workers: 2, QueueDepth: 8})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postJob(t, ts, JobSpec{Kind: KindVMServer, VMServer: &scen})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Errorf("Location = %q", loc)
	}
	v = getJob(t, ts, v.ID, "?wait=60s")
	if v.State != StateSucceeded {
		t.Fatalf("job did not succeed: %+v", v)
	}
	if v.Result == nil || v.Result.Text != wantText {
		t.Fatalf("daemon text differs from library run:\n--- daemon ---\n%s--- library ---\n%s",
			v.Result.Text, wantText)
	}
	if v.Result.VMDay == nil || !reflect.DeepEqual(*v.Result.VMDay, day) {
		t.Error("daemon VMDay aggregates differ from the library run")
	}
	if v.Result.SimSeconds < 0.5*3600*0.99 {
		t.Errorf("sim_seconds = %g, want ~%g", v.Result.SimSeconds, 0.5*3600.0)
	}
	if v.Result.WallSeconds <= 0 {
		t.Error("wall_seconds not recorded")
	}

	// (b) Identical re-submission is served from cache without re-running:
	// 200 (not 202), cached flag, identical bytes, zero queue time.
	resp2, v2 := postJob(t, ts, JobSpec{Kind: KindVMServer, VMServer: &scen})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit status = %d, want 200", resp2.StatusCode)
	}
	if !v2.Cached || v2.Result == nil || v2.Result.Text != wantText {
		t.Fatalf("cache hit wrong: cached=%v", v2.Cached)
	}
	st := s.snapshot()
	if st.cacheHits != 1 || st.succeeded != 1 {
		t.Errorf("cacheHits=%d succeeded=%d, want 1/1 (hit must not re-run the engine)",
			st.cacheHits, st.succeeded)
	}
}

// TestE2EExperimentMatchesCLI checks an experiment job renders exactly
// what `greendimm -experiment hwcost` prints.
func TestE2EExperimentMatchesCLI(t *testing.T) {
	tables, series, err := exp.Registry()["hwcost"](exp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantText := renderText(tables, series)

	s := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "hwcost"}})
	v = getJob(t, ts, v.ID, "?wait=60s")
	if v.State != StateSucceeded {
		t.Fatalf("job: %+v", v)
	}
	if v.Result.Text != wantText {
		t.Errorf("daemon text:\n%s\nCLI text:\n%s", v.Result.Text, wantText)
	}
	if len(v.Result.Tables) != len(tables) {
		t.Errorf("tables = %d, want %d", len(v.Result.Tables), len(tables))
	}
}

// TestHTTPEngineShardsWireCompat pins the wire contract of the ignored
// engine_shards field with raw JSON, the way clients send it: a spec
// carrying it is accepted and shares the spec hash and cache entry of
// the same spec without it, and an out-of-range value is still a 400.
func TestHTTPEngineShardsWireCompat(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postJob(t, ts, json.RawMessage(`{"kind":"experiment","experiment":{"id":"hwcost"},"engine_shards":4}`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("engine_shards 4 → %d, want 202", resp.StatusCode)
	}
	v = getJob(t, ts, v.ID, "?wait=60s")
	if v.State != StateSucceeded {
		t.Fatalf("job: %+v", v)
	}

	resp, plain := postJob(t, ts, json.RawMessage(`{"kind":"experiment","experiment":{"id":"hwcost"}}`))
	if resp.StatusCode != http.StatusOK || !plain.Cached {
		t.Fatalf("spec without engine_shards → %d cached=%v, want a 200 cache hit", resp.StatusCode, plain.Cached)
	}
	if plain.SpecHash != v.SpecHash {
		t.Errorf("spec hash %s with engine_shards, %s without", v.SpecHash, plain.SpecHash)
	}
	if plain.Result == nil || plain.Result.Text != v.Result.Text {
		t.Error("cache hit returned a different result")
	}

	resp, _ = postJob(t, ts, json.RawMessage(`{"kind":"experiment","experiment":{"id":"hwcost"},"engine_shards":17}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("engine_shards 17 → %d, want 400", resp.StatusCode)
	}
}

// TestE2EDeadlineAbortsEngine submits the longest scenario the spec
// allows with a tiny deadline: the stop check hooked into the real
// simulator's event loop must abort it. The server marks any run that
// outlives its deadline canceled, so the runner is wrapped to prove the
// engine itself saw the stop before it returned.
func TestE2EDeadlineAbortsEngine(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 4}
	base := cfg.BaseRunner()
	var stopSeen atomic.Bool
	stoppedBeforeReturn := make(chan bool, 1)
	cfg.Runner = func(spec JobSpec, h RunHooks) (*Result, error) {
		stop := h.Stop
		h.Stop = func() bool {
			if stop() {
				stopSeen.Store(true)
				return true
			}
			return false
		}
		res, err := base(spec, h)
		stoppedBeforeReturn <- stopSeen.Load()
		return res, err
	}
	s := New(cfg)
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scen := exp.VMScenario{KSM: true, GreenDIMM: true, Hours: 2400, Seed: 5}
	start := time.Now()
	_, v := postJob(t, ts, JobSpec{Kind: KindVMServer, VMServer: &scen, TimeoutSec: 0.15})
	v = getJob(t, ts, v.ID, "?wait=60s")
	if v.State != StateCanceled {
		t.Fatalf("state = %s (%s), want canceled", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Errorf("error = %q, want deadline mention", v.Error)
	}
	if !<-stoppedBeforeReturn {
		t.Error("the run returned without its stop predicate ever firing")
	}
	// Generous bound: the engine must abort within its polling stride,
	// long before the 2400h scenario could finish.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestHTTPQueueFull429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := New(Config{Workers: 1, QueueDepth: 1,
		Runner: func(JobSpec, RunHooks) (*Result, error) {
			started <- struct{}{}
			<-release
			return &Result{}, nil
		}})
	defer func() { close(release); shutdown(t, s) }()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJob(t, ts, specN(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d", resp.StatusCode)
	}
	<-started
	if resp, _ = postJob(t, ts, specN(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, specN(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1,
		Runner: func(JobSpec, RunHooks) (*Result, error) { return &Result{}, nil }})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{`,
		`{"kind":"experiment","experiment":{"id":"fig99"}}`,
		`{"kind":"vmserver","vmserver":{"capacity_gb":100}}`,
		`{"kind":"experiment","experiment":{"id":"fig1","bogus_knob":true}}`, // unknown fields rejected
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s → %d, want 400", body, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/junk")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job → %d, want 404", resp.StatusCode)
	}
}

func TestHTTPMetricsAndHealth(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// healthz while serving.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// One executed job + one cache hit + one 429-free failure-free flow.
	spec := JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "hwcost"}}
	_, v := postJob(t, ts, spec)
	getJob(t, ts, v.ID, "?wait=60s")
	postJob(t, ts, spec)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	body := string(b)
	for _, want := range []string{
		"# TYPE greendimm_queue_depth gauge",
		"greendimm_queue_capacity 8",
		"greendimm_workers 2",
		`greendimm_jobs{state="succeeded"} 2`, // executed + cache-hit job records
		`greendimm_jobs_finished_total{state="succeeded"} 1`,
		"greendimm_cache_hits_total 1",
		"greendimm_cache_misses_total 1",
		"greendimm_cache_entries 1",
		`greendimm_jobs_rejected_total{reason="queue_full"} 0`,
		"greendimm_up 1",
		// Lifecycle latency histograms (one executed job each for wall
		// time and queue wait; cell-level sweeps don't fire for this job
		// shape, but the series must still be exported).
		"# TYPE greendimm_job_wall_seconds histogram",
		"greendimm_job_wall_seconds_count 1",
		`greendimm_job_wall_seconds_bucket{le="+Inf"} 1`,
		"# TYPE greendimm_job_queue_wait_seconds histogram",
		"greendimm_job_queue_wait_seconds_count 1",
		"# TYPE greendimm_job_cell_seconds histogram",
		// In-flight progress gauges (idle here, but always exported).
		"greendimm_cells_running_done 0",
		"greendimm_cells_running_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	if !strings.Contains(body, "greendimm_job_wall_seconds_sum") ||
		!strings.Contains(body, "greendimm_job_sim_seconds_sum") {
		t.Errorf("metrics missing per-job time sums\n%s", body)
	}

	// healthz flips to 503 once draining.
	shutdown(t, s)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(s.renderMetrics(), "greendimm_up 0") {
		t.Error("greendimm_up should drop to 0 when draining")
	}
}

func TestHTTPListJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8,
		Runner: func(JobSpec, RunHooks) (*Result, error) { return &Result{}, nil }})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v1 := postJob(t, ts, specN(1))
	getJob(t, ts, v1.ID, "?wait=30s")
	_, v2 := postJob(t, ts, specN(2))
	getJob(t, ts, v2.ID, "?wait=30s")

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs  []JobView `json:"jobs"`
		Total int       `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 2 || out.Jobs[0].ID != v1.ID || out.Jobs[1].ID != v2.ID {
		t.Errorf("list = %+v", out.Jobs)
	}
	if out.Total != 2 {
		t.Errorf("total = %d, want 2", out.Total)
	}
	for _, j := range out.Jobs {
		if j.Result != nil {
			t.Error("list should omit results")
		}
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// widestSpec is an upper bound on any spec's encoding: every field of a
// spec, both payloads included, at its widest JSON rendering, and the
// registered policy and tracker pair with the most params.
func widestSpec(t *testing.T) JobSpec {
	t.Helper()
	var sc exp.VMScenario
	v := reflect.ValueOf(&sc).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(math.MinInt64)
		case reflect.Float64:
			f.SetFloat(-math.MaxFloat64)
		case reflect.Bool:
			f.SetBool(true) // false drops the omitempty ones
		}
	}
	for _, p := range core.PolicyInfos() {
		for _, tr := range core.TrackerInfos() {
			params := map[string]float64{}
			for _, ps := range append(append([]core.ParamSpec{}, p.Params...), tr.Params...) {
				params[ps.Name] = -math.MaxFloat64
			}
			cand := core.PolicySpec{Name: p.Name, Tracker: tr.Name, Params: params}
			a, _ := json.Marshal(cand)
			b, _ := json.Marshal(sc.Policy)
			if len(a) > len(b) {
				sc.Policy = cand
			}
		}
	}
	id := ""
	for _, e := range exp.KnownExperiments() {
		if len(e) > len(id) {
			id = e
		}
	}
	return JobSpec{
		Kind:         KindExperiment,
		Experiment:   &ExperimentSpec{ID: id, Quick: true, Seed: math.MinInt64},
		VMServer:     &sc,
		Cells:        &CellRangeSpec{Lo: math.MinInt, Hi: math.MinInt},
		TimeoutSec:   -math.MaxFloat64,
		Parallelism:  math.MinInt,
		EngineShards: math.MinInt,
	}
}

// TestSubmitBodyBound pins the POST /v1/jobs body bound: the widest
// spec, indented, fits in a quarter of it; a valid spec padded to
// exactly the bound is served; one byte more is rejected as
// invalid_spec while it is read.
func TestSubmitBodyBound(t *testing.T) {
	widest, err := json.MarshalIndent(widestSpec(t), "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if 4*len(widest) > maxJobSpecBody {
		t.Fatalf("the widest spec takes %d bytes, over a quarter of the %d-byte bound", len(widest), maxJobSpecBody)
	}

	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(JobSpec, RunHooks) (*Result, error) { return &Result{}, nil })
	h := s.Handler()
	spec := []byte(`{"kind":"experiment","experiment":{"id":"hwcost"}}`)
	padded := func(n int) []byte { return append(bytes.Repeat([]byte(" "), n-len(spec)), spec...) }

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(padded(maxJobSpecBody))))
	if rr.Code != http.StatusAccepted {
		t.Fatalf("spec padded to the bound = %d: %.200s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(padded(maxJobSpecBody+1))))
	var env ErrorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || rr.Code != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
		t.Fatalf("over-bound body = %d %q (%v), want 400 %s", rr.Code, env.Error.Code, err, CodeInvalidSpec)
	}
}
