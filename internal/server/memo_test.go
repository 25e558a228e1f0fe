package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greendimm/internal/exp"
	"greendimm/internal/sweep"
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

// TestMemoExchangeEndpoints drives the two peer-exchange endpoints the
// way a warm peer would: digest the keys, fetch a batch, import it into
// a fresh memo.
func TestMemoExchangeEndpoints(t *testing.T) {
	s, err := Open(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	runToSuccess(t, s, quickSpec("fig8", 0))
	if s.Memo() == nil || len(s.Memo().Keys()) == 0 {
		t.Fatal("run left no warm exportable entries")
	}

	h := s.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/memo/keys", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /v1/memo/keys = %d: %s", rr.Code, rr.Body.String())
	}
	var digest MemoKeysView
	if err := json.Unmarshal(rr.Body.Bytes(), &digest); err != nil {
		t.Fatal(err)
	}
	if digest.Count == 0 || digest.Count != len(digest.Keys) {
		t.Fatalf("digest = %+v, want a consistent non-empty key set", digest)
	}

	body, _ := json.Marshal(MemoFetchRequest{Keys: digest.Keys})
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", strings.NewReader(string(body))))
	if rr.Code != 200 {
		t.Fatalf("POST /v1/memo/entries = %d: %s", rr.Code, rr.Body.String())
	}
	var fetched MemoFetchResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &fetched); err != nil {
		t.Fatal(err)
	}
	if len(fetched.Entries) != digest.Count {
		t.Fatalf("fetched %d entries for %d digested keys", len(fetched.Entries), digest.Count)
	}

	// The fetched entries must survive a verified import — the consumer
	// side of the exchange.
	m := sweep.NewMemo(0)
	m.SetCodec(exp.MemoCodec())
	if n := m.Import(fetched.Entries); n != len(fetched.Entries) {
		t.Fatalf("imported %d of %d fetched entries", n, len(fetched.Entries))
	}

	// Bad requests are rejected, not served partially.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", strings.NewReader("{not json")))
	if rr.Code != 400 {
		t.Fatalf("garbage fetch body = %d, want 400", rr.Code)
	}
	over := MemoFetchRequest{Keys: make([]string, MaxMemoFetchKeys+1)}
	body, _ = json.Marshal(over)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", strings.NewReader(string(body))))
	if rr.Code != 400 {
		t.Fatalf("over-bound fetch = %d, want 400", rr.Code)
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
			"greendimm_memo_peer_fetch_total")
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

// TestPredictMemoKeysSpecs pins the placement predictor's spec handling:
// shardable experiment specs predict their key set (range-scoped),
// everything else predicts nothing.
func TestPredictMemoKeysSpecs(t *testing.T) {
	full, err := PredictMemoKeys(quickSpec("fig8", 0))
	if err != nil || len(full) == 0 {
		t.Fatalf("PredictMemoKeys(fig8) = %d keys, %v", len(full), err)
	}
	spec := quickSpec("fig8", 0)
	spec.Cells = &CellRangeSpec{Lo: 0, Hi: 2}
	sub, err := PredictMemoKeys(spec)
	if err != nil || len(sub) == 0 || len(sub) >= len(full) {
		t.Fatalf("range prediction = %d keys (full %d), %v; want a proper subset", len(sub), len(full), err)
	}
	// Non-shardable experiment: nothing to predict, no error.
	none, err := PredictMemoKeys(JobSpec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "hwcost", Quick: true, Seed: 1}})
	if err != nil || none != nil {
		t.Fatalf("PredictMemoKeys(hwcost) = %v, %v; want nil, nil", none, err)
	}
	// An invalid range fails normalization — an error, which callers
	// treat as "no prediction".
	spec.Cells = &CellRangeSpec{Lo: 3, Hi: 3}
	none, err = PredictMemoKeys(spec)
	if err == nil || none != nil {
		t.Fatalf("invalid-range prediction = %v, %v; want nil keys and an error", none, err)
	}
}

// TestMemoFetchBodyBound pins the fetch body bound to the keys the
// cluster really asks for: a request for MaxMemoFetchKeys copies of the
// longest key PredictKeys emits (at the widest seed) is served, and a
// body one byte past the bound is rejected as invalid_spec.
func TestMemoFetchBodyBound(t *testing.T) {
	var longest string
	for _, id := range exp.ShardableExperiments() {
		for _, o := range []exp.Options{{Quick: true, Seed: 1}, {Seed: math.MinInt64}} {
			n, err := exp.CellCount(id, o)
			if err != nil {
				t.Fatal(err)
			}
			keys, err := exp.PredictKeys(id, o, 0, n)
			if err != nil {
				t.Fatalf("PredictKeys(%s): %v", id, err)
			}
			for _, k := range keys {
				if len(k) > len(longest) {
					longest = k
				}
			}
		}
	}
	quoted, _ := json.Marshal(longest)
	if len(quoted)+1 > maxMemoKeyBytes {
		t.Fatalf("longest predicted key takes %d bytes in a fetch body, over the %d-byte bound", len(quoted)+1, maxMemoKeyBytes)
	}

	s, err := Open(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	h := s.Handler()
	keys := make([]string, MaxMemoFetchKeys)
	for i := range keys {
		keys[i] = longest
	}
	body, _ := json.Marshal(MemoFetchRequest{Keys: keys})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", bytes.NewReader(body)))
	if rr.Code != 200 {
		t.Fatalf("largest legitimate fetch (%d bytes) = %d: %.200s", len(body), rr.Code, rr.Body.String())
	}

	over := `{"keys":["` + strings.Repeat("k", maxMemoFetchBody) + `"]}`
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", strings.NewReader(over)))
	var env ErrorEnvelope
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || rr.Code != 400 || env.Error.Code != CodeInvalidSpec {
		t.Fatalf("over-bound body = %d %q (%v), want 400 %s", rr.Code, env.Error.Code, err, CodeInvalidSpec)
	}
}

// FuzzMemoFetchBody probes POST /v1/memo/entries with arbitrary bodies.
// The handler never panics and answers either 200, with entries only
// for keys the request named, or 400 invalid_spec.
func FuzzMemoFetchBody(f *testing.F) {
	s, err := Open(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	raw, ok := exp.MemoCodec().Encode("timing|fuzz", exp.TimingRun{})
	if !ok {
		f.Fatal("codec declined a zero timing run")
	}
	if s.Memo().Import([]sweep.Entry{{V: sweep.EntryVersion, Key: "timing|fuzz", Value: raw}}) != 1 {
		f.Fatal("seed entry not imported")
	}
	h := s.Handler()

	f.Add([]byte(`{"keys":["timing|fuzz"]}`))
	f.Add([]byte(`{"keys":["timing|fuzz","timing|fuzz","vmday|absent"]}`))
	f.Add([]byte(`{"keys":[]}`))
	f.Add([]byte(`{"keys":null}`))
	f.Add([]byte(`{"keys":[1]}`))
	f.Add([]byte(`{"keys":["timing|fuzz"]} trailing`))
	f.Add([]byte(`{not json`))
	f.Add([]byte{})
	over, _ := json.Marshal(MemoFetchRequest{Keys: make([]string, MaxMemoFetchKeys+1)})
	f.Add(over)
	f.Fuzz(func(t *testing.T, body []byte) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", bytes.NewReader(body)))
		switch rr.Code {
		case 200:
			var req MemoFetchRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("served a body that does not decode: %v", err)
			}
			asked := map[string]bool{}
			for _, k := range req.Keys {
				asked[k] = true
			}
			var resp MemoFetchResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 response does not decode: %v", err)
			}
			for _, e := range resp.Entries {
				if !asked[e.Key] {
					t.Fatalf("served entry %q the request did not name", e.Key)
				}
			}
		case 400:
			var env ErrorEnvelope
			if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil || env.Error.Code != CodeInvalidSpec {
				t.Fatalf("400 envelope = %s (%v), want code %s", rr.Body.String(), err, CodeInvalidSpec)
			}
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	})
}
