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

func fig8QuickPar(parallelism int) JobSpec {
	return JobSpec{
		Kind:        KindExperiment,
		Experiment:  &ExperimentSpec{ID: "fig8", Quick: true, Seed: 1},
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
	runToSuccess(t, s, fig8QuickPar(0))
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

// TestMemoEndpointsWithoutMemo: a daemon with memoization disabled is a
// protocol-valid cold peer, not an error source.
func TestMemoEndpointsWithoutMemo(t *testing.T) {
	s, err := Open(Config{Workers: 1, QueueDepth: 4, MemoEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	if s.Memo() != nil {
		t.Fatal("MemoEntries < 0 still built a memo")
	}
	h := s.Handler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/memo/keys", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"count": 0`) {
		t.Fatalf("cold digest = %d: %s", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/memo/entries", strings.NewReader(`{"keys":["timing|x"]}`)))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"entries": []`) {
		t.Fatalf("cold fetch = %d: %s", rr.Code, rr.Body.String())
	}
}

// TestWarmRestartServesWithoutRecompute is the recovery e2e the durable
// memo exists for: a daemon computes a sweep, restarts on the same
// -store-dir with the JOB journal deleted (so nothing can replay from
// the per-spec store), and serves the repeat sweep from the imported
// memo alone — zero baseline recomputations, byte-identical report, at
// parallelism 1 and 8.
func TestWarmRestartServesWithoutRecompute(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, QueueDepth: 8, StoreDir: dir}

	s1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold := runToSuccess(t, s1, fig8QuickPar(1))
	if got := s1.Memo().Computes(); got == 0 {
		t.Fatal("cold run recorded no memo computes")
	}
	shutdownServer(t, s1)

	// Remove the job journal but keep the memo log: the warm boot must
	// come from <dir>/memo/, not from per-spec cell replay.
	for _, f := range []string{"wal.log", "snapshot.json"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "memo", "wal.log")); err != nil {
		t.Fatalf("memo log missing after shutdown: %v", err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer shutdownServer(t, s2)
	if s2.MemoImported() == 0 {
		t.Fatal("reopened daemon imported no memo entries")
	}
	for _, par := range []int{1, 8} {
		warm := runToSuccess(t, s2, fig8QuickPar(par))
		if warm.Result == nil || warm.Result.Text != cold.Result.Text {
			t.Fatalf("parallelism %d: warm report diverged from the cold run", par)
		}
	}
	if got := s2.Memo().Computes(); got != 0 {
		t.Fatalf("warm daemon recomputed %d baseline cells, want 0", got)
	}

	// The warm state surfaces on /metrics.
	rr := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"greendimm_memo_entries",
		"greendimm_memo_imports_total",
		"greendimm_memo_store_entries",
		"greendimm_memo_peer_fetch_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPredictMemoKeysSpecs pins the placement predictor's spec handling:
// shardable experiment specs predict their key set (range-scoped),
// everything else predicts nothing.
func TestPredictMemoKeysSpecs(t *testing.T) {
	full, err := PredictMemoKeys(fig8QuickPar(0))
	if err != nil || len(full) == 0 {
		t.Fatalf("PredictMemoKeys(fig8) = %d keys, %v", len(full), err)
	}
	spec := fig8QuickPar(0)
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

// TestCorruptMemoSnapshotStartsCold: the memo log is a cache whose
// contents never change a result, so a torn memo snapshot must not keep
// the daemon down. It boots cold and serves the same report as a clean
// daemon.
func TestCorruptMemoSnapshotStartsCold(t *testing.T) {
	clean, err := Open(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := runToSuccess(t, clean, fig8QuickPar(1))
	shutdownServer(t, clean)

	dir := t.TempDir()
	memoDir := filepath.Join(dir, "memo")
	if err := os.MkdirAll(memoDir, 0o755); err != nil {
		t.Fatal(err)
	}
	torn := `{"seq":12,"v":1,"entries":[{"key":"timing|x","val`
	if err := os.WriteFile(filepath.Join(memoDir, "snapshot.json"), []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Workers: 1, QueueDepth: 4, StoreDir: dir})
	if err != nil {
		t.Fatalf("Open with a corrupt memo snapshot: %v", err)
	}
	defer shutdownServer(t, s)
	if n := s.MemoImported(); n != 0 {
		t.Fatalf("MemoImported = %d from a corrupt snapshot, want 0", n)
	}
	got := runToSuccess(t, s, fig8QuickPar(1))
	if got.Result == nil || got.Result.Text != want.Result.Text {
		t.Fatal("report after a cold memo start diverged from a clean daemon's")
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
