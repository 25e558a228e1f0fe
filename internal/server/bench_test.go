package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServerCachedSubmit times the result-cache hit path of POST
// /v1/jobs, the path behind the daemon's hit latency: decode and hash
// the spec, find the finished job's result, and encode its view. The
// cached result is a real quick tab3 report. The handler is called
// directly, so no network time is counted.
func BenchmarkServerCachedSubmit(b *testing.B) {
	s, err := Open(Config{Workers: 1, QueueDepth: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	spec := quickSpec("tab3", 0)
	v, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Wait(context.Background(), v.ID); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			b.Fatalf("resubmission = %d, want 200 from the cache: %.200s", rr.Code, rr.Body.String())
		}
	}
}
