package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"greendimm/internal/exp"
	"greendimm/internal/sweep"
)

// This file is the memo-exchange surface: the two endpoints a warm peer
// serves (its key digest and batched entry fetch) and the key prediction
// the cluster's warm-aware placement scores against. Exchange is safe by
// construction — entries are codec-verified on import and every cell is
// a pure function of its key — so the worst a stale or mismatched peer
// can cause is a recompute.

// MemoKeysView is the GET /v1/memo/keys response: the daemon's warm-key
// digest — every settled, exportable memo entry's key, sorted.
type MemoKeysView struct {
	Count int      `json:"count"`
	Keys  []string `json:"keys"`
}

// MemoFetchRequest is the POST /v1/memo/entries request body.
type MemoFetchRequest struct {
	Keys []string `json:"keys"`
}

// MemoFetchResponse is the POST /v1/memo/entries response: the requested
// entries that were resident and exportable. Absent keys are silently
// omitted — the caller computes them.
type MemoFetchResponse struct {
	Entries []sweep.Entry `json:"entries"`
}

// MaxMemoFetchKeys bounds one fetch request. Cluster prefetches batch
// under this bound; a request beyond it is rejected as invalid.
const MaxMemoFetchKeys = 4096

// maxMemoKeyBytes bounds one key as a fetch body carries it, quotes and
// separator included. The longest key exp.PredictKeys emits is about
// 1.3 KB (a dynamics key rendering a 29-phase profile); the rest is
// headroom for wider seeds. TestMemoFetchBodyBound pins the margin.
const maxMemoKeyBytes = 2048

// maxMemoFetchBody bounds a POST /v1/memo/entries body, so an oversized
// request is cut off while it is read instead of after it is decoded.
const maxMemoFetchBody = MaxMemoFetchKeys * maxMemoKeyBytes

// handleMemoKeys serves GET /v1/memo/keys. A cold daemon answers an
// empty digest, not an error: to the exchange protocol it is simply a
// peer with nothing warm.
func (s *Server) handleMemoKeys(w http.ResponseWriter, r *http.Request) {
	keys := s.cfg.Memo.Keys()
	writeJSON(w, http.StatusOK, MemoKeysView{Count: len(keys), Keys: keys})
}

// handleMemoFetch serves POST /v1/memo/entries.
func (s *Server) handleMemoFetch(w http.ResponseWriter, r *http.Request) {
	var req MemoFetchRequest
	body := http.MaxBytesReader(w, r.Body, maxMemoFetchBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, "decoding memo fetch request: "+err.Error(), 0)
		return
	}
	if len(req.Keys) > MaxMemoFetchKeys {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec,
			fmt.Sprintf("fetch of %d keys exceeds the %d-key bound", len(req.Keys), MaxMemoFetchKeys), 0)
		return
	}
	if req.Keys == nil {
		// A body without a key list asks for nothing; Export(nil) would
		// dump the whole memo past the key bound.
		req.Keys = []string{}
	}
	entries := s.cfg.Memo.Export(req.Keys)
	writeJSON(w, http.StatusOK, MemoFetchResponse{Entries: entries})
}

// PredictMemoKeys reports which memo keys the spec's execution would
// consult, without simulating (exp.PredictKeys). Non-experiment and
// non-shardable specs predict nothing — nil, nil — as does a spec whose
// cell range is empty after normalization. The prediction is a
// best-effort placement heuristic: a missed key costs the target peer a
// recompute, never a wrong byte, so callers treat errors as "no
// prediction" too.
func PredictMemoKeys(spec JobSpec) ([]string, error) {
	norm, err := spec.normalized()
	if err != nil {
		return nil, err
	}
	if norm.Kind != KindExperiment || !exp.Shardable(norm.Experiment.ID) {
		return nil, nil
	}
	o := exp.Options{Quick: norm.Experiment.Quick, Seed: norm.Experiment.Seed}
	lo, hi := 0, 0
	if c := norm.Cells; c != nil {
		lo, hi = c.Lo, c.Hi
	} else {
		total, err := exp.CellCount(norm.Experiment.ID, o)
		if err != nil {
			return nil, err
		}
		hi = total
	}
	if hi <= lo {
		return nil, nil
	}
	return exp.PredictKeys(norm.Experiment.ID, o, lo, hi)
}
