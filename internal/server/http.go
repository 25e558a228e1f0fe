package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"greendimm/internal/core"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec; 202 queued (or placed
//	                            on a peer, see Config.Overflow), 200
//	                            cache hit, 400 invalid, 429 queue full,
//	                            503 draining
//	GET    /v1/jobs             list retained jobs (no results);
//	                            ?status= filters, ?limit=/&offset= page
//	GET    /v1/jobs/{id}        one job, with result once succeeded;
//	                            ?wait=30s blocks until terminal or
//	                            timeout
//	GET    /v1/jobs/{id}/trace  the job's lifecycle trace (obs.TraceView)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/policies         registered block-selection policies and
//	                            trackers (schemas, defaults) plus this
//	                            daemon's default policy
//	GET    /v1/memo/keys        this daemon's warm memo-key digest
//	POST   /v1/memo/entries     batched memo-entry fetch ({"keys": [...]})
//	GET    /healthz             liveness + drain state
//	GET    /metrics             Prometheus text format
//
// Every error response carries the v1 envelope: {"error": {"code":
// "<machine code>", "message": "...", "retry_after_s": N}} where code
// is one of the Code constants and retry_after_s appears only on
// queue_full.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/memo/keys", s.handleMemoKeys)
	mux.HandleFunc("POST /v1/memo/entries", s.handleMemoFetch)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Machine-readable error codes, stable across releases: clients switch
// on these instead of matching message strings or bare HTTP statuses.
const (
	CodeInvalidSpec = "invalid_spec" // 400: malformed body or failed validation
	CodeQueueFull   = "queue_full"   // 429: bounded queue rejected the job
	CodeDraining    = "draining"     // 503: shutting down, accepting no work
	CodeNotFound    = "not_found"    // 404: unknown job id
	CodeInternal    = "internal"     // 500: anything else
)

// ErrorBody is the payload of the v1 error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterS mirrors the Retry-After header on queue_full, for
	// clients that only read bodies.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// ErrorEnvelope is the JSON shape of every v1 error response.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// writeError emits the envelope. retryAfterS > 0 also sets the
// Retry-After header.
func writeError(w http.ResponseWriter, status int, code, message string, retryAfterS int) {
	if retryAfterS > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterS))
	}
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: message, RetryAfterS: retryAfterS}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// maxJobSpecBody bounds a POST /v1/jobs body, so an oversized request is
// cut off while it is read instead of after it is decoded. The widest
// spec the schema can carry, every field at its widest rendering and
// the policy with the most params, indented, takes under 2 KB; the rest
// is headroom for whitespace and later fields. TestSubmitBodyBound pins
// the margin.
const maxJobSpecBody = 64 << 10

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobSpecBody))
	dec.DisallowUnknownFields() // catch misspelled knobs instead of silently defaulting
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Sprintf("decoding job spec: %v", err), 0)
		return
	}
	v, err := s.Submit(spec)
	var invalid *InvalidSpecError
	switch {
	case errors.As(err, &invalid):
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, invalid.Error(), 0)
	case errors.Is(err, ErrQueueFull):
		// The hint tracks the p90 job wall time so cluster backoff can
		// wait roughly one queue-slot turnover instead of hammering.
		writeError(w, http.StatusTooManyRequests, CodeQueueFull, err.Error(), s.RetryAfterHint())
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error(), 0)
	case err != nil:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error(), 0)
	case v.Cached:
		w.Header().Set("Location", "/v1/jobs/"+v.ID)
		writeJSON(w, http.StatusOK, v)
	default:
		w.Header().Set("Location", "/v1/jobs/"+v.ID)
		writeJSON(w, http.StatusAccepted, v)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q, err := parseListQuery(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err.Error(), 0)
		return
	}
	jobs, total := s.List(q)
	writeJSON(w, http.StatusOK, struct {
		Jobs  []JobView `json:"jobs"`
		Total int       `json:"total"`
	}{Jobs: jobs, Total: total})
}

// parseListQuery validates ?status=, ?limit= and ?offset=.
func parseListQuery(r *http.Request) (ListQuery, error) {
	var q ListQuery
	vals := r.URL.Query()
	if st := vals.Get("status"); st != "" {
		switch s := JobState(st); s {
		case StateQueued, StateRunning, StateSucceeded, StateFailed, StateCanceled:
			q.Status = s
		case "recovered":
			// Not a lifecycle state: selects jobs (any state) that the
			// daemon re-enqueued from its durable store after a restart.
			q.Recovered = true
		default:
			return q, fmt.Errorf("unknown status %q (states, or \"recovered\" for jobs resumed after a restart)", st)
		}
	}
	for name, dst := range map[string]*int{"limit": &q.Limit, "offset": &q.Offset} {
		if raw := vals.Get(name); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return q, fmt.Errorf("invalid %s %q", name, raw)
			}
			*dst = n
		}
	}
	return q, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wait := r.URL.Query().Get("wait"); wait != "" {
		ctx := r.Context()
		if d, err := time.ParseDuration(wait); err == nil && d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		v, err := s.Wait(ctx, id)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, v)
		case errors.Is(err, ctx.Err()) && ctx.Err() != nil:
			// Timed out waiting: report current state instead of failing.
			if v, ok := s.Get(id); ok {
				writeJSON(w, http.StatusOK, v)
				return
			}
			writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		default:
			writeError(w, http.StatusNotFound, CodeNotFound, err.Error(), 0)
		}
		return
	}
	v, ok := s.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tv, ok := s.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	writeJSON(w, http.StatusOK, tv)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// PoliciesView is the GET /v1/policies payload: every registered
// policy and tracker with its parameter schema (names, defaults, valid
// ranges), plus the default policy this daemon applies to vmserver jobs
// that omit one. Clients build valid structured policy objects from the
// schemas instead of guessing parameter names.
type PoliciesView struct {
	Default  core.PolicySpec    `json:"default"`
	Policies []core.PolicyInfo  `json:"policies"`
	Trackers []core.TrackerInfo `json:"trackers"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	def := core.PolicySpec{Name: core.PolicyFreeFirst}
	if s.cfg.DefaultPolicy != nil {
		def = *s.cfg.DefaultPolicy
	}
	writeJSON(w, http.StatusOK, PoliciesView{
		Default:  def,
		Policies: core.PolicyInfos(),
		Trackers: core.TrackerInfos(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status string `json:"status"`
	}{Status: status})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(s.renderMetrics()))
}
