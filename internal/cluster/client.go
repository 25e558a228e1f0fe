package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"greendimm/internal/obs"
	"greendimm/internal/server"
	"greendimm/internal/sweep"
)

// RetryPolicy caps the backoff loop around one logical API call. Delays
// grow exponentially from BaseDelay, are capped at MaxDelay, and carry
// equal jitter (half fixed, half uniform-random) so a fleet of clients
// does not retry in lockstep. A 429 Retry-After hint from the server
// overrides a computed delay when larger.
type RetryPolicy struct {
	// MaxAttempts bounds tries per call, first included (default 4).
	MaxAttempts int
	// BaseDelay is the pre-jitter delay after the first failure
	// (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 3s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 3 * time.Second
	}
	return p
}

// delay computes the post-jitter sleep before attempt n+1 (n counts from
// 0 = the first failure).
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Equal jitter keeps at least half the exponential spacing while
	// decorrelating concurrent retriers.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// StatusError is a non-2xx API response. Transient failures (queue
// full, draining, 5xx) are retried; everything else aborts the call.
type StatusError struct {
	Status int
	// Code is the machine-readable error code from the v1 envelope
	// ({"error": {"code": ...}}), empty when the backend predates it or
	// sent something else entirely.
	Code string
	Msg  string
	// RetryAfter carries the server's retry hint on queue_full — the
	// larger of the Retry-After header and the envelope's retry_after_s
	// (zero when absent), each clamped to [0, server.MaxRetryAfterS]
	// seconds, the range a daemon sends.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("cluster: backend returned %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("cluster: backend returned %d: %s", e.Status, e.Msg)
}

// transient reports whether an error is worth retrying on the same
// backend. The envelope code decides when present — it survives proxies
// that rewrite statuses — with the HTTP status as the fallback for
// backends that predate the envelope. The caller must separately stop
// when its own context is done — a per-attempt timeout also surfaces as
// context.DeadlineExceeded and is retryable.
func transient(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case server.CodeQueueFull, server.CodeDraining, server.CodeInternal:
			return true
		case server.CodeInvalidSpec, server.CodeNotFound:
			return false
		}
		return se.Status == http.StatusTooManyRequests || se.Status >= 500
	}
	return true // connection refused/reset, EOF, attempt timeout, ...
}

// ClientConfig tunes a Client. Zero values take defaults.
type ClientConfig struct {
	// HTTP is the transport (default http.DefaultClient). Timeouts are
	// applied per attempt via AttemptTimeout, not here.
	HTTP *http.Client
	// Retry is the backoff policy for transient failures.
	Retry RetryPolicy
	// AttemptTimeout bounds one HTTP round trip (default 15s). Wait
	// attempts get AttemptTimeout + PollWait, since the server holds the
	// request open for the poll window.
	AttemptTimeout time.Duration
	// PollWait is the long-poll window passed as ?wait= (default 10s).
	PollWait time.Duration
	// Counters, when non-nil, receives retry accounting.
	Counters *Counters
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	c.Retry = c.Retry.withDefaults()
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 15 * time.Second
	}
	if c.PollWait <= 0 {
		c.PollWait = 10 * time.Second
	}
	return c
}

// Client is a typed client for one greendimmd backend's job API. All
// methods are safe for concurrent use.
type Client struct {
	base string
	cfg  ClientConfig
}

// NewClient returns a client for the daemon at base (e.g.
// "http://host:8080").
func NewClient(base string, cfg ClientConfig) *Client {
	return &Client{base: strings.TrimRight(base, "/"), cfg: cfg.withDefaults()}
}

// Base returns the backend URL the client targets.
func (c *Client) Base() string { return c.base }

// Submit posts a job spec. It returns the accepted job's view — state
// "succeeded" with the result attached on a cache hit, "queued"
// otherwise — retrying transient failures per the policy.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (server.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.JobView{}, fmt.Errorf("cluster: encoding spec: %w", err)
	}
	var v server.JobView
	err = c.retrying(ctx, func(actx context.Context) error {
		return c.do(actx, http.MethodPost, "/v1/jobs", body, &v, maxJobBody)
	})
	return v, err
}

// Get fetches one job snapshot without blocking.
func (c *Client) Get(ctx context.Context, id string) (server.JobView, error) {
	var v server.JobView
	err := c.retrying(ctx, func(actx context.Context) error {
		return c.do(actx, http.MethodGet, "/v1/jobs/"+id, nil, &v, maxJobBody)
	})
	return v, err
}

// Wait long-polls the job until it reaches a terminal state or ctx is
// done. Transient poll failures are retried with backoff; the attempt
// budget resets on every successful poll, so a long-running job is not
// abandoned because of unrelated blips.
func (c *Client) Wait(ctx context.Context, id string) (server.JobView, error) {
	wait := c.cfg.PollWait.String()
	fails := 0
	for {
		var v server.JobView
		actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout+c.cfg.PollWait)
		err := c.do(actx, http.MethodGet, "/v1/jobs/"+id+"?wait="+wait, nil, &v, maxJobBody)
		cancel()
		switch {
		case err == nil:
			if terminal(v.State) {
				return v, nil
			}
			fails = 0
		case ctx.Err() != nil:
			return server.JobView{}, ctx.Err()
		case !transient(err):
			return server.JobView{}, err
		default:
			fails++
			if fails >= c.cfg.Retry.MaxAttempts {
				return server.JobView{}, err
			}
			if c.cfg.Counters != nil {
				c.cfg.Counters.Retries.Add(1)
			}
			// The dispatcher threads the job's trace through ctx; a nil
			// trace (no tracing, or a direct caller) records nothing.
			sp := obs.FromContext(ctx).StartArg("backoff", c.base)
			serr := sleepCtx(ctx, retryDelay(c.cfg.Retry, fails-1, err))
			sp.EndErr(err)
			if serr != nil {
				return server.JobView{}, serr
			}
		}
	}
}

// Cancel asks the backend to cancel a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) (server.JobView, error) {
	var v server.JobView
	err := c.retrying(ctx, func(actx context.Context) error {
		return c.do(actx, http.MethodDelete, "/v1/jobs/"+id, nil, &v, maxJobBody)
	})
	return v, err
}

// MemoKeys fetches the backend's warm memo-key digest, with one attempt
// and no retries: the digest is an optimization input, refreshed on a
// short TTL by the Warm cache, and a failed fetch just reads as a cold
// peer.
func (c *Client) MemoKeys(ctx context.Context) ([]string, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var v server.MemoKeysView
	if err := c.do(actx, http.MethodGet, "/v1/memo/keys", nil, &v, maxMemoKeysBody); err != nil {
		return nil, err
	}
	return v.Keys, nil
}

// MemoFetch pulls the named memo entries from the backend, one attempt,
// no retries (a failed prefetch degrades to computing locally). The
// response omits keys the peer does not hold; entries are NOT verified
// here — sweep.Memo.Import runs each through the codec before trusting
// it.
func (c *Client) MemoFetch(ctx context.Context, keys []string) ([]sweep.Entry, error) {
	body, err := json.Marshal(server.MemoFetchRequest{Keys: keys})
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding memo fetch: %w", err)
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	var v server.MemoFetchResponse
	if err := c.do(actx, http.MethodPost, "/v1/memo/entries", body, &v, maxMemoEntriesBody); err != nil {
		return nil, err
	}
	return v.Entries, nil
}

// Healthz probes the backend once, with no retries — the Pool's
// scoreboard is the retry layer for health.
func (c *Client) Healthz(ctx context.Context) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	return c.do(actx, http.MethodGet, "/healthz", nil, nil, maxErrorBody)
}

// terminal mirrors the server's lifecycle: no transitions leave these.
func terminal(s server.JobState) bool {
	return s == server.StateSucceeded || s == server.StateFailed || s == server.StateCanceled
}

// retrying runs one attempt function under the backoff policy, applying
// the per-attempt timeout and honoring 429 Retry-After hints.
func (c *Client) retrying(ctx context.Context, attempt func(context.Context) error) error {
	var err error
	for n := 0; n < c.cfg.Retry.MaxAttempts; n++ {
		if n > 0 {
			if c.cfg.Counters != nil {
				c.cfg.Counters.Retries.Add(1)
			}
			// Record the backoff (with the error that caused it) into the
			// job trace the dispatcher threaded through ctx, if any.
			sp := obs.FromContext(ctx).StartArg("backoff", c.base)
			serr := sleepCtx(ctx, retryDelay(c.cfg.Retry, n-1, err))
			sp.EndErr(err)
			if serr != nil {
				return err // context done mid-backoff: report the last cause
			}
		}
		actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		err = attempt(actx)
		cancel()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || !transient(err) {
			return err
		}
	}
	return err
}

// retryDelay is the policy delay, stretched to the server's Retry-After
// hint when one came back larger.
func retryDelay(p RetryPolicy, n int, err error) time.Duration {
	d := p.delay(n)
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > d {
		d = se.RetryAfter
	}
	return d
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Response bodies are read through a bound, so a misbehaving peer cannot
// make a daemon buffer any amount. Each bound is sized from the largest
// response a daemon sends on the endpoint, as its 2-space indented JSON.
const (
	// maxErrorBody bounds an error envelope, and how much of an ignored
	// body is drained so the connection can be reused.
	maxErrorBody = 64 << 10
	// maxJobBody bounds a job view. The largest is a vmserver job at the
	// 2,400-hour validation maximum, whose 28,800 five-minute samples
	// make an 11.1 MB view; a full-scale range job's cell artifacts stay
	// under 0.25 MB.
	maxJobBody = 32 << 20
	// maxMemoKeysBody bounds a warm-key digest at the server's bound on
	// a fetch request for those keys: server.MaxMemoFetchKeys keys of up
	// to 2 KiB (they average under 0.5 KB). A larger digest reads as a
	// cold peer.
	maxMemoKeysBody = 8 << 20
	// maxMemoEntriesBody bounds a memo-entries response at
	// server.MaxMemoFetchKeys entries of 8 KiB. Every entry but a
	// VM-trace day is under 6 KB; a full-scale day is 66 KB, and one
	// spec's prefetch, at most 30 keys, is at most 144 KB.
	maxMemoEntriesBody = 32 << 20
)

// do performs one HTTP round trip and decodes the JSON response into out
// (skipped when out is nil), reading at most limit bytes of it; a longer
// body is an error. Non-2xx responses become *StatusError with the
// server's error envelope and Retry-After hint attached.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any, limit int64) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("cluster: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Status: resp.StatusCode}
		// The v1 envelope nests an object under "error"; backends from
		// before the envelope sent a bare string there. Decode the field
		// raw and try both, so old peers keep working (their StatusError
		// just has no Code and transient() falls back to the status).
		var envelope struct {
			Error json.RawMessage `json:"error"`
		}
		if derr := json.NewDecoder(io.LimitReader(resp.Body, maxErrorBody)).Decode(&envelope); derr == nil && len(envelope.Error) > 0 {
			var body server.ErrorBody
			if json.Unmarshal(envelope.Error, &body) == nil && body.Code != "" {
				se.Code = body.Code
				se.Msg = body.Message
				se.RetryAfter = retryAfter(body.RetryAfterS)
			} else {
				var msg string
				if json.Unmarshal(envelope.Error, &msg) == nil {
					se.Msg = msg
				}
			}
		}
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil {
			se.RetryAfter = max(se.RetryAfter, retryAfter(secs))
		}
		return se
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, limit))
		return nil
	}
	// Read one byte past the bound, and drain what follows the decoded
	// value, so a body past the bound is an error even when a JSON value
	// ends inside it. A read error in the drain is dropped: it comes
	// after a complete value and changes nothing the caller gets.
	lr := &io.LimitedReader{R: resp.Body, N: limit + 1}
	err = json.NewDecoder(lr).Decode(out)
	if err == nil {
		_, _ = io.Copy(io.Discard, lr)
	}
	switch {
	case lr.N == 0:
		return fmt.Errorf("cluster: %s %s response exceeds %d bytes", method, path, limit)
	case err != nil:
		return fmt.Errorf("cluster: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// retryAfter converts a peer's retry hint in seconds to a duration,
// clamped to [0, server.MaxRetryAfterS] seconds before it is scaled, so
// neither a negative nor a huge hint (which would overflow) turns into
// a sleep a daemon never asks for.
func retryAfter(secs int) time.Duration {
	return time.Duration(min(max(secs, 0), server.MaxRetryAfterS)) * time.Second
}
