package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"greendimm/internal/server"
)

// cannedTransport answers every request with one response: a status, a
// Retry-After header (omitted when empty), and a body followed by pad
// NUL bytes. NUL is invalid anywhere in JSON, so padding ends a decode
// at its first byte unless a complete value came before it.
type cannedTransport struct {
	status     int
	retryAfter string
	body       []byte
	pad        int64
}

func (c *cannedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		r.Body.Close()
	}
	h := http.Header{}
	if c.retryAfter != "" {
		h["Retry-After"] = []string{c.retryAfter}
	}
	body := io.MultiReader(bytes.NewReader(c.body), io.LimitReader(zeros{}, c.pad))
	return &http.Response{StatusCode: c.status, Header: h, Body: io.NopCloser(body), Request: r}, nil
}

// zeros reads an endless run of NUL bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// clientCalls are the response decoders the fuzz target drives, each
// with the body bound of its endpoint.
var clientCalls = []struct {
	name  string
	limit int
	call  func(context.Context, *Client) error
}{
	{"Get", maxJobBody, func(ctx context.Context, c *Client) error { _, err := c.Get(ctx, "j000001"); return err }},
	{"MemoKeys", maxMemoKeysBody, func(ctx context.Context, c *Client) error { _, err := c.MemoKeys(ctx); return err }},
	{"MemoFetch", maxMemoEntriesBody, func(ctx context.Context, c *Client) error { _, err := c.MemoFetch(ctx, []string{"k"}); return err }},
}

// FuzzClientResponse serves a fuzzed status, Retry-After header and body
// to one-attempt client calls, one per endpoint bound (sel picks the
// call; sel&4 pads the body one byte past the call's bound). No call
// panics; every non-2xx reply is a *StatusError whose retry hint lies in
// [0, server.MaxRetryAfterS] seconds, the range a daemon sends, so a
// peer cannot make the client sleep longer; and a body past its bound is
// an error even when a complete JSON value fits inside it.
func FuzzClientResponse(f *testing.F) {
	f.Add(uint16(200), "", []byte(`{"id":"j000001","spec_hash":"h","state":"succeeded"}`), uint8(0))
	f.Add(uint16(200), "", []byte(`{"count":1,"keys":["timing|x"]}`), uint8(1))
	f.Add(uint16(200), "", []byte(`{"entries":[{"v":1,"key":"timing|x","value":{"a":1}}]}`), uint8(2))
	f.Add(uint16(200), "", []byte(`{"count":0,"keys":[]}`), uint8(5))
	f.Add(uint16(202), "", []byte(`{"id":"j000001"}`), uint8(4))
	f.Add(uint16(429), "3600", []byte(`{"error":{"code":"queue_full","message":"full","retry_after_s":5}}`), uint8(0))
	f.Add(uint16(429), "99999999999", []byte(`{"error":{"code":"queue_full","message":"full","retry_after_s":99999999999}}`), uint8(1))
	f.Add(uint16(503), "-7", []byte(`{"error":"server: draining"}`), uint8(2))
	f.Add(uint16(400), "1", []byte(`{"error":{"code":"invalid_spec","message":"bad","retry_after_s":-3}}`), uint8(6))
	f.Add(uint16(500), "", []byte(`not json`), uint8(0))

	f.Fuzz(func(t *testing.T, status uint16, retryAfter string, body []byte, sel uint8) {
		tc := clientCalls[int(sel)%len(clientCalls)]
		code := int(status)
		if code < 100 || code > 599 {
			code = 100 + code%500
		}
		tr := &cannedTransport{status: code, retryAfter: retryAfter, body: body}
		padded := sel&4 != 0
		if padded {
			tr.pad = max(int64(tc.limit)+1-int64(len(body)), 0)
		}
		c := NewClient("http://peer.invalid", ClientConfig{
			HTTP:  &http.Client{Transport: tr},
			Retry: RetryPolicy{MaxAttempts: 1},
		})
		err := tc.call(context.Background(), c)

		if tr.status < 200 || tr.status > 299 {
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("%s: status %d returned %v, want a *StatusError", tc.name, tr.status, err)
			}
			if se.RetryAfter < 0 || se.RetryAfter > server.MaxRetryAfterS*time.Second {
				t.Fatalf("%s: retry hint %v outside [0, %ds] (header %q)", tc.name, se.RetryAfter, server.MaxRetryAfterS, retryAfter)
			}
			return
		}
		if padded && err == nil {
			t.Fatalf("%s: a %d-byte body over the %d-byte bound decoded without error", tc.name, int64(len(body))+tr.pad, tc.limit)
		}
	})
}

// TestClientClampsRetryAfter: a peer's retry hint, from the Retry-After
// header or the envelope's retry_after_s, is clamped to [0,
// server.MaxRetryAfterS] seconds before it becomes a backoff sleep.
// Unclamped, a 429 with Retry-After: 3600 holds a Submit for an hour,
// and 99999999999 seconds overflows the duration.
func TestClientClampsRetryAfter(t *testing.T) {
	const most = server.MaxRetryAfterS * time.Second
	for _, tc := range []struct {
		header, body string
		want         time.Duration
	}{
		{"1", `{"error":"full"}`, time.Second},
		{"3600", `{"error":"full"}`, most},
		{"99999999999", `{"error":"full"}`, most},
		{"-5", `{"error":"full"}`, 0},
		{"", `{"error":{"code":"queue_full","message":"full","retry_after_s":99999999999}}`, most},
		{"", `{"error":{"code":"queue_full","message":"full","retry_after_s":-3}}`, 0},
		{"2", `{"error":{"code":"queue_full","message":"full","retry_after_s":4}}`, 4 * time.Second},
	} {
		tr := &cannedTransport{status: http.StatusTooManyRequests, retryAfter: tc.header, body: []byte(tc.body)}
		c := NewClient("http://peer.invalid", ClientConfig{HTTP: &http.Client{Transport: tr}, Retry: RetryPolicy{MaxAttempts: 1}})
		_, err := c.Get(context.Background(), "j000001")
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("header %q body %s: %v, want a *StatusError", tc.header, tc.body, err)
		}
		if se.RetryAfter != tc.want {
			t.Errorf("header %q body %s: retry hint %v, want %v", tc.header, tc.body, se.RetryAfter, tc.want)
		}
		if d := retryDelay(RetryPolicy{}.withDefaults(), 0, se); d > most {
			t.Errorf("header %q body %s: backoff %v exceeds %v", tc.header, tc.body, d, most)
		}
	}
}
