package service

// Regression tests for the client-path bugs that made load-test
// numbers dishonest: undrained response bodies discarding keep-alive
// connections (so a harness measures TCP setup, not service latency),
// a retry loop that gave up on 429/502/504 and mis-parsed Retry-After,
// and retry sleeps that outlived the request context.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport is an http.Transport whose dials are counted: if
// the client drains and reuses keep-alive connections, N sequential
// calls cost exactly one dial.
func countingTransport() (*http.Transport, *atomic.Int64) {
	var dials atomic.Int64
	d := &net.Dialer{}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return tr, &dials
}

func TestClientReusesConnections(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	tr, dials := countingTransport()
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: url, HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()

	// Mixed traffic over one client: solves, metrics (the out != nil
	// success path), healthz (its own code path), and a 404 error body.
	// Every response must be drained so the single connection survives.
	for i := 0; i < 5; i++ {
		if _, err := c.Check(ctx, CheckRequest{Model: cexMSL, Bound: 2, Engine: "sat"}); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if _, err := c.Metrics(ctx); err != nil {
			t.Fatalf("metrics %d: %v", i, err)
		}
		if err := c.Healthz(ctx); err != nil {
			t.Fatalf("healthz %d: %v", i, err)
		}
		var ae *APIError
		if err := c.do(ctx, http.MethodGet, "/v1/no-such-path", nil, nil); !errors.As(err, &ae) || ae.StatusCode != http.StatusNotFound {
			t.Fatalf("lookup %d: want 404 APIError, got %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("20 sequential calls used %d dials, want 1 (bodies not drained before close?)", n)
	}
}

func TestClientDrainsOversizedErrorBodies(t *testing.T) {
	// An error body longer than readMessage's 4096-byte window used to
	// leave the residue buffered, discarding the connection on close.
	big := strings.Repeat("x", 64<<10)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(big))
	}))
	defer ts.Close()
	tr, dials := countingTransport()
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	for i := 0; i < 4; i++ {
		err := c.do(context.Background(), http.MethodGet, "/", nil, nil)
		var ae *APIError
		if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Fatalf("call %d: want 400 APIError, got %v", i, err)
		}
	}
	if hits.Load() != 4 {
		t.Fatalf("server saw %d requests, want 4", hits.Load())
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("4 sequential 64KiB-error calls used %d dials, want 1", n)
	}
}

func TestClientRetriesIntermediaryStatuses(t *testing.T) {
	// 429, 502 and 504 — what rate limiters and reverse proxies mint —
	// must be retried like the server's own 503, and Retry-After: 0
	// (retry immediately) must parse instead of being dropped.
	for _, code := range []int{429, 502, 503, 504} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(code)
				_, _ = w.Write([]byte(`{"error":"transient"}`))
				return
			}
			_, _ = w.Write([]byte(`{"uptime_ms":1}`))
		}))
		c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond}
		if _, err := c.Metrics(context.Background()); err != nil {
			t.Errorf("status %d was not retried: %v", code, err)
		}
		if n := calls.Load(); n != 2 {
			t.Errorf("status %d: server saw %d calls, want 2", code, n)
		}
		ts.Close()
	}

	// Non-retryable statuses still fail on the first answer.
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond}
	if err := c.do(context.Background(), http.MethodGet, "/", nil, nil); err == nil {
		t.Fatal("400 did not surface an error")
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried: %d calls", calls.Load())
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-3", 0},
		{"7", 7 * time.Second},
		{" 2 ", 2 * time.Second},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Hour).Format(http.TimeFormat), 0}, // past date: no floor
		{"soonish", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClientHonorsRetryAfterDate(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// HTTP-date form, ~100ms out: the retry must wait for it.
			w.Header().Set("Retry-After", time.Now().Add(1100*time.Millisecond).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte(`{"uptime_ms":1}`))
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond}
	start := time.Now()
	if _, err := c.Metrics(context.Background()); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	// HTTP-date granularity is one second, so the parsed floor is at
	// least ~100ms even on a slow run.
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("retry ignored the HTTP-date Retry-After: answered after %v", elapsed)
	}
}

func TestClientRetriesBoundedByContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"busy"}`))
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.do(ctx, http.MethodGet, "/", nil, nil)
	elapsed := time.Since(start)
	// The 30s Retry-After floor must not be slept through: the call
	// returns promptly, and with the last real server answer rather
	// than a bare context error.
	if elapsed > 2*time.Second {
		t.Fatalf("retry slept past the context deadline: %v", elapsed)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want the last 503 APIError, got %v", err)
	}
}
