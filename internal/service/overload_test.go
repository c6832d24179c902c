package service

// Tests for the overload-degradation ladder: the server-side timeout
// clamp, the memory watermark (shed idle sessions first, 503 only when
// shedding was not enough), stalled bodies holding only what arrived,
// the cancel-after-done no-op, and the Go client's backoff honoring
// Retry-After.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sebmc "repro"
)

func TestServiceMaxTimeoutClamp(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MaxTimeout: 50 * time.Millisecond})

	cases := []struct {
		reqMS int
		want  time.Duration
	}{
		{reqMS: 60000, want: 50 * time.Millisecond}, // over the cap: clamped
		{reqMS: 0, want: 50 * time.Millisecond},     // no budget at all: gets the cap
		{reqMS: 10, want: 10 * time.Millisecond},    // under the cap: kept
	}
	for _, c := range cases {
		j, err := s.newJob(CheckRequest{Model: cexMSL, Bound: 3, TimeoutMS: c.reqMS}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if j.timeout != c.want {
			t.Fatalf("timeout_ms=%d under a 50ms cap: effective %v, want %v", c.reqMS, j.timeout, c.want)
		}
	}

	uncapped, _ := newTestServer(t, Config{Workers: 1})
	j, err := uncapped.newJob(CheckRequest{Model: cexMSL, Bound: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.timeout != 0 {
		t.Fatalf("uncapped server with no client budget: effective %v, want 0", j.timeout)
	}
}

func TestServiceWatermarkShedsSessionsThenAdmits(t *testing.T) {
	// A 1-byte watermark with the verdict cache disabled: any retained
	// session trips it, and shedding that idle session always frees
	// enough — every admission succeeds, warm state is sacrificed.
	s, url := newTestServer(t, Config{
		Workers:       1,
		DefaultEngine: sebmc.EngineJSAT,
		CacheBytes:    -1,
		MemHighWater:  1,
	})

	r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Semantics: "atmost"})
	if r.Status != "REACHABLE" {
		t.Fatalf("warmup: %s (%q)", r.Status, r.Error)
	}
	if live, _, _ := s.sessions.stats(); live != 1 {
		t.Fatalf("warmup must retain one session, have %d", live)
	}

	r = checkWait(t, url, CheckRequest{Model: safeMSL, Bound: 3, Semantics: "atmost"})
	if r.Status != "UNREACHABLE" {
		t.Fatalf("post-shed request: %s (%q)", r.Status, r.Error)
	}
	m := s.Metrics()
	if m.Overload.SessionsShed < 1 {
		t.Fatalf("sessions_shed = %d, want >= 1", m.Overload.SessionsShed)
	}
	if m.Overload.Rejected != 0 {
		t.Fatalf("overload rejected = %d, want 0: shedding freed enough", m.Overload.Rejected)
	}
}

func TestServiceWatermarkRejectsWhenSheddingFallsShort(t *testing.T) {
	// With the cache enabled, cached verdicts cannot be shed — once the
	// cache alone is over the 1-byte watermark, admissions must be
	// rejected with 503 rather than grow retained memory further.
	s, url := newTestServer(t, Config{
		Workers:       1,
		DefaultEngine: sebmc.EngineJSAT,
		MemHighWater:  1,
	})

	r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Semantics: "atmost"})
	if r.Status != "REACHABLE" {
		t.Fatalf("warmup: %s (%q)", r.Status, r.Error)
	}

	code := postJSON(t, url+"/v1/check", CheckRequest{Model: safeMSL, Bound: 3}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("over-watermark submit: HTTP %d, want 503", code)
	}
	m := s.Metrics()
	if m.Overload.Rejected != 1 {
		t.Fatalf("overload rejected = %d, want 1", m.Overload.Rejected)
	}
	if live, _, _ := s.sessions.stats(); live != 0 {
		t.Fatalf("rejection must still have shed the idle session first, %d live", live)
	}
	if m.Overload.RetainedBytesNow <= 0 {
		t.Fatal("retained_bytes_now must report the cache bytes that forced the rejection")
	}
}

// TestServiceStalledBodiesHoldWhatArrived: connections that each
// declare a 16-MiB body, send 9 bytes and stall hold buffers for the
// bytes that arrived, not for the length they declared.
func TestServiceStalledBodiesHoldWhatArrived(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under the race detector")
	}
	const conns = 4
	s := New(Config{Workers: 1})
	defer drain(t, s)
	reading := make(chan struct{}, conns)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = &firstRead{ReadCloser: r.Body, reading: reading}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := fmt.Fprintf(c, "POST /v1/check HTTP/1.1\r\nHost: bmcd\r\nContent-Length: %d\r\n\r\n{\"model\":", maxBodyBytes); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < conns; i++ {
		<-reading
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 4<<20 {
		t.Fatalf("%d stalled 16-MiB bodies grew the live heap by %.1f MiB, want under 4", conns, float64(grown)/(1<<20))
	}
}

// firstRead signals the first time its handler reads the body: by then
// readBody has allocated its buffer.
type firstRead struct {
	io.ReadCloser
	reading chan<- struct{}
	once    sync.Once
}

func (b *firstRead) Read(p []byte) (int, error) {
	b.once.Do(func() { b.reading <- struct{}{} })
	return b.ReadCloser.Read(p)
}

func TestServiceClientBackoffHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"service: job queue full"}`))
			return
		}
		_, _ = w.Write([]byte(`{"id":"job-000001","state":"done","result":{"status":"UNREACHABLE","bound":3,"found_at":-1,"elapsed_ms":1}}`))
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	start := time.Now()
	res, err := c.Check(context.Background(), CheckRequest{Model: "m", Bound: 3})
	if err != nil {
		t.Fatalf("check after one 503: %v", err)
	}
	if res.Status != "UNREACHABLE" {
		t.Fatalf("status %s, want UNREACHABLE", res.Status)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (one 503, one retry)", calls.Load())
	}
	// The server's Retry-After (1s) must floor the client's own tiny
	// backoff schedule.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("client retried after %v, must honor the 1s Retry-After", elapsed)
	}
}

func TestServiceClientDoesNotRetryFinalAnswers(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"service: negative bound -1"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	_, err := c.Check(context.Background(), CheckRequest{Model: "m", Bound: -1})
	ae, ok := err.(*APIError)
	if !ok || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("want *APIError with 400, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("a 400 is final: server saw %d calls, want 1", calls.Load())
	}
}

func TestServiceClientRetriesExhaust(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"service: draining, not accepting new jobs"}`))
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	_, err := c.Check(context.Background(), CheckRequest{Model: "m", Bound: 1})
	ae, ok := err.(*APIError)
	if !ok || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want the final 503 surfaced, got %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (initial + 2 retries)", calls.Load())
	}
}
