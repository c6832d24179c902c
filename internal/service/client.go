package service

// Client is the Go client for bmcd, built to cooperate with the
// server's overload degradation: a retryable status — 503 from
// draining, a full queue, an open quarantine, the memory watermark, or
// a 429/502/504 minted by an intermediary — is retried with jittered
// exponential backoff, and the server's live Retry-After header (queue
// depth × mean recent job wall-clock, or for an open quarantined key the
// time left until its breaker half-opens) is honored as the floor for
// each sleep. Everything else is final on the first answer.
//
// Connection hygiene matters here because this client is what bmcload
// measures the service through: every response body is drained to EOF
// (bounded) before close so the keep-alive connection goes back to the
// transport's pool — without the drain, each call burns a fresh
// TCP/TLS setup and a load test reports connection churn, not service
// latency. For the same reason backoff jitter comes from a per-client
// seeded source instead of the globally locked math/rand default,
// which under fan-out is a cross-goroutine contention point inside the
// latency being measured.

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
	"sync"
	"sync/atomic"
	"time"
)

// Client talks to one bmcd base URL (in a cluster: any shard — the
// routing layer proxies to the owner). The zero value plus a BaseURL
// is usable; all fields are optional tuning.
type Client struct {
	BaseURL string
	// HTTP is the underlying transport (nil = http.DefaultClient).
	HTTP *http.Client
	// MaxRetries bounds retries of retryable statuses and transport
	// errors per call (0 = 4; negative disables retrying).
	MaxRetries int
	// BaseBackoff seeds the exponential schedule (0 = 100ms). Each
	// retry doubles the nominal delay, capped at MaxBackoff (0 = 5s),
	// then jitters it uniformly over [0.5, 1.5) so a herd of backing-off
	// clients does not re-arrive in lockstep. A larger server
	// Retry-After overrides the jittered delay.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// rng is the client's own jitter source, seeded lazily. Per-client
	// rather than the global locked rand: many Clients backing off
	// concurrently must not serialize on one process-wide mutex.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// clientSeq distinguishes Clients created in the same nanosecond, so
// their jitter streams do not march in lockstep.
var clientSeq atomic.Int64

// NewClient returns a client for the given base URL
// (e.g. "http://localhost:8080").
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

// jitter returns a uniform factor in [0.5, 1.5).
func (c *Client) jitter() float64 {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ clientSeq.Add(1)<<32))
	}
	return 0.5 + c.rng.Float64()
}

// APIError is a non-2xx answer from the server, surfaced after retries
// are exhausted (retryable statuses) or immediately (everything else).
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's parsed Retry-After, zero if absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: server answered %d: %s", e.StatusCode, e.Message)
}

// Check runs one request and returns its result; cancelling ctx closes
// the request, which cancels the check on the server. An ERROR result
// is a final server answer, not a client error.
func (c *Client) Check(ctx context.Context, req CheckRequest) (*JobResult, error) {
	var resp checkResponse
	if err := c.do(ctx, http.MethodPost, "/v1/check", req, &resp); err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, errors.New("service: check answered without a result")
	}
	return resp.Result, nil
}

// Batch submits several requests at once and blocks for all results.
func (c *Client) Batch(ctx context.Context, reqs []CheckRequest) ([]*JobResult, error) {
	var resp BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", BatchRequest{Jobs: reqs}, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Metrics fetches the server's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*MetricsSnapshot, error) {
	var m MetricsSnapshot
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Healthz probes liveness with a single un-retried request: a draining
// server's 503 is the answer, not a transient to back off from.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: readMessage(resp.Body)}
	}
	return nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do runs one JSON round trip with the retry policy. Cumulative retry
// wall-clock is bounded by the request context: a backoff that the
// context's deadline cannot accommodate is not slept through — the
// last server answer is returned instead of a late ctx.Err with the
// real cause swallowed.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	retries := c.MaxRetries
	if retries == 0 {
		retries = 4
	}
	base := c.BaseBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxb := c.MaxBackoff
	if maxb <= 0 {
		maxb = 5 * time.Second
	}
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		var retryAfter time.Duration
		resp, err := c.httpClient().Do(req)
		if err != nil {
			lastErr = err
		} else {
			done, err := consume(resp, out)
			if done {
				return err
			}
			lastErr = err
			if ae, ok := err.(*APIError); ok {
				retryAfter = ae.RetryAfter
			}
		}
		if attempt >= retries {
			return lastErr
		}
		d := base << attempt
		if d > maxb || d <= 0 { // <= 0: shift overflow on absurd attempts
			d = maxb
		}
		d = time.Duration(float64(d) * c.jitter())
		if retryAfter > d {
			d = retryAfter
		}
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= d {
			// The context cannot outlive the backoff: report the last
			// real answer now rather than sleeping into a bare
			// context.DeadlineExceeded.
			return lastErr
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// retryableStatus: the statuses a well-behaved client retries with
// backoff. 503 is the server's own degradation ladder; 429, 502 and
// 504 are what rate limiters and reverse proxies in front of a shard
// mint for the same transient conditions.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, // 429
		http.StatusBadGateway,         // 502
		http.StatusServiceUnavailable, // 503
		http.StatusGatewayTimeout:     // 504
		return true
	}
	return false
}

// drainLimit bounds the post-read drain: a response carrying more
// residual bytes than this is not worth the read — the connection is
// closed unconsumed and the transport dials fresh next time.
const drainLimit = 256 << 10

// drainClose reads the body to EOF (bounded) and closes it. net/http
// only returns a keep-alive connection to the pool when the body was
// read to completion; closing with bytes still buffered discards the
// connection, and every subsequent call pays TCP (and TLS) setup
// again.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, drainLimit))
	_ = body.Close()
}

// consume reads one response; done=false means the caller should
// retry (retryable statuses only — see retryableStatus).
func consume(resp *http.Response, out any) (done bool, err error) {
	defer drainClose(resp.Body)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return true, nil
		}
		return true, json.NewDecoder(resp.Body).Decode(out)
	}
	ae := &APIError{
		StatusCode: resp.StatusCode,
		Message:    readMessage(resp.Body),
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
	}
	return !retryableStatus(resp.StatusCode), ae
}

// parseRetryAfter accepts both RFC 9110 forms of the header:
// delta-seconds (including 0 — "retry immediately" — which the old
// `Atoi && > 0` parse dropped) and an HTTP-date, converted to a delay
// relative to now. Unparseable or past values mean no floor.
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if s, err := strconv.Atoi(v); err == nil {
		if s <= 0 {
			return 0
		}
		return time.Duration(s) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// readMessage extracts the JSON error body, falling back to raw text.
func readMessage(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var eb errorBody
	if json.Unmarshal(raw, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return string(bytes.TrimSpace(raw))
}
