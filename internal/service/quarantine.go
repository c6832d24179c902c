package service

// Crash quarantine: a circuit breaker keyed by (model content hash,
// engine). A model that keeps panicking the solver — or keeps producing
// internal errors — is a poison pill: without a breaker, every retry
// burns a worker, rebuilds a warm session, and panics again, and a
// client in a retry loop can grind the whole service down with one bad
// model. After Threshold internal errors the key is quarantined:
// requests for it are rejected immediately with ErrQuarantined (no
// worker runs, no session is built), and the 503's Retry-After is the
// time left until the breaker half-opens. After TTL the breaker
// half-opens — exactly one probe request is let through; if it succeeds
// the key is clean again, if it errors the quarantine re-arms for
// another TTL.
//
// The breaker never refuses a verdict-cache hit. It exists to keep a
// poison-pill key off the workers, and a hit runs no worker: it serves
// an answer that was validated when it was stored (ERROR is never
// cached). So the admission gate (Server.admit) puts only misses to the
// breaker, last, under the lock hold that queues them: the probe is
// always a queued miss, and the worker that runs it reports its outcome
// through observe, which frees the slot.
//
// Only internal errors trip the breaker: recovered panics, poisoned
// sessions, injected faults, witness-validation failures. Budget
// Unknowns (timeout, cancellation) do not — a slow model is not a
// broken one.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	sebmc "repro"
)

// ErrQuarantined rejects requests for a quarantined (model, engine)
// key. Served as HTTP 503 with Retry-After.
var ErrQuarantined = errors.New("service: model+engine quarantined after repeated internal errors")

// openKeyError is ErrQuarantined for a key whose breaker is open, not
// half-open: retryAfter is the time left until it half-opens, in whole
// seconds rounded up, which the 503's Retry-After and the message both
// report.
type openKeyError struct {
	failures   int
	retryAfter int
}

func (e *openKeyError) Error() string {
	return fmt.Sprintf("%v (%d internal errors; retry after %ds)", ErrQuarantined, e.failures, e.retryAfter)
}

func (e *openKeyError) Unwrap() error { return ErrQuarantined }

type quarantineKey struct {
	Hash   string
	Engine sebmc.Engine
}

func (j *job) quarantineKey() quarantineKey {
	return quarantineKey{Hash: j.hash, Engine: j.engine}
}

type breakerEntry struct {
	failures int       // consecutive internal errors observed
	openedAt time.Time // zero until the breaker opened
	probing  bool      // a half-open probe is in flight
}

// quarantine is the breaker table. threshold <= 0 disables it.
type quarantine struct {
	mu        sync.Mutex
	threshold int
	ttl       time.Duration
	entries   map[quarantineKey]*breakerEntry
	opened    int64 // total open transitions, for /metrics
}

func newQuarantine(threshold int, ttl time.Duration) *quarantine {
	return &quarantine{
		threshold: threshold,
		ttl:       ttl,
		entries:   make(map[quarantineKey]*breakerEntry),
	}
}

func (q *quarantine) open(e *breakerEntry) bool { return !e.openedAt.IsZero() }

// allow decides whether a request for key may touch a worker. Closed
// keys (the steady state) pass; open keys are rejected until TTL
// expires, then exactly one probe passes at a time. A caller that is
// let through must run the request on a worker, whose observe frees
// the probe slot.
func (q *quarantine) allow(key quarantineKey) error {
	if q.threshold <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[key]
	if e == nil || !q.open(e) {
		return nil
	}
	if left := q.ttl - time.Since(e.openedAt); left > 0 {
		return &openKeyError{failures: e.failures, retryAfter: int((left + time.Second - 1) / time.Second)}
	}
	if e.probing {
		return fmt.Errorf("%w (half-open, probe in flight)", ErrQuarantined)
	}
	e.probing = true
	return nil
}

// observe records a finished request's outcome for the key.
// internalErr: panics, poisoned sessions, injected faults — the
// failures the breaker exists for. decided: a real REACHABLE or
// UNREACHABLE answer, which closes the breaker. Everything else
// (budget Unknown, cancellation) releases a half-open probe without
// moving the breaker either way.
func (q *quarantine) observe(key quarantineKey, internalErr, decided bool) {
	if q.threshold <= 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[key]
	switch {
	case internalErr:
		if e == nil {
			q.sweepLocked()
			e = &breakerEntry{}
			q.entries[key] = e
		}
		e.probing = false
		e.failures++
		if e.failures >= q.threshold {
			// Opens on crossing the threshold and re-opens with a fresh
			// TTL on a failed half-open probe alike.
			if !q.open(e) {
				q.opened++
			}
			e.openedAt = time.Now()
		}
	case decided:
		if e != nil {
			delete(q.entries, key) // clean again
		}
	default:
		if e != nil {
			// An inconclusive probe neither clears nor damns the key:
			// release the probe slot so the next request after TTL can
			// try again.
			e.probing = false
		}
	}
}

// sweepLocked bounds the table: sub-threshold noise entries are the
// only unbounded growth (open entries require threshold real failures
// each), so once the table is large they are dropped. Callers hold
// q.mu.
func (q *quarantine) sweepLocked() {
	const maxEntries = 4096
	if len(q.entries) < maxEntries {
		return
	}
	for k, e := range q.entries {
		if !q.open(e) {
			delete(q.entries, k)
		}
	}
}

// stats returns (open keys, tracked keys, total open transitions).
func (q *quarantine) stats() (openKeys, tracked int, opened int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range q.entries {
		if q.open(e) {
			openKeys++
		}
	}
	return openKeys, len(q.entries), q.opened
}
