package service

// Tests for the crash-quarantine circuit breaker: the unit lifecycle
// (closed → open → half-open probe → closed/reopened) and the
// end-to-end path where repeated recovered panics for one
// (model, engine) key turn into immediate 503s while other keys stay
// healthy.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/faultpoint"
)

func TestServiceQuarantineBreakerLifecycle(t *testing.T) {
	q := newQuarantine(2, 20*time.Millisecond)
	key := quarantineKey{Hash: "h", Engine: sebmc.EngineSAT}

	if err := q.allow(key); err != nil {
		t.Fatalf("fresh key rejected: %v", err)
	}
	q.observe(key, true, false)
	if err := q.allow(key); err != nil {
		t.Fatalf("one failure must not trip a threshold-2 breaker: %v", err)
	}
	q.observe(key, true, false)
	if err := q.allow(key); err == nil {
		t.Fatal("two failures must quarantine the key")
	}
	// Unrelated keys — other hash, or same hash on another engine —
	// are untouched: quarantine is per (model, engine).
	if err := q.allow(quarantineKey{Hash: "other", Engine: sebmc.EngineSAT}); err != nil {
		t.Fatalf("unrelated hash rejected: %v", err)
	}
	if err := q.allow(quarantineKey{Hash: "h", Engine: sebmc.EngineJSAT}); err != nil {
		t.Fatalf("same hash, other engine rejected: %v", err)
	}
	if open, _, opened := q.stats(); open != 1 || opened != 1 {
		t.Fatalf("stats after open: open=%d opened=%d, want 1/1", open, opened)
	}

	// TTL expiry half-opens: exactly one probe passes at a time.
	time.Sleep(25 * time.Millisecond)
	if err := q.allow(key); err != nil {
		t.Fatalf("TTL expired, probe must pass: %v", err)
	}
	if err := q.allow(key); err == nil {
		t.Fatal("second request during a half-open probe must be rejected")
	}
	// A failed probe re-arms the quarantine for a fresh TTL.
	q.observe(key, true, false)
	if err := q.allow(key); err == nil {
		t.Fatal("failed probe must re-arm the quarantine")
	}
	time.Sleep(25 * time.Millisecond)
	if err := q.allow(key); err != nil {
		t.Fatalf("second probe window: %v", err)
	}
	// An inconclusive probe (budget Unknown) releases the slot without
	// closing the breaker; the next arrival probes again.
	q.observe(key, false, false)
	if err := q.allow(key); err != nil {
		t.Fatalf("released probe slot must allow another probe: %v", err)
	}
	// A decided probe closes the breaker for good.
	q.observe(key, false, true)
	if err := q.allow(key); err != nil {
		t.Fatalf("decided probe must close the breaker: %v", err)
	}
	if open, tracked, _ := q.stats(); open != 0 || tracked != 0 {
		t.Fatalf("closed breaker must forget the key: open=%d tracked=%d", open, tracked)
	}
}

func TestServiceQuarantineDisabled(t *testing.T) {
	q := newQuarantine(-1, time.Hour)
	key := quarantineKey{Hash: "h", Engine: sebmc.EngineSAT}
	for i := 0; i < 10; i++ {
		q.observe(key, true, false)
	}
	if err := q.allow(key); err != nil {
		t.Fatalf("negative threshold must disable quarantine: %v", err)
	}
}

func TestServiceQuarantineEndToEnd(t *testing.T) {
	defer faultpoint.Reset()
	s, url := newTestServer(t, Config{
		Workers:             1,
		DefaultEngine:       sebmc.EngineSAT,
		QuarantineThreshold: 2,
		QuarantineTTL:       time.Hour, // no half-open during the test
	})

	// Every SAT solver step panics: each request is contained into an
	// ERROR result — the process survives — until the breaker opens.
	faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 1, Repeat: true})
	for i := 0; i < 2; i++ {
		r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5})
		if r.Status != StatusError {
			t.Fatalf("request %d under a panicking solver: want ERROR, got %s (%q)", i, r.Status, r.Error)
		}
		if r.Error == "" {
			t.Fatalf("request %d: ERROR result with no error text", i)
		}
	}

	// Third request: rejected at admission with 503 + live Retry-After,
	// no worker runs (the armed faultpoint records no new hits).
	hitsBefore := faultpoint.Hits("sat.propagate")
	body, _ := json.Marshal(CheckRequest{Model: cexMSL, Bound: 5})
	resp, err := http.Post(url+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined submit: HTTP %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(eb.Error, "quarantined") {
		t.Fatalf("quarantined submit error = %q, want it to say quarantined", eb.Error)
	}
	// Retry-After is the time left until the breaker half-opens (about
	// an hour here), not the queue estimate, which never exceeds 60.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra <= 60 {
		t.Fatalf("quarantined 503 Retry-After = %q, want an integer > 60", resp.Header.Get("Retry-After"))
	}
	if got := faultpoint.Hits("sat.propagate"); got != hitsBefore {
		t.Fatalf("quarantined request still touched the solver: %d hits -> %d", hitsBefore, got)
	}

	// Disarming the fault does not un-quarantine the key: the TTL does.
	faultpoint.Reset()
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: cexMSL, Bound: 5}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("key must stay quarantined until TTL: HTTP %d", code)
	}

	// Same model on a different engine is a different key and healthy.
	r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "jsat"})
	if r.Status != "REACHABLE" {
		t.Fatalf("same model on jsat: want REACHABLE, got %s (%q)", r.Status, r.Error)
	}

	m := s.Metrics()
	if m.PanicsRecovered != 2 {
		t.Fatalf("panics_recovered = %d, want 2", m.PanicsRecovered)
	}
	if m.InternalErrors != 2 {
		t.Fatalf("internal_errors = %d, want 2", m.InternalErrors)
	}
	if m.Quarantine.OpenKeys != 1 || m.Quarantine.Opened != 1 {
		t.Fatalf("quarantine stats: open=%d opened=%d, want 1/1", m.Quarantine.OpenKeys, m.Quarantine.Opened)
	}
	if m.Quarantine.Rejected != 2 {
		t.Fatalf("quarantine rejected = %d, want 2", m.Quarantine.Rejected)
	}
}

// TestServiceClusterQuarantineRelayed: a key quarantined on its owner is
// refused there, and the entry shard relays that 503 — with its
// Retry-After and the owner's shard header — instead of taking it for a
// bounce: the owner is not demoted, and the entry shard does not run
// the poison-pill key itself, past the owner's breaker. Gossip is slow
// here, so a wrongful demotion would still be in force at the end.
func TestServiceClusterQuarantineRelayed(t *testing.T) {
	defer faultpoint.Reset()
	cfg := Config{Workers: 1, QuarantineThreshold: 1, QuarantineTTL: time.Hour}
	servers, urls, _ := newFailoverCluster(t, 2, cfg, ClusterConfig{GossipInterval: 5 * time.Second})
	owner := ownerIndex(t, servers, urls, cexMSL)
	entry := 1 - owner
	waitUntil(t, 5*time.Second, "the entry shard to hear the owner", func() bool {
		_, ok := servers[entry].clusterView().tracker.Status(urls[owner])
		return ok
	})

	// One contained panic on the owner opens the key's breaker there.
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}
	faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 1, Repeat: true})
	if r := checkWait(t, urls[owner], req); r.Status != StatusError {
		t.Fatalf("check under a panicking solver: %s, want ERROR", r.Status)
	}
	faultpoint.Reset()
	if open := servers[owner].Metrics().Quarantine.OpenKeys; open != 1 {
		t.Fatalf("owner has %d open quarantine keys, want 1", open)
	}

	entryBefore, ownerBefore := servers[entry].Metrics(), servers[owner].Metrics()
	resp, err := http.Post(urls[entry]+"/v1/check", "application/json", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined key through the entry shard: HTTP %d, want 503", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra <= 60 {
		t.Fatalf("relayed 503 Retry-After = %q, want an integer > 60 (the owner's breaker TTL)", resp.Header.Get("Retry-After"))
	}
	if shard := resp.Header.Get(shardHeader); shard != urls[owner] {
		t.Fatalf("503 answered by %q, want the owner %q", shard, urls[owner])
	}
	entryAfter, ownerAfter := servers[entry].Metrics(), servers[owner].Metrics()
	if entryAfter.Cluster.PeersUp != 1 {
		t.Errorf("entry shard peers_up = %d after a key-level refusal, want 1", entryAfter.Cluster.PeersUp)
	}
	if entryAfter.Cluster.ShedServed != entryBefore.Cluster.ShedServed {
		t.Errorf("entry shard shed_served %d -> %d: it ran the quarantined key itself",
			entryBefore.Cluster.ShedServed, entryAfter.Cluster.ShedServed)
	}
	if got, want := ownerAfter.Quarantine.Rejected, ownerBefore.Quarantine.Rejected+1; got != want {
		t.Errorf("owner quarantine.rejected = %d, want %d", got, want)
	}
}
