package service

// Tests for the one admission gate (Server.admit): every condition that
// can refuse a check meets every way a check enters a shard, and the
// answer, the key-rejection header and the counters come out the same
// way on each path.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/faultpoint"
)

// The matrix's checks all use one (model, engine) key. Bound 3 is
// UNREACHABLE and cached before a cell that asks for it; bound 5 is
// REACHABLE and never cached before a cell; bound 6 is UNREACHABLE and
// asked for only by the decided probe a half-open row sends after its
// cell, so that probe is always a miss.
var (
	matrixHit   = CheckRequest{Model: cexMSL, Bound: 3, Engine: "sat"}
	matrixMiss  = CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}
	matrixProbe = CheckRequest{Model: cexMSL, Bound: 6, Engine: "sat"}
)

// matrixTTL is the half-open rows' quarantine TTL.
const matrixTTL = 50 * time.Millisecond

// openKey opens the matrix key's breaker on the shard at url (threshold
// 1): one contained solver panic.
func openKey(t *testing.T, url string) {
	t.Helper()
	faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 1, Repeat: true})
	r := checkWait(t, url, matrixMiss)
	faultpoint.Reset()
	if r.Status != StatusError {
		t.Fatalf("opening the key: %s, want ERROR", r.Status)
	}
}

// pinWorker occupies s's one worker with a long jSAT job until the job
// is cancelled. The queue is empty once the worker has taken it.
func pinWorker(t *testing.T, s *Server) *job {
	t.Helper()
	blocker, err := s.submit(CheckRequest{Model: aagSource(t, circuits.ParityGuard(10)), Format: "aag", Bound: 8, Engine: "jsat"})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "the blocker to start", func() bool { return len(s.queue) == 0 })
	return blocker
}

// fillQueue pins s's one worker and takes its one queue slot. The
// returned release cancels both jobs and waits for them.
func fillQueue(t *testing.T, s *Server) func() {
	t.Helper()
	blocker := pinWorker(t, s)
	filler, err := s.submit(CheckRequest{Model: safeMSL, Bound: 2, Engine: "sat"})
	if err != nil {
		t.Fatalf("filling the queue: %v", err)
	}
	return func() {
		blocker.cancel.Set()
		<-blocker.done
		<-filler.done
	}
}

// armAdmit arms the gate's faultpoint for one refusal.
func armAdmit() func() {
	faultpoint.Arm("service.queue.admit", faultpoint.Schedule{Kind: faultpoint.KindError, On: 1})
	return faultpoint.Reset
}

// outcome is what a cell's check should meet.
type outcome int

const (
	admitted    outcome = iota // run on a worker (miss) or answered from the cache (hit)
	keyRefused                 // the breaker refuses the key
	setRefused                 // a set-level condition refuses the whole call
	entryServed                // proxied: the owner refused set-level, and the entry shard served it
)

type admissionColumn struct {
	name                string
	hit, batch, proxied bool
}

var admissionColumns = [5]admissionColumn{
	{name: "miss"},
	{name: "hit", hit: true},
	{name: "batch-miss", batch: true},
	{name: "batch-hit", hit: true, batch: true},
	{name: "proxied-miss", proxied: true},
}

type admissionRow struct {
	name string
	cfg  Config
	// set puts the row's condition on s, the shard under test (for the
	// proxied column, the key's owner, which the client does not talk
	// to). The returned release, if any, lifts what must be lifted
	// before the shard can go idle.
	set      func(t *testing.T, s *Server, url string) (release func())
	halfOpen bool // after the cell, one decided probe must close the key
	overload bool // a set-level refusal counts in overload.rejected too
	want     [5]outcome
}

// TestServiceAdmissionMatrix: rows are the conditions that can refuse a
// check, columns the ways a check enters a shard, and every cell gets a
// fresh server (a two-shard cluster for the proxied column). Each cell
// asserts the answer, X-Bmcd-Key-Rejected where it applies, and the
// counters under one rule: every item that reaches a gate counts once,
// in jobs_submitted or jobs_rejected; quarantine.rejected and
// overload.rejected are subsets of jobs_rejected; and once the shard is
// idle, jobs_completed equals jobs_submitted. For the proxied column a
// breaker refusal on the owner is relayed to the client, and any other
// refusal is a bounce that the entry shard serves itself.
func TestServiceAdmissionMatrix(t *testing.T) {
	quar := func(ttl time.Duration) Config {
		return Config{Workers: 1, QueueDepth: 1, QuarantineThreshold: 1, QuarantineTTL: ttl}
	}
	watermark := quar(time.Hour)
	watermark.MemHighWater = 1
	halfOpen := func(t *testing.T, url string) {
		openKey(t, url)
		time.Sleep(matrixTTL + 10*time.Millisecond)
	}
	allSet := [5]outcome{setRefused, setRefused, setRefused, setRefused, entryServed}
	queueFull := [5]outcome{setRefused, admitted, setRefused, admitted, entryServed}
	rows := []admissionRow{
		{
			name: "open-key", cfg: quar(time.Hour),
			set:  func(t *testing.T, _ *Server, url string) func() { openKey(t, url); return nil },
			want: [5]outcome{keyRefused, admitted, keyRefused, admitted, keyRefused},
		},
		{
			name: "half-open-key", cfg: quar(matrixTTL), halfOpen: true,
			set: func(t *testing.T, _ *Server, url string) func() { halfOpen(t, url); return nil },
		},
		{
			name: "over-watermark", cfg: watermark, overload: true, want: allSet,
			// Retained bytes over the 1-byte line that no shedding frees,
			// put straight into this shard's cache so that replication
			// does not carry them to the other shard.
			set: func(t *testing.T, s *Server, _ string) func() {
				s.cache.put(verdictKey{sessionKey: sessionKey{Hash: "matrix-ballast"}, Bound: 1}, JobResult{Status: "UNREACHABLE", Bound: 1, FoundAt: -1})
				return nil
			},
		},
		{
			name: "admit-faultpoint", cfg: quar(time.Hour), want: allSet,
			set: func(*testing.T, *Server, string) func() { return armAdmit() },
		},
		{
			name: "draining", cfg: quar(time.Hour), want: allSet,
			set: func(t *testing.T, s *Server, _ string) func() { drain(t, s); return nil },
		},
		{
			name: "queue-full", cfg: quar(time.Hour), want: queueFull,
			set: func(t *testing.T, s *Server, _ string) func() { return fillQueue(t, s) },
		},
		{
			name: "half-open-key+queue-full", cfg: quar(matrixTTL), halfOpen: true, want: queueFull,
			set: func(t *testing.T, s *Server, url string) func() { halfOpen(t, url); return fillQueue(t, s) },
		},
		{
			name: "half-open-key+admit-faultpoint", cfg: quar(matrixTTL), halfOpen: true, want: allSet,
			set: func(t *testing.T, s *Server, url string) func() { halfOpen(t, url); return armAdmit() },
		},
	}
	for _, row := range rows {
		for ci, col := range admissionColumns {
			t.Run(row.name+"/"+col.name, func(t *testing.T) {
				admissionCell(t, row, col, row.want[ci])
			})
		}
	}
}

// admissionCell runs one cell of the matrix.
func admissionCell(t *testing.T, row admissionRow, col admissionColumn, want outcome) {
	defer faultpoint.Reset()
	var s, entry *Server
	var url, target string
	if col.proxied {
		// Slow gossip: the entry shard's view of the owner stays the one
		// from before the condition was set, so it proxies the miss.
		servers, urls, _ := newFailoverCluster(t, 2, row.cfg, ClusterConfig{GossipInterval: 5 * time.Second})
		o := ownerIndex(t, servers, urls, cexMSL)
		s, url, entry, target = servers[o], urls[o], servers[1-o], urls[1-o]
		waitUntil(t, 5*time.Second, "the entry shard to hear the owner", func() bool {
			_, ok := entry.clusterView().tracker.Status(url)
			return ok
		})
	} else {
		s, url = newTestServer(t, row.cfg)
		target = url
		if r := checkWait(t, url, matrixHit); r.Status != "UNREACHABLE" {
			t.Fatalf("filling the hit: %s, want UNREACHABLE", r.Status)
		}
	}
	release := row.set(t, s, url)
	before := s.Metrics()
	var entryBefore MetricsSnapshot
	if entry != nil {
		entryBefore = entry.Metrics()
	}

	req, verdict := matrixMiss, "REACHABLE"
	if col.hit {
		req, verdict = matrixHit, "UNREACHABLE"
	}
	path := "/v1/check"
	var body any = req
	if col.batch {
		path, body = "/v1/batch", BatchRequest{Jobs: []CheckRequest{req}}
	}
	resp, err := http.Post(target+path, "application/json", jsonBody(t, body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var res *JobResult // the check's answer when one came back
	switch {
	case want == setRefused || (want == keyRefused && !col.batch):
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("HTTP %d (%s), want 503", resp.StatusCode, raw)
		}
	case col.batch:
		var br BatchResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &br) != nil || len(br.Results) != 1 {
			t.Fatalf("HTTP %d (%s), want 200 with one result", resp.StatusCode, raw)
		}
		res = br.Results[0]
	default:
		var st checkResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &st) != nil {
			t.Fatalf("HTTP %d (%s), want 200", resp.StatusCode, raw)
		}
		res = st.Result
	}
	keyHeader := resp.Header.Get(rejectHeader)
	if wantHeader := want == keyRefused && !col.batch; wantHeader != (keyHeader == "quarantined") {
		t.Errorf("%s = %q, want it set: %v", rejectHeader, keyHeader, wantHeader)
	}
	switch {
	case want == keyRefused && col.batch:
		if res.Status != StatusError || !strings.Contains(res.Error, "quarantined") {
			t.Errorf("refused batch item: %+v, want a quarantined ERROR", res)
		}
	case want == admitted || want == entryServed:
		if res == nil || res.Status != verdict || res.Cached != col.hit {
			t.Errorf("answer %+v, want %s with cached=%v", res, verdict, col.hit)
		}
	}

	if release != nil {
		release()
	}

	// The counters of the shard under test: one count per item.
	after := s.Metrics()
	wantSub, wantRej, wantQuar, wantOver := int64(0), int64(1), int64(0), int64(0)
	switch want {
	case admitted:
		wantSub, wantRej = 1, 0
	case keyRefused:
		wantQuar = 1
	default:
		if row.overload {
			wantOver = 1
		}
	}
	if got := after.Submitted - before.Submitted; got != wantSub {
		t.Errorf("jobs_submitted +%d, want +%d", got, wantSub)
	}
	if got := after.Rejected - before.Rejected; got != wantRej {
		t.Errorf("jobs_rejected +%d, want +%d", got, wantRej)
	}
	if got := after.Quarantine.Rejected - before.Quarantine.Rejected; got != wantQuar {
		t.Errorf("quarantine.rejected +%d, want +%d", got, wantQuar)
	}
	if got := after.Overload.Rejected - before.Overload.Rejected; got != wantOver {
		t.Errorf("overload.rejected +%d, want +%d", got, wantOver)
	}
	if entry != nil {
		ea := entry.Metrics()
		entrySub, shed := int64(0), int64(0)
		if want == entryServed {
			entrySub, shed = 1, 1
		}
		if got := ea.Submitted - entryBefore.Submitted; got != entrySub {
			t.Errorf("entry jobs_submitted +%d, want +%d", got, entrySub)
		}
		if got := ea.Rejected - entryBefore.Rejected; got != 0 {
			t.Errorf("entry jobs_rejected +%d, want +0", got)
		}
		if got := ea.Cluster.ShedServed - entryBefore.Cluster.ShedServed; got != shed {
			t.Errorf("entry shed_served +%d, want +%d", got, shed)
		}
	}

	if row.halfOpen {
		if r := checkWait(t, url, matrixProbe); r.Status != "UNREACHABLE" {
			t.Errorf("probe after the cell: %s, want UNREACHABLE", r.Status)
		}
		if open := s.Metrics().Quarantine.OpenKeys; open != 0 {
			t.Errorf("open_keys = %d after a decided probe, want 0", open)
		}
	}
	for _, sh := range []*Server{s, entry} {
		if sh == nil {
			continue
		}
		m := sh.Metrics()
		if m.Completed != m.Submitted {
			t.Errorf("idle shard: jobs_completed %d, jobs_submitted %d", m.Completed, m.Submitted)
		}
		if m.Quarantine.Rejected > m.Rejected || m.Overload.Rejected > m.Rejected {
			t.Errorf("quarantine.rejected %d and overload.rejected %d must be subsets of jobs_rejected %d",
				m.Quarantine.Rejected, m.Overload.Rejected, m.Rejected)
		}
	}
}

// TestServiceQueuedProbeAnsweredFromCache: a half-open key's probe is a
// queued miss, and the cache can gain its answer while it waits (from
// an identical job, a replica or a terminal proof). The worker then
// answers it from the cache, which says nothing about the key but must
// still free the probe slot: the next miss probes, and a decided one
// closes the key.
func TestServiceQueuedProbeAnsweredFromCache(t *testing.T) {
	defer faultpoint.Reset()
	s, url := newTestServer(t, Config{Workers: 1, QueueDepth: 4, QuarantineThreshold: 1, QuarantineTTL: matrixTTL})
	openKey(t, url)
	time.Sleep(matrixTTL + 10*time.Millisecond)
	blocker := pinWorker(t, s)
	defer blocker.cancel.Set()
	probe, err := s.submit(matrixHit) // a miss still: it takes the probe slot
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	s.cache.put(probe.key(), JobResult{Status: "UNREACHABLE", Bound: matrixHit.Bound, FoundAt: -1})
	blocker.cancel.Set()
	<-probe.done
	if r := probe.result; !r.Cached || r.Status != "UNREACHABLE" {
		t.Fatalf("probe: %+v, want a cached UNREACHABLE", r)
	}
	if r := checkWait(t, url, matrixMiss); r.Status != "REACHABLE" {
		t.Fatalf("miss after the probe: %s, want REACHABLE", r.Status)
	}
	if open := s.Metrics().Quarantine.OpenKeys; open != 0 {
		t.Fatalf("open_keys = %d after a decided probe, want 0", open)
	}
}
