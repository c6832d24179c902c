package service

// Service observability: cheap atomic counters updated on the hot path,
// snapshotted into one JSON document by GET /metrics. The quantities
// are the ones that tell an operator whether the warm machinery is
// actually paying off: queue depth against capacity, verdict-cache and
// session hit rates, which engine wins how often (DecidedBy), and the
// peak solver footprint observed — the same honestly-accounted bytes
// the E3 experiments track.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
)

type metrics struct {
	start time.Time

	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
	timedOut  atomic.Int64

	// panicsRecovered counts solver panics converted into ERROR results
	// instead of killing the process — the crash-containment headline
	// number. internalErrors counts every ERROR result (panics
	// included).
	panicsRecovered atomic.Int64
	internalErrors  atomic.Int64

	// quarantineRejected counts requests answered immediately with
	// ErrQuarantined, no worker touched.
	quarantineRejected atomic.Int64

	// Overload degradation: warm sessions shed under the memory
	// watermark, and submissions rejected because shedding was not
	// enough.
	sessionsShed     atomic.Int64
	overloadRejected atomic.Int64

	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	sessionHits   atomic.Int64
	sessionMisses atomic.Int64
	// terminalHits counts cache hits answered by a model's bound-free
	// terminal entry — requests (at any bound) short-circuited by a
	// previously proven SAFE. A subset of cacheHits.
	terminalHits atomic.Int64

	// deepenBoundsSkipped totals the bounds deepen runs decided without
	// their own solver invocation (geometric coverage jumps plus warm
	// proven-prefix reuse). Fresh computes only — cache hits re-serve the
	// recorded number without saving any new work.
	deepenBoundsSkipped atomic.Int64

	peakSolverBytes atomic.Int64

	// Cluster routing locality: where requests landed relative to the
	// rendezvous ring. OwnedServed are requests this shard ran as the
	// key's owner; Proxied went to their owner elsewhere; ForwardedIn
	// arrived pre-routed from a peer; ShedServed ran here although a
	// preferred shard exists (it was unhealthy or bounced, or the check
	// was a batch item, which always runs where it lands);
	// ReplicaServed were verdict-cache hits on a key another shard
	// serves, answered here from this shard's own cache.
	clusterOwnedServed   atomic.Int64
	clusterProxied       atomic.Int64
	clusterForwardedIn   atomic.Int64
	clusterShedServed    atomic.Int64
	clusterReplicaServed atomic.Int64

	// Warm-failover accounting: the verdict replication write-behind
	// (out = entries peers stored, in = entries stored from peers) and
	// the catch-up pulls.
	replicatedOut     atomic.Int64
	replicatedIn      atomic.Int64
	replicateRejected atomic.Int64 // receiver dropped an invalid entry
	replicateDropped  atomic.Int64 // sender did not deliver an entry to a peer
	repairPulls       atomic.Int64
	repairedEntries   atomic.Int64

	// latRing holds recent wall-clocks (microseconds) of jobs a worker
	// ran: the one job latency estimator. Its mean is what Retry-After
	// and /metrics avg_job_ms report; a verdict-cache hit answered on
	// the handler goroutine takes no queue slot and never enters it.
	// Lock-free: writers claim slots round-robin, readers take a racy
	// snapshot — a mean over slightly torn samples is still a mean.
	latRing [latRingSize]atomic.Int64
	latIdx  atomic.Uint64

	mu        sync.Mutex
	decidedBy map[string]int64
}

const latRingSize = 256

func newMetrics() *metrics {
	return &metrics{start: time.Now(), decidedBy: make(map[string]int64)}
}

func (m *metrics) noteDecided(engine string) {
	if engine == "" {
		return
	}
	m.mu.Lock()
	m.decidedBy[engine]++
	m.mu.Unlock()
}

// noteElapsed records one finished job's wall-clock in the sample ring.
func (m *metrics) noteElapsed(d time.Duration) {
	us := d.Microseconds()
	if us < 1 {
		us = 1 // zero marks an empty ring slot
	}
	m.latRing[m.latIdx.Add(1)%latRingSize].Store(us)
}

// meanJobMicros is the mean over the filled slots of the recent-job
// ring (0 when no job has finished).
func (m *metrics) meanJobMicros() int64 {
	var sum, n int64
	for i := range m.latRing {
		if v := m.latRing[i].Load(); v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func (m *metrics) notePeakBytes(b int64) {
	for {
		cur := m.peakSolverBytes.Load()
		if b <= cur || m.peakSolverBytes.CompareAndSwap(cur, b) {
			return
		}
	}
}

// MetricsSnapshot is the GET /metrics document.
type MetricsSnapshot struct {
	UptimeMS int64 `json:"uptime_ms"`
	Draining bool  `json:"draining"`
	Workers  int   `json:"workers"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	Submitted int64 `json:"jobs_submitted"`
	Completed int64 `json:"jobs_completed"`
	Rejected  int64 `json:"jobs_rejected"`
	// Cancelled counts jobs stopped by a client disconnect;
	// TimedOut counts jobs stopped by their own timeout_ms budget.
	Cancelled int64 `json:"jobs_cancelled"`
	TimedOut  int64 `json:"jobs_timed_out"`

	// PanicsRecovered counts solver panics contained into ERROR results
	// (the process survived every one of them); InternalErrors counts
	// all ERROR results, panics included.
	PanicsRecovered int64 `json:"panics_recovered"`
	InternalErrors  int64 `json:"internal_errors"`

	// Quarantine is the (model, engine) circuit-breaker state.
	Quarantine struct {
		OpenKeys    int   `json:"open_keys"`
		TrackedKeys int   `json:"tracked_keys"`
		Opened      int64 `json:"opened_total"`
		Rejected    int64 `json:"rejected"`
	} `json:"quarantine"`

	// Overload is the degradation ladder's accounting: sessions shed
	// under the memory watermark, submissions rejected after shedding
	// fell short, and the live Retry-After a 503 would carry right now.
	Overload struct {
		MemHighWater     int   `json:"mem_high_water_bytes"`
		SessionsShed     int64 `json:"sessions_shed"`
		Rejected         int64 `json:"rejected"`
		RetryAfterS      int   `json:"retry_after_s"`
		AvgJobMS         int64 `json:"avg_job_ms"`
		MaxTimeoutMS     int64 `json:"max_timeout_ms"`
		RetainedBytesNow int   `json:"retained_bytes_now"`
	} `json:"overload"`

	// Faultpoints lists the armed fault-injection sites (empty in
	// production: nothing armed).
	Faultpoints []faultpoint.SiteStatus `json:"faultpoints,omitempty"`

	Cache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
		// TerminalHits: hits answered by a bound-free terminal (SAFE)
		// entry, whatever bound the request asked for.
		TerminalHits int64 `json:"terminal_hits"`
		Entries      int   `json:"entries"`
		Bytes        int   `json:"bytes"`
		Budget       int   `json:"budget_bytes"`
	} `json:"verdict_cache"`

	Sessions struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Live   int   `json:"live"`
		Bytes  int   `json:"bytes"`
		Budget int   `json:"budget_bytes"`
	} `json:"sessions"`

	// ModelMemo is the model → content hash memo that /v1/check,
	// /v1/batch items and replica adoption consult before parsing: a hit
	// costs a digest and a lookup instead of a parse and a ModelHash.
	// Each request counts one hit or one miss; a model that arrived by
	// /v1/check holds two entries, its raw JSON string's and its text's.
	ModelMemo struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Entries int   `json:"entries"`
	} `json:"model_memo"`

	// Cluster is present only on a clustered shard: topology plus the
	// per-shard locality counters the smoke test and bmcload read to
	// prove hash routing actually concentrates each model's traffic.
	Cluster *ClusterSnapshot `json:"cluster,omitempty"`

	DecidedBy map[string]int64 `json:"decided_by"`
	// DeepenBoundsSkipped: bounds answered without their own solver
	// invocation across all fresh deepen runs (schedule jumps + warm
	// proven prefixes).
	DeepenBoundsSkipped int64 `json:"deepen_bounds_skipped"`
	PeakSolverBytes     int64 `json:"peak_solver_bytes"`
}

// ClusterSnapshot is the /metrics cluster section of one shard.
type ClusterSnapshot struct {
	Self    string `json:"self"`
	Shards  int    `json:"shards"`
	PeersUp int    `json:"peers_up"`

	// The routing ledger: every /v1/check request (and every batch
	// item) this shard received lands in exactly one of these five.
	// ShedServed also counts the batch misses another shard serves:
	// a batch runs whole on the shard it lands on.
	OwnedServed   int64 `json:"owned_served"`
	Proxied       int64 `json:"proxied_out"`
	ForwardedIn   int64 `json:"forwarded_in"`
	ShedServed    int64 `json:"shed_served"`
	ReplicaServed int64 `json:"replica_served"`

	// Replication is the warm-failover machinery's accounting.
	Replication ReplicationSnapshot `json:"replication"`
}

// ReplicationSnapshot is the /metrics replication section: the verdict
// write-behind and the catch-up pulls.
type ReplicationSnapshot struct {
	// ReplicatedOut counts entries peers stored from this shard's
	// pushes; ReplicatedIn counts entries this shard stored from peers
	// (replicate pushes and repair pulls both land here). An entry the
	// receiver already held counts in neither.
	ReplicatedOut int64 `json:"replicated_out"`
	ReplicatedIn  int64 `json:"replicated_in"`
	// ReplicateDropped: entries the push did not deliver, once per
	// peer: queue overflow, peer down or failed send. Each peer
	// learns its count through gossip and pulls this shard's cache.
	// ReplicateRejected: receiver-side entries dropped for failing
	// validation (hash mismatch, witness that does not replay).
	ReplicateDropped  int64 `json:"replicate_dropped"`
	ReplicateRejected int64 `json:"replicate_rejected"`

	// RepairPulls counts catch-up pull requests issued: one per peer on
	// first contact, and one per peer report of a dropped push;
	// RepairedEntries counts entries stored through them.
	RepairPulls     int64 `json:"repair_pulls"`
	RepairedEntries int64 `json:"repaired_entries"`

	// HedgesFired is always 0 and never serialized: this shard proxies
	// without hedging. It stays because bmcbench still reads it.
	HedgesFired int64 `json:"-"`
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() MetricsSnapshot {
	m := s.metrics
	var out MetricsSnapshot
	out.UptimeMS = time.Since(m.start).Milliseconds()
	out.Draining = s.Draining()
	out.Workers = s.cfg.Workers
	out.QueueDepth = len(s.queue)
	out.QueueCapacity = s.cfg.QueueDepth

	out.Submitted = m.submitted.Load()
	out.Completed = m.completed.Load()
	out.Rejected = m.rejected.Load()
	out.Cancelled = m.cancelled.Load()
	out.TimedOut = m.timedOut.Load()

	out.PanicsRecovered = m.panicsRecovered.Load()
	out.InternalErrors = m.internalErrors.Load()

	out.Quarantine.OpenKeys, out.Quarantine.TrackedKeys, out.Quarantine.Opened = s.quar.stats()
	out.Quarantine.Rejected = m.quarantineRejected.Load()

	out.Overload.MemHighWater = s.cfg.MemHighWater
	out.Overload.SessionsShed = m.sessionsShed.Load()
	out.Overload.Rejected = m.overloadRejected.Load()
	out.Overload.RetryAfterS = s.retryAfterSeconds()
	out.Overload.AvgJobMS = m.meanJobMicros() / 1000
	out.Overload.MaxTimeoutMS = s.cfg.MaxTimeout.Milliseconds()
	out.Overload.RetainedBytesNow = s.retainedBytes()

	out.Faultpoints = faultpoint.Snapshot()

	out.Cache.Hits = m.cacheHits.Load()
	out.Cache.Misses = m.cacheMisses.Load()
	out.Cache.TerminalHits = m.terminalHits.Load()
	if total := out.Cache.Hits + out.Cache.Misses; total > 0 {
		out.Cache.HitRate = float64(out.Cache.Hits) / float64(total)
	}
	out.Cache.Entries, out.Cache.Bytes, out.Cache.Budget = s.cache.stats()

	out.Sessions.Hits = m.sessionHits.Load()
	out.Sessions.Misses = m.sessionMisses.Load()
	out.Sessions.Live, out.Sessions.Bytes, out.Sessions.Budget = s.sessions.stats()
	out.ModelMemo.Hits, out.ModelMemo.Misses, out.ModelMemo.Entries = s.models.stats()

	if cs := s.clusterView(); cs != nil {
		peerIDs := make([]string, len(cs.peers))
		for i, p := range cs.peers {
			peerIDs[i] = p.ID
		}
		out.Cluster = &ClusterSnapshot{
			Self:          cs.self.ID,
			Shards:        len(cs.peers) + 1,
			PeersUp:       cs.tracker.Up(peerIDs),
			OwnedServed:   m.clusterOwnedServed.Load(),
			Proxied:       m.clusterProxied.Load(),
			ForwardedIn:   m.clusterForwardedIn.Load(),
			ShedServed:    m.clusterShedServed.Load(),
			ReplicaServed: m.clusterReplicaServed.Load(),
			Replication: ReplicationSnapshot{
				ReplicatedOut:     m.replicatedOut.Load(),
				ReplicatedIn:      m.replicatedIn.Load(),
				ReplicateDropped:  m.replicateDropped.Load(),
				ReplicateRejected: m.replicateRejected.Load(),
				RepairPulls:       m.repairPulls.Load(),
				RepairedEntries:   m.repairedEntries.Load(),
			},
		}
	}

	out.DecidedBy = make(map[string]int64)
	m.mu.Lock()
	for k, v := range m.decidedBy {
		out.DecidedBy[k] = v
	}
	m.mu.Unlock()
	out.DeepenBoundsSkipped = m.deepenBoundsSkipped.Load()
	out.PeakSolverBytes = m.peakSolverBytes.Load()
	return out
}
