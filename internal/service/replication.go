package service

// Warm failover for the sharded cluster: the machinery that makes a
// verdict survive the death of the shard that computed it, and the one
// way warm state leaves a shard.
//
//   - Replication: every fresh verdict-cache fill is write-behind
//     replicated to the key's first failover shard (the next entry in
//     rendezvous preference order). The enqueue is a non-blocking
//     channel send — a full queue drops the entry and counts it, it
//     never delays the request path — and a background worker batches
//     queued entries per target into POST /v1/cluster/replicate. The
//     receiver re-derives the model hash from the shipped AAG (through
//     its model memo, memo.go) and replay-validates witness-bearing
//     REACHABLE entries before adopting them, exactly like served
//     verdicts: a corrupt or dishonest replica is dropped, not cached.
//     A drain flushes what the queue still holds before the shard
//     stops. Replicated deepen verdicts are also what carries a proven
//     prefix to the key's next owner: a session built there seeds
//     itself from them (solve, verdictCache.provenBelow). An entry
//     the push cannot deliver — queue overflow, a target the gossip
//     tracker calls unhealthy, a failed send — is dropped and counted;
//     anti-entropy delivers it.
//
//   - Anti-entropy: each shard piggybacks a per-range verdict-cache
//     digest (count + XOR identity hash, cache.go) on its gossip
//     status. A shard whose view of a peer's range disagrees with its
//     own issues GET /v1/cluster/repair?ranges=... and merges the
//     difference — union merge, so repeated exchange converges after
//     partitions, kill -9 crashes, and rolling restarts, and it is the
//     one way a restarted shard catches up on what it missed. A
//     per-(peer, range) memo of the last digest pulled keeps the
//     exchange quiescent once the caches stop changing: divergence a
//     pull cannot close (entries past the LRU budget, run-stat-only
//     differences) is pulled once, not every tick.
//
// Both paths run under the replicate/repair faultpoints, so the chaos
// storm exercises them; a panic injected into the background worker is
// contained, never process-fatal.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	sebmc "repro"
	"repro/internal/cluster"
	"repro/internal/faultpoint"
)

// wireKey is the session identity a replicate or repair entry carries,
// in the text form requests use, plus the model source when one is
// shipped.
type wireKey struct {
	Hash      string `json:"hash"`
	Engine    string `json:"engine"`
	Semantics string `json:"semantics"`
	Schedule  string `json:"schedule"`
	PG        bool   `json:"pg,omitempty"`
	// Model is the AAG source with the bad literal as output 0 — the
	// same wire convention /v1/check submissions use.
	Model string `json:"model,omitempty"`
}

func newWireKey(k sessionKey, model string) wireKey {
	return wireKey{Hash: k.Hash, Engine: k.Engine.String(), Semantics: k.Sem.String(),
		Schedule: k.Sched.String(), PG: k.PG, Model: model}
}

// parse reads the identity back through the parsers requests use.
func (w wireKey) parse() (sessionKey, error) {
	if w.Hash == "" {
		return sessionKey{}, fmt.Errorf("service: cluster payload without model hash")
	}
	engine, err := sebmc.ParseEngine(w.Engine)
	if err != nil {
		return sessionKey{}, err
	}
	sem, err := parseSem(w.Semantics)
	if err != nil {
		return sessionKey{}, err
	}
	sched, err := sebmc.ParseSchedule(w.Schedule)
	if err != nil {
		return sessionKey{}, err
	}
	return sessionKey{Hash: w.Hash, Engine: engine, Sem: sem, Sched: sched, PG: w.PG}, nil
}

// parseSem reads a semantics name ("" is exact).
func parseSem(s string) (sebmc.Semantics, error) {
	switch s {
	case "", "exact":
		return sebmc.Exact, nil
	case "atmost":
		return sebmc.AtMost, nil
	}
	return sebmc.Exact, fmt.Errorf("service: unknown semantics %q (want exact or atmost)", s)
}

// replicaEntry is the wire form of one verdict-cache entry: the full
// question (the verdict key) and the cached JobResult itself. The
// record's own "bound" is shadowed by the key's and travels as
// result_bound. Replicate pushes attach the model source, so the
// receiver can check the content hash and replay the witness or
// certificate; repair pulls omit it (the cache does not retain it) and
// only carry entries whose artifacts were validated at original fill
// or replicate time.
type replicaEntry struct {
	wireKey
	Bound  int  `json:"bound"`
	Deepen bool `json:"deepen,omitempty"`
	JobResult
	ResultBound int `json:"result_bound"`
}

func newReplicaEntry(k verdictKey, v JobResult, model string) replicaEntry {
	return replicaEntry{wireKey: newWireKey(k.sessionKey, model), Bound: k.Bound, Deepen: k.Deepen,
		JobResult: v, ResultBound: v.Bound}
}

// entryKey parses the wire entry's question back into a verdict key.
func (e replicaEntry) entryKey() (verdictKey, error) {
	sk, err := e.parse()
	return verdictKey{sessionKey: sk, Bound: e.Bound, Deepen: e.Deepen}, err
}

// replicatePayload is the POST /v1/cluster/replicate body.
type replicatePayload struct {
	Entries []replicaEntry `json:"entries"`
}

// replicateResponse reports how many entries the receiver stored:
// entries it already held are not counted.
type replicateResponse struct {
	Accepted int `json:"accepted"`
}

// repairPayload is the GET /v1/cluster/repair answer. Truncated means
// the response hit its size cap; the puller must not memoize the
// digest it pulled against, so the next gossip tick pulls the rest.
type repairPayload struct {
	Entries   []replicaEntry `json:"entries"`
	Truncated bool           `json:"truncated,omitempty"`
}

// replTask is one queued write-behind replication: the cache entry
// plus the parsed system it answers for (serialized to AAG on the
// worker goroutine, never on the request path).
type replTask struct {
	key verdictKey
	v   JobResult
	sys *sebmc.System
}

// replBatchMax bounds how many queued entries one send coalesces.
const replBatchMax = 32

// replQueueDepth bounds the write-behind queue: a full queue drops
// entries (counted) instead of blocking the request path.
const replQueueDepth = 1024

// replSendTimeout bounds every replicate/repair exchange.
const replSendTimeout = 10 * time.Second

// replicator is the warm-failover engine of one clustered shard: the
// bounded write-behind queue and its worker, and the anti-entropy pull
// memos.
type replicator struct {
	s  *Server
	cs *clusterState

	queue chan replTask

	mu         sync.Mutex
	lastPulled map[string]map[int]uint64 // peer ID -> range -> digest hash pulled
}

func newReplicator(s *Server, cs *clusterState) *replicator {
	return &replicator{
		s:          s,
		cs:         cs,
		queue:      make(chan replTask, replQueueDepth),
		lastPulled: make(map[string]map[int]uint64),
	}
}

// enqueue hands one fresh cache fill to the write-behind worker. Non-
// blocking by construction: this is called from the request path, and
// a replication storm must degrade to dropped replicas (anti-entropy
// will catch them up), never to queue-depth latency on /v1/check.
func (r *replicator) enqueue(t replTask) {
	select {
	case r.queue <- t:
	default:
		r.s.metrics.replicateDropped.Add(1)
	}
}

// loop is the write-behind worker: it drains the queue in batches,
// groups entries by their failover target, and sends. Runs under the
// cluster's WaitGroup; exits when the cluster stops, leaving whatever
// is still queued to flush.
func (r *replicator) loop() {
	defer r.cs.wg.Done()
	for {
		select {
		case <-r.cs.stop:
			return
		case t := <-r.queue:
			r.sendBatch(context.Background(), r.collect(t))
		}
	}
}

// collect appends queued tasks to batch, up to replBatchMax, without
// waiting for more to arrive.
func (r *replicator) collect(batch ...replTask) []replTask {
	for len(batch) < replBatchMax {
		select {
		case t := <-r.queue:
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// flush sends whatever the queue still holds, batch by batch, until it
// is empty or ctx ends. Drain calls it after the workers have exited,
// so no new fill arrives while it runs; a send that fails drops its
// entries (counted), and they leave with the draining shard unless a
// peer's repair pull fetches them first.
func (r *replicator) flush(ctx context.Context) {
	for ctx.Err() == nil {
		batch := r.collect()
		if len(batch) == 0 {
			return
		}
		r.sendBatch(ctx, batch)
	}
}

// target picks the entry's first failover shard: the first shard in
// rendezvous preference order that is not this one. Nil on a
// single-shard "cluster" — nobody to replicate to.
func (r *replicator) target(hash string) *cluster.Shard {
	prefs := r.cs.ring.Prefs(hash)
	for i := range prefs {
		if prefs[i].ID != r.cs.self.ID {
			return &prefs[i]
		}
	}
	return nil
}

// sendBatch groups one drained batch by failover target and pushes
// each group, dropping (and counting) the entries for a target that is
// unhealthy or refuses the send. Contained: a panic injected at the
// send faultpoint (or a bug in the serialization path) is swallowed
// here — the replicator is an accelerator, and its worker must survive
// anything.
func (r *replicator) sendBatch(ctx context.Context, batch []replTask) {
	defer func() { _ = recover() }()
	groups := make(map[cluster.Shard][]replicaEntry)
	for _, t := range batch {
		sh := r.target(t.key.Hash)
		if sh == nil {
			continue
		}
		var aag strings.Builder
		if err := t.sys.Reduce().Circ.WriteAAG(&aag); err != nil {
			continue
		}
		groups[*sh] = append(groups[*sh], newReplicaEntry(t.key, t.v, aag.String()))
	}
	for sh, entries := range groups {
		if !r.cs.tracker.Healthy(sh.ID) {
			r.s.metrics.replicateDropped.Add(int64(len(entries)))
			continue
		}
		accepted, err := r.push(ctx, sh, entries)
		if err != nil {
			// The target looked healthy but the send bounced: demote it
			// now (direct refusal evidence, no hysteresis).
			r.cs.tracker.NoteDown(sh.ID)
			r.s.metrics.replicateDropped.Add(int64(len(entries)))
			continue
		}
		r.s.metrics.replicatedOut.Add(int64(accepted))
	}
}

// push POSTs one batch of entries to a peer's replicate endpoint.
func (r *replicator) push(ctx context.Context, target cluster.Shard, entries []replicaEntry) (int, error) {
	// Fault-injection site: an injected error simulates the network
	// eating the send (the entries drop); an injected delay simulates a
	// slow peer stream.
	if err := faultpoint.Hit("service.replicate.send"); err != nil {
		return 0, err
	}
	payload, err := json.Marshal(replicatePayload{Entries: entries})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, replSendTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.URL+"/v1/cluster/replicate", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.cs.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, &APIError{StatusCode: resp.StatusCode, Message: readMessage(resp.Body)}
	}
	var rr replicateResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, err
	}
	return rr.Accepted, nil
}

// antiEntropy compares a freshly-heard peer digest against the local
// cache and pulls the ranges that disagree. The lastPulled memo keeps
// the exchange quiescent: a range is re-pulled only when the peer's
// digest differs both from ours and from what we last pulled from that
// peer — so divergence a pull cannot close (their entries fell to our
// LRU budget, or the entries differ only in run statistics) costs one
// pull, not one per tick.
func (r *replicator) antiEntropy(target cluster.Shard, st cluster.Status) {
	defer func() { _ = recover() }()
	if len(st.CacheDigest) == 0 {
		return
	}
	local := r.s.cache.digest()
	r.mu.Lock()
	memo := r.lastPulled[target.ID]
	var ranges []int
	for i := 0; i < len(st.CacheDigest) && i < len(local); i++ {
		peer := st.CacheDigest[i]
		if peer.Count == 0 || peer.Hash == local[i].Hash {
			continue // nothing to pull, or already converged
		}
		if memo != nil {
			if h, ok := memo[i]; ok && h == peer.Hash {
				continue // already pulled this exact divergence
			}
		}
		ranges = append(ranges, i)
	}
	r.mu.Unlock()
	if len(ranges) == 0 {
		return
	}
	// Fault-injection site: an injected error blackholes the pull —
	// divergence persists until the site disarms, exactly a partition.
	if err := faultpoint.Hit("service.repair.pull"); err != nil {
		return
	}
	r.s.metrics.repairPulls.Add(1)
	pulled, truncated, err := r.pull(target, ranges)
	if err != nil {
		return // next tick retries; the memo was not updated
	}
	adopted := 0
	for _, e := range pulled {
		stored, err := r.s.adoptReplica(e, false)
		if err != nil {
			r.s.metrics.replicateRejected.Add(1)
		} else if stored {
			adopted++
		}
	}
	r.s.metrics.repairedEntries.Add(int64(adopted))
	r.s.metrics.replicatedIn.Add(int64(adopted))
	if truncated {
		return // more to pull; leave the memo stale so the next tick continues
	}
	r.mu.Lock()
	if r.lastPulled[target.ID] == nil {
		r.lastPulled[target.ID] = make(map[int]uint64)
	}
	for _, i := range ranges {
		r.lastPulled[target.ID][i] = st.CacheDigest[i].Hash
	}
	r.mu.Unlock()
}

// pull fetches a peer's entries for the given ranges.
func (r *replicator) pull(target cluster.Shard, ranges []int) ([]replicaEntry, bool, error) {
	parts := make([]string, len(ranges))
	for i, rg := range ranges {
		parts[i] = strconv.Itoa(rg)
	}
	ctx, cancel := context.WithTimeout(context.Background(), replSendTimeout)
	defer cancel()
	url := target.URL + "/v1/cluster/repair?ranges=" + strings.Join(parts, ",")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := r.cs.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, false, &APIError{StatusCode: resp.StatusCode, Message: readMessage(resp.Body)}
	}
	var rp repairPayload
	if err := json.NewDecoder(resp.Body).Decode(&rp); err != nil {
		return nil, false, err
	}
	return rp.Entries, rp.Truncated, nil
}

// replicateFill hands one fresh verdict-cache fill to the write-behind
// replicator, under the same key the local cache used (bound-free for
// terminal verdicts). Called on the request path, so it must stay O(1):
// a channel send or a dropped-counter bump, nothing else. A terminal
// verdict without a certificate (the k-induction arm proves without an
// artifact) is not replicated — receivers adopt terminal claims only
// after replaying a certificate, so the send would just bounce.
func (s *Server) replicateFill(j *job, key verdictKey, res *JobResult) {
	cs := s.clusterView()
	if cs == nil {
		return
	}
	if res.Terminal && res.Certificate == "" {
		return
	}
	cs.repl.enqueue(replTask{key: key, v: *res, sys: j.sys})
}

// adoptReplica validates one wire entry and adopts it into the local
// verdict cache, reporting whether it stored the entry: a valid entry
// whose key is already resident is not stored, and not an error.
// withModel distinguishes replicate pushes (model attached: check the
// content hash, replay the witness) from repair pulls (no model: only
// entries validated at original fill time are accepted).
func (s *Server) adoptReplica(e replicaEntry, withModel bool) (bool, error) {
	k, err := e.entryKey()
	if err != nil {
		return false, err
	}
	v := e.JobResult
	v.Bound = e.ResultBound
	if !v.decided() {
		// Only decided answers are cacheable; UNKNOWN depends on the
		// sender's budget and ERROR must never be replayed.
		return false, fmt.Errorf("service: replica entry with undecided status %q", e.Status)
	}
	if withModel {
		sys, err := s.shippedModel(e)
		if err != nil {
			return false, err
		}
		if e.Status == sebmc.Safe.String() {
			// A terminal claim short-circuits every future bound for the
			// model, so it is held to the strictest adoption bar: the
			// shipped invariant certificate must replay here, by
			// substitution against this receiver's own parse of the
			// model. No certificate, no adoption.
			if e.Certificate == "" {
				return false, fmt.Errorf("service: terminal replica entry without certificate")
			}
			cert, err := sebmc.ParseCertificate(e.Certificate)
			if err != nil {
				return false, fmt.Errorf("service: bad replica certificate: %w", err)
			}
			if cert.Kind != sebmc.CertInvariant {
				return false, fmt.Errorf("service: terminal replica entry with %s certificate", cert.Kind)
			}
			if err := cert.Validate(sys.Reduce()); err != nil {
				return false, fmt.Errorf("service: replica certificate does not replay: %w", err)
			}
			v.CertificateValidated = true
		}
		if e.Status == sebmc.Reachable.String() && e.Witness != "" {
			// Replay the witness locally, exactly like a served verdict:
			// REACHABLE claims are never taken on faith across shards.
			// At-most-k runs (and the deepening schedules that force that
			// semantics internally) record their traces against the
			// self-looped transform — one extra input selecting the
			// stutter step — so a plain-system replay is tried first and
			// the transform second. A trace that replays on neither (the
			// cone-of-influence reduction can also change widths) is
			// rejected here; such entries still reach the peer through
			// anti-entropy repair, which trusts the fill-time validation.
			wit, err := sebmc.ParseWitness(e.Witness)
			if err != nil {
				return false, fmt.Errorf("service: bad replica witness: %w", err)
			}
			if err := wit.Validate(sys); err != nil {
				if err2 := wit.Validate(sebmc.AddSelfLoop(sys)); err2 != nil {
					return false, fmt.Errorf("service: replica witness does not replay: %w", err)
				}
			}
			v.WitnessValidated = true
		}
	} else if e.Status == sebmc.Reachable.String() && e.Witness != "" && !e.WitnessValidated {
		// Repair entries carry no model to replay against; only
		// witnesses already validated by the shard that computed or
		// received them are trusted.
		return false, fmt.Errorf("service: repair entry carries an unvalidated witness")
	} else if e.Status == sebmc.Safe.String() && !e.CertificateValidated {
		// The same bar for terminal claims: without a model to replay
		// against, only certificates already validated by the shard
		// that computed or adopted them cross on repair.
		return false, fmt.Errorf("service: repair entry carries an unvalidated terminal claim")
	}
	return s.cache.add(k, v), nil // idempotent: the resident entry wins
}

// shippedModel re-derives the content hash of a replicate entry's
// shipped model, through the model memo: a peer's claimed hash is never
// trusted, because state filed under the wrong hash would answer another
// model's requests. The memo vouches only for the hash, so an entry
// whose witness or certificate must be replayed still gets a parse of
// its own; every other entry returns a nil System.
func (s *Server) shippedModel(e replicaEntry) (*sebmc.System, error) {
	if e.Model == "" {
		return nil, fmt.Errorf("service: cluster payload without model source")
	}
	hash, sys, err := s.models.hash("aag", e.Model)
	if err != nil {
		return nil, fmt.Errorf("service: bad shipped model: %w", err)
	}
	if hash != e.Hash {
		return nil, fmt.Errorf("service: shipped model hash %s does not match claimed %s", hash, e.Hash)
	}
	replay := e.Status == sebmc.Safe.String() || (e.Status == sebmc.Reachable.String() && e.Witness != "")
	if replay && sys == nil {
		if sys, err = parseModel("aag", e.Model); err != nil {
			return nil, fmt.Errorf("service: bad shipped model: %w", err)
		}
	}
	return sys, nil
}

// handleClusterReplicate is POST /v1/cluster/replicate: a failover
// peer pushing verdict-cache entries at this shard.
func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	release := s.guardClusterBody(w, r)
	defer release()
	var p replicatePayload
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad replicate payload: %w", err))
		return
	}
	accepted := 0
	for _, e := range p.Entries {
		stored, err := s.adoptReplica(e, true)
		if err != nil {
			s.metrics.replicateRejected.Add(1)
		} else if stored {
			accepted++
		}
	}
	s.metrics.replicatedIn.Add(int64(accepted))
	writeJSON(w, http.StatusOK, replicateResponse{Accepted: accepted})
}

// repairEntryMax caps one repair response; a peer further behind pulls
// again next tick (the response says so via Truncated).
const repairEntryMax = 4096

// handleClusterRepair is GET /v1/cluster/repair?ranges=0,3,15: the
// anti-entropy pull endpoint, answering this shard's entries in the
// requested digest ranges (no model attached — only entries whose
// witnesses were validated at fill time leave through here).
func (s *Server) handleClusterRepair(w http.ResponseWriter, r *http.Request) {
	release := s.guardClusterBody(w, r)
	defer release()
	ranges := make(map[int]bool)
	spec := r.URL.Query().Get("ranges")
	if spec == "" {
		for i := 0; i < digestRanges; i++ {
			ranges[i] = true
		}
	} else {
		for _, part := range strings.Split(spec, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 0 || n >= digestRanges {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad repair range %q", part))
				return
			}
			ranges[n] = true
		}
	}
	entries := s.cache.rangeEntries(ranges)
	out := repairPayload{}
	for _, e := range entries {
		if len(out.Entries) >= repairEntryMax {
			out.Truncated = true
			break
		}
		out.Entries = append(out.Entries, newReplicaEntry(e.key, e.v, ""))
	}
	writeJSON(w, http.StatusOK, out)
}
