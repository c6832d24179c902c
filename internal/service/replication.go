package service

// Warm failover for the sharded cluster: the machinery that makes a
// verdict survive the death of the shard that computed it, and the one
// way warm state leaves a shard.
//
//   - Push: every fresh verdict-cache fill is write-behind replicated to
//     every peer. The enqueue is a non-blocking channel send — a full
//     queue drops the entry and counts it, it never delays the request
//     path — and a background worker batches queued entries into one
//     POST /v1/cluster/replicate per peer. The push ships the model the
//     verdict was computed on; the receiver re-derives the model hash
//     from it (through its model memo, memo.go) and replay-validates
//     REACHABLE witnesses and SAFE certificates before adopting them,
//     exactly like served verdicts: a corrupt or dishonest replica is
//     dropped, not cached. A drain flushes what the queue still holds
//     before the shard stops. Replicated deepen verdicts are also what
//     carries a proven prefix to the key's next owner: a session built
//     there seeds itself from them (solve, verdictCache.provenBelow).
//
//   - Catch-up: an entry a peer cannot take — queue overflow, a peer the
//     gossip tracker calls unhealthy, a failed send — is dropped and
//     counted for that peer, and gossip carries the per-peer counts
//     (cluster.Status.Dropped). A shard pulls a peer's whole verdict
//     cache (GET /v1/cluster/repair) when it first hears from the peer
//     after starting, and again only when the peer's count of pushes
//     dropped for it changes: so a restarted shard catches up on its
//     first gossip round, and a partition heals on the round after.
//     Adoption is a union merge, so every shard holds every verdict
//     its own cache budget keeps; an entry that budget evicted is not
//     sent to it again.
//
// Both paths run under the replicate/repair faultpoints, so the chaos
// storm exercises them; a panic injected into the background worker is
// contained, never process-fatal.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
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
// certificate; pulls omit it (the cache does not retain it) and only
// carry entries whose artifacts were validated at original fill or
// replicate time.
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

// replicatePayload is the POST /v1/cluster/replicate body, and the
// GET /v1/cluster/repair answer, whose entries carry no model.
type replicatePayload struct {
	Entries []replicaEntry `json:"entries"`
}

// replicateResponse reports how many entries the receiver stored:
// entries it already held are not counted.
type replicateResponse struct {
	Accepted int `json:"accepted"`
}

// replTask is one queued write-behind replication: the cache entry
// plus the parsed system it answers for, as submitted (serialized to
// AAG on the worker goroutine, never on the request path).
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
// bounded write-behind queue and its worker, the per-peer drop counts
// gossip advertises, and what each peer had dropped for this shard when
// this shard last pulled from it.
type replicator struct {
	s  *Server
	cs *clusterState

	queue chan replTask

	// dropped counts, per peer ID, the entries the push dropped for that
	// peer. The map is fixed at construction, so reading it takes no
	// lock.
	dropped map[string]*atomic.Int64
	// pulled holds, per peer ID, the peer's drop count for this shard
	// as of the last successful pull. Only the gossip loop touches it.
	pulled map[string]int64
}

func newReplicator(s *Server, cs *clusterState) *replicator {
	r := &replicator{s: s, cs: cs, queue: make(chan replTask, replQueueDepth),
		dropped: make(map[string]*atomic.Int64), pulled: make(map[string]int64)}
	for _, p := range cs.peers {
		r.dropped[p.ID] = new(atomic.Int64)
	}
	return r
}

// enqueue hands one fresh cache fill to the write-behind worker. Non-
// blocking by construction: this is called from the request path, and
// a replication storm must degrade to dropped replicas (every peer then
// pulls them), never to queue-depth latency on /v1/check.
func (r *replicator) enqueue(t replTask) {
	select {
	case r.queue <- t:
	default:
		r.drop(1, r.cs.peers...)
	}
}

// drop counts n entries the push did not deliver to each of peers: in
// the peer's gossiped count, and once per peer in replicate_dropped.
func (r *replicator) drop(n int, peers ...cluster.Shard) {
	for _, p := range peers {
		r.dropped[p.ID].Add(int64(n))
	}
	r.s.metrics.replicateDropped.Add(int64(n * len(peers)))
}

// droppedCounts is the gossip view of the drop counts.
func (r *replicator) droppedCounts() map[string]int64 {
	out := make(map[string]int64, len(r.dropped))
	for id, c := range r.dropped {
		out[id] = c.Load()
	}
	return out
}

// loop is the write-behind worker: it drains the queue in batches and
// pushes each batch to every peer. Runs under the cluster's WaitGroup;
// exits when the cluster stops, leaving whatever is still queued to
// flush.
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
// entries (counted), and they leave with the draining shard unless the
// peer pulls them before it stops.
func (r *replicator) flush(ctx context.Context) {
	for ctx.Err() == nil {
		batch := r.collect()
		if len(batch) == 0 {
			return
		}
		r.sendBatch(ctx, batch)
	}
}

// sendBatch pushes one drained batch to every peer, its entries
// serialized once, each with the model its verdict was computed on. An
// entry a peer cannot take — the peer is unhealthy or refuses the send —
// is dropped for that peer and counted. Contained: a panic injected at
// the send faultpoint (or a bug in the serialization path) is swallowed
// here and counts the whole batch dropped for every peer — the
// replicator is an accelerator, and its worker must survive anything.
func (r *replicator) sendBatch(ctx context.Context, batch []replTask) {
	defer func() {
		if recover() != nil {
			r.drop(len(batch), r.cs.peers...)
		}
	}()
	entries := make([]replicaEntry, 0, len(batch))
	for _, t := range batch {
		var aag strings.Builder
		if err := t.sys.Circ.WriteAAG(&aag); err != nil {
			continue
		}
		entries = append(entries, newReplicaEntry(t.key, t.v, aag.String()))
	}
	for _, sh := range r.cs.peers {
		if !r.cs.tracker.Healthy(sh.ID) {
			r.drop(len(entries), sh)
			continue
		}
		accepted, err := r.push(ctx, sh, entries)
		if err != nil {
			// The peer looked healthy but the send bounced: demote it
			// now (direct refusal evidence, no hysteresis).
			r.cs.tracker.NoteDown(sh.ID)
			r.drop(len(entries), sh)
			continue
		}
		r.s.metrics.replicatedOut.Add(int64(accepted))
	}
}

// push POSTs one batch of entries to a peer's replicate endpoint and
// reports how many the peer stored.
func (r *replicator) push(ctx context.Context, target cluster.Shard, entries []replicaEntry) (int, error) {
	// Fault-injection site: an injected error simulates the network
	// eating the send (the entries drop); an injected delay simulates a
	// slow peer stream.
	if err := faultpoint.Hit("service.replicate.send"); err != nil {
		return 0, err
	}
	var rr replicateResponse
	err := r.call(ctx, http.MethodPost, target.URL+"/v1/cluster/replicate", replicatePayload{Entries: entries}, &rr)
	return rr.Accepted, err
}

// call makes one replicate or repair exchange with a peer: it sends
// body as JSON (none when nil) and decodes at most repairAnswerMax
// bytes of a 200 answer into out.
func (r *replicator) call(ctx context.Context, method, url string, body, out any) error {
	var payload io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = bytes.NewReader(b)
	}
	ctx, cancel := context.WithTimeout(ctx, replSendTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, payload)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.cs.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &APIError{StatusCode: resp.StatusCode, Message: readMessage(resp.Body)}
	}
	return json.NewDecoder(io.LimitReader(resp.Body, repairAnswerMax)).Decode(out)
}

// catchUp runs after each successful poll of a peer. It pulls the
// peer's whole verdict cache when this shard has not pulled from the
// peer since it started, or when the peer's count of pushes dropped for
// this shard differs from the count at the last successful pull. A
// failed pull records nothing, so the next round retries it.
func (r *replicator) catchUp(peer cluster.Shard, st cluster.Status) {
	defer func() { _ = recover() }()
	dropped := st.Dropped[r.cs.self.ID]
	if last, ok := r.pulled[peer.ID]; ok && last == dropped {
		return
	}
	// Fault-injection site: an injected error blackholes the pull, as a
	// partition would; the next round retries it.
	if err := faultpoint.Hit("service.repair.pull"); err != nil {
		return
	}
	r.s.metrics.repairPulls.Add(1)
	var p replicatePayload
	if err := r.call(context.Background(), http.MethodGet, peer.URL+"/v1/cluster/repair", nil, &p); err != nil {
		return
	}
	r.s.metrics.repairedEntries.Add(int64(r.s.adoptAll(p.Entries, false)))
	r.pulled[peer.ID] = dropped
}

// replicateFill hands one fresh verdict-cache fill to the write-behind
// replicator, under the same key the local cache used (bound-free for
// terminal verdicts). Called on the request path, so it must stay O(1):
// a channel send or a dropped-counter bump, nothing else. A verdict
// whose claim was not validated here (the k-induction arm proves SAFE
// without a certificate) is not replicated: receivers adopt a claim
// only after replaying its artifact, so the send would just bounce.
func (s *Server) replicateFill(j *job, key verdictKey, res *JobResult) {
	cs := s.clusterView()
	if cs == nil || len(cs.peers) == 0 || !res.validated() {
		return
	}
	cs.repl.enqueue(replTask{key: key, v: *res, sys: j.sys})
}

// validated reports whether a verdict's claim was replayed on the shard
// that holds it: a REACHABLE's witness, a terminal SAFE's certificate.
// Only such verdicts leave a shard, and a pulled entry, which ships no
// model to replay against, is adopted only if it is one.
func (r *JobResult) validated() bool {
	switch r.Status {
	case sebmc.Reachable.String():
		return r.Witness == "" || r.WitnessValidated
	case sebmc.Safe.String():
		return r.CertificateValidated
	}
	return true
}

// adoptReplica validates one wire entry and adopts it into the local
// verdict cache, reporting whether it stored the entry: a valid entry
// whose key is already resident is not stored, and not an error.
// withModel distinguishes replicate pushes (model attached: check the
// content hash, replay the witness or certificate) from pulls (no
// model: only entries validated where they were held are accepted).
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
	if !withModel {
		if !v.validated() {
			return false, fmt.Errorf("service: pulled entry carries an unvalidated %s claim", e.Status)
		}
		return s.cache.add(k, v), nil
	}
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
		wit, err := sebmc.ParseWitness(e.Witness)
		if err != nil {
			return false, fmt.Errorf("service: bad replica witness: %w", err)
		}
		if err := replayAny(wit, sys); err != nil {
			return false, fmt.Errorf("service: replica witness does not replay: %w", err)
		}
		v.WitnessValidated = true
	}
	return s.cache.add(k, v), nil // idempotent: the resident entry wins
}

// adoptAll adopts a pushed or pulled batch of entries, counts those it
// refuses and those it stores, and returns how many it stored.
func (s *Server) adoptAll(entries []replicaEntry, withModel bool) int {
	adopted := 0
	for _, e := range entries {
		stored, err := s.adoptReplica(e, withModel)
		if err != nil {
			s.metrics.replicateRejected.Add(1)
		} else if stored {
			adopted++
		}
	}
	s.metrics.replicatedIn.Add(int64(adopted))
	return adopted
}

// replayAny replays a pushed witness on each system its trace may have
// been recorded against, and returns the plain replay's error if none
// takes it. The push ships the model as submitted, and every engine
// lifts its trace onto that model — or onto its self-looped transform,
// with one extra input selecting the stutter step, for an at-most-k run
// or a deepening schedule, which forces that semantics. The
// cone-of-influence reduction, plain and self-looped, is still tried:
// peers running an older build recorded interpolation traces against
// it, and they may push during a rolling restart.
func replayAny(wit *sebmc.Witness, sys *sebmc.System) error {
	err := wit.Validate(sys)
	if err == nil || wit.Validate(sebmc.AddSelfLoop(sys)) == nil {
		return nil
	}
	red := sys.Reduce()
	if wit.Validate(red) == nil || wit.Validate(sebmc.AddSelfLoop(red)) == nil {
		return nil
	}
	return err
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

// handleClusterReplicate is POST /v1/cluster/replicate: a peer pushing
// verdict-cache entries at this shard.
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
	writeJSON(w, http.StatusOK, replicateResponse{Accepted: s.adoptAll(p.Entries, true)})
}

// repairAnswerMax caps a pull answer's bytes, and how much of one a
// puller reads. An entry's JSON runs to at most about 1.3 times its
// accounted cache bytes (TestServiceRepairAnswerHoldsDefaultCache), so
// twice the default cache budget answers a default cache whole.
const repairAnswerMax = 32 << 20

// handleClusterRepair is GET /v1/cluster/repair: the catch-up pull. It
// answers every entry a model-less adoption accepts (see
// JobResult.validated), most recently used first, and stops before the
// answer passes repairAnswerMax bytes. The answer is streamed one
// encoded entry at a time, so its JSON is never held whole.
func (s *Server) handleClusterRepair(w http.ResponseWriter, r *http.Request) {
	release := s.guardClusterBody(w, r)
	defer release()
	w.Header().Set("Content-Type", "application/json")
	size, sep := len(`{"entries":[]}`+"\n"), ""
	_, _ = io.WriteString(w, `{"entries":[`)
	for _, e := range s.cache.snapshot() {
		if !e.v.validated() {
			continue
		}
		b, err := json.Marshal(newReplicaEntry(e.key, e.v, ""))
		if err != nil {
			continue
		}
		if size += len(sep) + len(b); size > repairAnswerMax {
			break
		}
		_, _ = io.WriteString(w, sep)
		if _, err := w.Write(b); err != nil {
			return // the puller hung up
		}
		sep = ","
	}
	_, _ = io.WriteString(w, "]}\n")
}
