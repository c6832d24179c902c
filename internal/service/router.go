package service

// Cluster mode: the routing layer that turns N independent bmcd
// processes into one sharded service. Every shard is configured with
// the same shard list and computes the same rendezvous-hash owner for
// every model (internal/cluster), so a model's /v1/check misses and its
// warm session live on exactly one shard no matter which shard the
// client happened to hit:
//
//   - a verdict-cache hit is answered by the shard that received it,
//     from its own cache — its own fills plus the entries peers pushed
//     or it pulled (replication.go). Only /v1/check misses are routed;
//   - a miss for a model this shard owns is served locally;
//   - a miss for a model another shard owns is proxied there, its
//     request body forwarded as the client sent it, so clients may talk
//     to any shard. The proxy walks the rendezvous preferences one POST
//     at a time: a shard that bounces (transport error or 503) is
//     demoted and the walk moves on, and the walk ends at the request's
//     deadline, after which this shard serves the request itself. A 503
//     that refuses the key rather than the shard (rejectHeader) is
//     relayed to the client instead;
//   - a /v1/batch runs whole on the shard that receives it, misses
//     included: a batch miss for a key another shard owns runs cold
//     here and counts as shed_served. A warm resume belongs in
//     /v1/check, which reaches the owner's session;
//   - shards poll each other's GET /v1/cluster/health on a gossip
//     interval; a shard that is down, draining, stale or saturated is
//     skipped and its keys shed to the next rendezvous preference —
//     the PR-7 "degrade, don't fail" ladder generalized from "back
//     off" to "go somewhere that can take the work";
//   - warm state leaves a shard one way: write-behind verdict
//     replication to every peer (replication.go). A shard catches up on
//     what it missed by pulling a peer's cache, on first contact after
//     it starts and after the peer reports a dropped push. A drain
//     flushes the replication queue, and the key's next owner seeds
//     each new session from the deepen verdicts it holds for that key,
//     so a rolling restart resumes proven prefixes instead of
//     re-solving them.
//
// Trust: answering a hit from a replica trusts nothing the entry shard
// did not trust before. It already relays the owner's answer unchecked,
// and already serves these same entries whenever it sheds a key or the
// owner is down. A pushed REACHABLE replica was replayed on adoption, a
// pulled one carries its fill-time validation, and a terminal SAFE is
// adopted only after its certificate replays; a bounded UNREACHABLE is
// trusted, as it is everywhere. A replica answers what the owner would,
// except that run statistics (decided_by, conflicts, iterations) can
// differ, and that where the owner holds a terminal SAFE the entry
// shard lacks, the entry shard answers its bounded UNREACHABLE. Both
// answers are true.
//
// Loop safety: a forwarded request carries X-Bmcd-Forward and is
// always served locally by the receiving shard, so disagreeing shard
// lists can cost locality but never an infinite proxy loop.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
)

// forwardHeader marks a request already routed by a peer shard: the
// receiver serves it locally, whatever its own ring says.
const forwardHeader = "X-Bmcd-Forward"

// rejectHeader marks a 503 that refuses one key, not the shard: a
// quarantined (model, engine) key. A proxying shard relays such an
// answer, Retry-After included, instead of demoting a healthy owner and
// running the poison-pill key itself, past the owner's breaker.
const rejectHeader = "X-Bmcd-Key-Rejected"

// shardHeader names the shard that answered, on every response of a
// clustered server — what lets a client (and the CI smoke test) see
// where a request actually landed.
const shardHeader = "X-Bmcd-Shard"

// deadlineHeader carries the client's remaining budget (milliseconds)
// on a proxied request. The receiver clamps its solving budget to it,
// and the proxy clamps its own retry walk to it, so a slow peer can
// never stall a request past the client's own deadline.
const deadlineHeader = "X-Bmcd-Deadline-Ms"

// ClusterConfig joins a server to a sharded deployment. Every shard
// must be configured with the same Shards list (order does not matter,
// content does): ownership is computed independently on each shard and
// is only coherent when the lists agree.
type ClusterConfig struct {
	// Self is this shard's advertised base URL; it must appear in
	// Shards.
	Self string
	// Shards is the full shard list, Self included.
	Shards []string
	// Mode is how a non-owned request reaches its owner: "proxy" (also
	// the meaning of "") forwards it server-side. It is the only mode.
	Mode string
	// GossipInterval is the peer health poll period (0 = 1s).
	GossipInterval time.Duration
}

// ModeProxy forwards non-owned requests server-side.
const ModeProxy = "proxy"

// clusterState is the live routing state of a joined shard.
type clusterState struct {
	self     cluster.Shard
	ring     *cluster.Ring
	peers    []cluster.Shard // ring minus self
	interval time.Duration
	tracker  *cluster.Tracker
	client   *http.Client // gossip, proxy and replication transport
	repl     *replicator  // warm-failover machinery

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// JoinCluster joins the server to a sharded deployment and starts the
// gossip loop. Call once, before serving traffic; Drain flushes the
// replication queue to the surviving shards and stops the gossip.
func (s *Server) JoinCluster(cc ClusterConfig) error {
	if len(cc.Shards) == 0 {
		return fmt.Errorf("service: cluster with no shards")
	}
	shards := make([]cluster.Shard, len(cc.Shards))
	for i, u := range cc.Shards {
		u = strings.TrimRight(u, "/")
		shards[i] = cluster.Shard{ID: u, URL: u}
	}
	ring, err := cluster.NewRing(shards)
	if err != nil {
		return err
	}
	self := strings.TrimRight(cc.Self, "/")
	var selfShard *cluster.Shard
	var peers []cluster.Shard
	for i := range shards {
		if shards[i].ID == self {
			selfShard = &shards[i]
		} else {
			peers = append(peers, shards[i])
		}
	}
	if selfShard == nil {
		return fmt.Errorf("service: self %q is not in the shard list %v", cc.Self, cc.Shards)
	}
	if cc.Mode != "" && cc.Mode != ModeProxy {
		return fmt.Errorf("service: unknown cluster mode %q (want proxy)", cc.Mode)
	}
	interval := cc.GossipInterval
	if interval <= 0 {
		interval = time.Second
	}
	cs := &clusterState{
		self:     *selfShard,
		ring:     ring,
		peers:    peers,
		interval: interval,
		// Statuses stale after three missed polls; a failed poll or a
		// bounced proxy demotes immediately, without waiting for TTL.
		tracker: cluster.NewTracker(3 * interval),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		stop:    make(chan struct{}),
	}
	cs.repl = newReplicator(s, cs)
	if !s.cluster.CompareAndSwap(nil, cs) {
		return fmt.Errorf("service: already joined a cluster")
	}
	cs.wg.Add(2)
	go cs.gossipLoop(s)
	go cs.repl.loop()
	return nil
}

// clusterStop ends the gossip loop and closes the routing transport's
// idle connections. Idempotent.
func (cs *clusterState) clusterStop() {
	cs.stopOnce.Do(func() { close(cs.stop) })
	cs.wg.Wait()
	cs.client.CloseIdleConnections()
}

// gossipLoop polls every peer's /v1/cluster/health once per interval.
// One poll round runs concurrently across peers and is joined before
// the next tick is considered, so a slow peer delays gossip, never
// stacks it. Catch-up rides each round: a peer the round just heard from
// is pulled on first contact and after it reports a dropped push — so a
// restarted shard catches up, and caches converge after a partition
// heals, within gossip intervals, not by traffic.
func (cs *clusterState) gossipLoop(s *Server) {
	defer cs.wg.Done()
	t := time.NewTicker(cs.interval)
	defer t.Stop()
	for {
		for _, p := range cs.pollPeers() {
			if p.ok {
				cs.repl.catchUp(p.shard, p.st)
			}
		}
		select {
		case <-cs.stop:
			return
		case <-t.C:
		}
	}
}

// polledPeer is one peer's outcome from a poll round.
type polledPeer struct {
	shard cluster.Shard
	st    cluster.Status
	ok    bool
}

func (cs *clusterState) pollPeers() []polledPeer {
	out := make([]polledPeer, len(cs.peers))
	var wg sync.WaitGroup
	for i, sh := range cs.peers {
		wg.Add(1)
		go func(i int, sh cluster.Shard) {
			defer wg.Done()
			out[i].shard = sh
			ctx, cancel := context.WithTimeout(context.Background(), cs.interval)
			defer cancel()
			// A failed poll is a strike, not a verdict: the tracker
			// demotes only on two consecutive failures (hysteresis), so
			// one poll lost under load does not flap the peer down and
			// shed its keys to the next preference.
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.URL+"/v1/cluster/health", nil)
			if err != nil {
				cs.tracker.NoteFailedPoll(sh.ID)
				return
			}
			resp, err := cs.client.Do(req)
			if err != nil {
				cs.tracker.NoteFailedPoll(sh.ID)
				return
			}
			defer drainClose(resp.Body)
			var st cluster.Status
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
				cs.tracker.NoteFailedPoll(sh.ID)
				return
			}
			cs.tracker.Note(sh.ID, st)
			out[i].st, out[i].ok = st, true
		}(i, sh)
	}
	wg.Wait()
	return out
}

// clusterState returns the routing state, nil when not clustered.
func (s *Server) clusterView() *clusterState {
	return s.cluster.Load()
}

// clusterHealth is the gossip payload this shard advertises.
func (s *Server) clusterHealth() cluster.Status {
	st := cluster.Status{
		Draining:      s.Draining(),
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
	}
	if cs := s.clusterView(); cs != nil {
		st.ID = cs.self.ID
		st.Dropped = cs.repl.droppedCounts()
	}
	return st
}

// routeTarget picks where a request for hash should run: the first
// healthy shard in rendezvous preference order. Returns (nil, 0) when
// that is this shard. The int is the preference rank actually chosen —
// rank > 0 on the local shard means the request was shed here past an
// unhealthy owner.
func (cs *clusterState) routeTarget(hash string, selfDraining bool) (*cluster.Shard, int) {
	prefs := cs.ring.Prefs(hash)
	for i := range prefs {
		sh := &prefs[i]
		if sh.ID == cs.self.ID {
			if selfDraining && len(prefs) > 1 {
				continue // drain re-homes even our own keys
			}
			return nil, i
		}
		if !cs.tracker.Healthy(sh.ID) {
			continue
		}
		return sh, i
	}
	return nil, 0 // nobody healthy: serve locally, let admission answer
}

// proxyGrace is the transport slack added on top of a request's
// solving budget when deriving its proxy deadline: the remote solver
// gets its full budget, the hops get this much on top.
const proxyGrace = 2 * time.Second

// routeCheck handles /v1/check routing of a verdict-cache miss for a
// clustered server. Returns true when the request was fully handled
// remotely (proxied); false when the caller should serve it locally.
// body is the request body as the client sent it: a proxied request
// forwards it unchanged.
func (s *Server) routeCheck(w http.ResponseWriter, r *http.Request, j *job, body []byte) bool {
	cs := s.clusterView()
	if cs == nil {
		return false
	}
	if r.Header.Get(forwardHeader) != "" {
		s.metrics.clusterForwardedIn.Add(1)
		return false // a peer already routed this here; serve it
	}
	target, rank := cs.routeTarget(j.hash, s.Draining())
	if target == nil {
		s.noteServed(nil, rank, false)
		return false
	}
	// The walk ends at the job's effective solving budget plus
	// proxyGrace; an uncapped job proxies uncapped.
	ctx := r.Context()
	if j.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.timeout+proxyGrace)
		defer cancel()
	}
	prefs := cs.ring.Prefs(j.hash)
	var cands []cluster.Shard
	for i := rank; i < len(prefs); i++ {
		if prefs[i].ID == cs.self.ID {
			break // never walk past ourselves: local serve beats a worse peer
		}
		if i > rank && !cs.tracker.Healthy(prefs[i].ID) {
			continue
		}
		cands = append(cands, prefs[i])
	}
	if cs.proxyWalk(ctx, w, cands, body) {
		s.metrics.clusterProxied.Add(1)
		return true
	}
	s.metrics.clusterShedServed.Add(1)
	return false // every peer bounced or the deadline passed; serve locally
}

// noteServed counts one check answered on this shard in the routing
// ledger, by where routeTarget places its key: owned here (rank 0), a
// verdict-cache hit on a key another shard serves (replica_served), or
// else shed here: past an unhealthy owner, or a batch miss another
// shard serves, which runs here anyway.
func (s *Server) noteServed(target *cluster.Shard, rank int, hit bool) {
	switch {
	case target != nil && hit:
		s.metrics.clusterReplicaServed.Add(1)
	case target == nil && rank == 0:
		s.metrics.clusterOwnedServed.Add(1)
	default:
		s.metrics.clusterShedServed.Add(1)
	}
}

// noteLocal counts the checks a handler answers on this shard without
// routing them — a /v1/check verdict-cache hit, or every item of a
// batch — in the routing ledger: forwarded_in when a peer routed them
// here, else each by where its key is placed (noteServed). hits[i] is
// item i's cached answer, nil on a miss. No-op standalone.
func (s *Server) noteLocal(r *http.Request, items []*job, hits []*JobResult) {
	cs := s.clusterView()
	if cs == nil {
		return
	}
	if r.Header.Get(forwardHeader) != "" {
		s.metrics.clusterForwardedIn.Add(int64(len(items)))
		return
	}
	for i, j := range items {
		target, rank := cs.routeTarget(j.hash, false)
		s.noteServed(target, rank, hits[i] != nil)
	}
}

// proxyWalk forwards one /v1/check body along the candidate preference
// list, one POST at a time, and relays the first answer that is not a
// bounce. The forward marker makes the receiver serve the check itself,
// and a deadline on ctx travels as the receiver's remaining budget. A
// candidate that bounces (a transport error, or a 503 the next
// preference should absorb instead of the client) is demoted in the
// tracker at once, so the next request skips it without waiting for a
// gossip tick, and the walk moves on. A 503 marked with rejectHeader
// refuses the key, not the shard, and is relayed like any answer.
// Returns false, having written nothing, when every candidate bounced
// or ctx ended; the caller then serves locally. A candidate that
// accepts the request but stalls holds it until ctx's deadline.
func (cs *clusterState) proxyWalk(ctx context.Context, w http.ResponseWriter, cands []cluster.Shard, payload []byte) bool {
	for _, sh := range cands {
		if ctx.Err() != nil {
			return false // budget exhausted: the local clamp answers fastest
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.URL+"/v1/check", bytes.NewReader(payload))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(forwardHeader, cs.self.ID)
		if deadline, ok := ctx.Deadline(); ok {
			req.Header.Set(deadlineHeader, strconv.FormatInt(max(time.Until(deadline).Milliseconds(), 1), 10))
		}
		resp, err := cs.client.Do(req)
		if err == nil && (resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(rejectHeader) != "") {
			relayResponse(w, resp)
			return true
		}
		if resp != nil {
			drainClose(resp.Body)
		}
		cs.tracker.NoteDown(sh.ID)
	}
	return false
}

// relayResponse streams a proxied answer back to the client.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer drainClose(resp.Body)
	for _, h := range []string{"Content-Type", "Retry-After", shardHeader, rejectHeader} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (s *Server) handleClusterHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterHealth())
}

// clusterBodyTimeout bounds how long a cluster-internal handler will
// wait for a peer's request body to arrive.
const clusterBodyTimeout = 30 * time.Second

// guardClusterBody caps a cluster-internal request's body size and
// arms a read deadline on the underlying connection, so a slow or
// oversized peer stream cannot pin a handler goroutine for the
// server-wide write timeout. The returned release clears the deadline
// (keep-alive connections are reused; a stale deadline would poison
// the next request on the same connection).
func (s *Server) guardClusterBody(w http.ResponseWriter, r *http.Request) func() {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	rc := http.NewResponseController(w)
	if err := rc.SetReadDeadline(time.Now().Add(clusterBodyTimeout)); err != nil {
		// The underlying writer cannot set deadlines (recorders in
		// tests); the byte cap still holds.
		return func() {}
	}
	return func() { _ = rc.SetReadDeadline(time.Time{}) }
}
