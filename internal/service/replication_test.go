package service

// Warm-failover tests, named TestServiceCluster* so CI's race loop
// covers them. The invariants: a verdict decided on one shard survives
// a kill -9 of that shard (the failover owner answers it warm, from
// replication, without a new solver invocation); a verdict the push
// could not deliver to a stopped peer reaches the restarted peer
// through its first-contact pull; divergent verdict caches converge,
// however large, within two gossip intervals of the heal; a push
// carries a witness recorded against a model's reduction as well as
// one recorded against the model itself; a dropped push to a live peer
// is caught up by one pull, and a cluster whose pushes land makes no
// pulls at all; an owner that stalls holds a proxied check no longer
// than its deadline, and a batch not at all; and a proxied deadline
// clamps the receiver's solving budget, for a check and for each batch
// item.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/faultpoint"
)

// newFailoverCluster is newTestCluster with the listeners exposed, so
// failover tests can kill a shard's listener abruptly — the HTTP-layer
// equivalent of kill -9: no drain, no replication flush, connections
// die mid-flight.
func newFailoverCluster(t *testing.T, n int, cfg Config, cc ClusterConfig) ([]*Server, []string, []*httptest.Server) {
	t.Helper()
	servers, urls, tss := startShards(t, n, cfg)
	joinShards(t, servers, urls, cc)
	return servers, urls, tss
}

// startShards boots n servers behind their own listeners, serving but
// not yet joined into a cluster, so a test can diverge their caches
// first. Cleanup drains every Server (the process objects survive their
// listeners) and asserts the goroutine count settles;
// httptest.Server.Close is idempotent, so a shard killed mid-test is
// fine to close again.
func startShards(t *testing.T, n int, cfg Config) ([]*Server, []string, []*httptest.Server) {
	t.Helper()
	before := runtime.NumGoroutine()
	servers := make([]*Server, n)
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = New(cfg)
		tss[i] = httptest.NewServer(servers[i].Handler())
		urls[i] = tss[i].URL
	}
	t.Cleanup(func() {
		for _, s := range servers {
			drain(t, s)
		}
		http.DefaultClient.CloseIdleConnections()
		for _, ts := range tss {
			ts.Close()
		}
		settleGoroutines(t, before)
	})
	return servers, urls, tss
}

// joinShards joins started shards into one cluster under cc, with a
// 50-ms gossip interval unless cc sets one.
func joinShards(t *testing.T, servers []*Server, urls []string, cc ClusterConfig) {
	t.Helper()
	for i, s := range servers {
		c := cc
		c.Self = urls[i]
		c.Shards = urls
		if c.GossipInterval == 0 {
			c.GossipInterval = 50 * time.Millisecond
		}
		if err := s.JoinCluster(c); err != nil {
			t.Fatal(err)
		}
	}
}

// heldVerdicts maps every key a shard's verdict cache holds to the
// deterministic half of its answer, status and depth: two shards that
// solved the same question may differ in run statistics.
func heldVerdicts(s *Server) map[verdictKey]string {
	out := make(map[verdictKey]string)
	for _, e := range s.cache.snapshot() {
		out[e.key] = fmt.Sprintf("%s@%d", e.v.Status, e.v.FoundAt)
	}
	return out
}

// replSnap fetches one shard's replication metrics.
func replSnap(t *testing.T, s *Server) ReplicationSnapshot {
	t.Helper()
	m := s.Metrics()
	if m.Cluster == nil {
		t.Fatal("unclustered metrics snapshot")
	}
	return m.Cluster.Replication
}

// waitFor polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkWaitShard is checkWait, capturing which shard answered.
func checkWaitShard(t *testing.T, base string, req CheckRequest) (*JobResult, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/check", "application/json", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check: HTTP %d", resp.StatusCode)
	}
	var st checkResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Result == nil {
		t.Fatal("check answered without a result")
	}
	return st.Result, resp.Header.Get(shardHeader)
}

// TestServiceClusterWarmFailover is the cold-failover regression the
// replication layer exists to fix: decide a verdict on its owner, kill
// the owner with no drain, and the survivor must
// answer the same request warm — as a cache hit fed by write-behind
// replication, with no new solver invocation. Before replication this
// answered cold (Cached=false after a full re-solve).
func TestServiceClusterWarmFailover(t *testing.T) {
	servers, urls, tss := newFailoverCluster(t, 2, Config{Workers: 2, QueueDepth: 16}, ClusterConfig{})
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true}
	owner := ownerIndex(t, servers, urls, cexMSL)
	survivor := 1 - owner

	res := checkWait(t, urls[owner], req)
	if res.Status != "REACHABLE" || !res.WitnessValidated {
		t.Fatalf("owner verdict: %s validated=%v, want REACHABLE/true", res.Status, res.WitnessValidated)
	}
	// The write-behind replica lands on the survivor off the request
	// path; wait for it (the witness is replay-validated on receipt).
	waitUntil(t, 5*time.Second, "replica to reach the survivor", func() bool {
		return replSnap(t, servers[survivor]).ReplicatedIn >= 1
	})

	// kill -9: the owner's listener dies mid-cluster, taking its live
	// connections with it. No drain runs.
	tss[owner].CloseClientConnections()
	tss[owner].Close()

	// The same request at the survivor: the proxy walk bounces off the
	// dead owner and serves locally — warm, from the replicated verdict.
	got, shard := checkWaitShard(t, urls[survivor], req)
	if shard != urls[survivor] {
		t.Fatalf("answered by %q, want the survivor %q", shard, urls[survivor])
	}
	if got.Status != "REACHABLE" || got.FoundAt != res.FoundAt {
		t.Fatalf("failover answer %s@%d, want REACHABLE@%d", got.Status, got.FoundAt, res.FoundAt)
	}
	if !got.Cached {
		t.Fatal("survivor re-solved the model: the replicated verdict was not served as a cache hit")
	}
	if got.Witness == "" || !got.WitnessValidated {
		t.Fatalf("failover answer lost its witness: witness=%q validated=%v", got.Witness, got.WitnessValidated)
	}
}

// TestServiceClusterRestartedShardCatchesUp: a verdict decided while
// its failover shard is stopped is dropped by the push (counted in
// replicate_dropped), and a fresh process restarted at the stopped
// shard's address pulls it through anti-entropy repair — repair is the
// one way a shard catches up on what it missed.
func TestServiceClusterRestartedShardCatchesUp(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 16}
	servers, urls, tss := newFailoverCluster(t, 2, cfg, ClusterConfig{})
	owner := ownerIndex(t, servers, urls, cexMSL)
	dead := 1 - owner

	// Stop the failover shard completely before the verdict exists: its
	// listener dies and its Server drains, so it cannot pull anything
	// while it is down.
	tss[dead].CloseClientConnections()
	tss[dead].Close()
	drain(t, servers[dead])
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true}
	res := checkWait(t, urls[owner], req)
	if res.Status != "REACHABLE" || !res.WitnessValidated {
		t.Fatalf("owner verdict: %s validated=%v, want REACHABLE/true", res.Status, res.WitnessValidated)
	}
	waitUntil(t, 5*time.Second, "the push to drop the replica", func() bool {
		return replSnap(t, servers[owner]).ReplicateDropped >= 1
	})

	// Restart: a fresh process at the SAME address (Go listeners set
	// SO_REUSEADDR, so the port rebinds through TIME_WAIT), joined
	// before it serves, as bmcd does.
	addr := strings.TrimPrefix(urls[dead], "http://")
	var l net.Listener
	waitUntil(t, 5*time.Second, "the stopped shard's port to rebind", func() bool {
		var err error
		l, err = net.Listen("tcp", addr)
		return err == nil
	})
	fresh := New(cfg)
	if err := fresh.JoinCluster(ClusterConfig{Self: urls[dead], Shards: urls, GossipInterval: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	restarted := &httptest.Server{Listener: l, Config: &http.Server{Handler: fresh.Handler()}}
	restarted.Start()
	t.Cleanup(func() {
		drain(t, fresh)
		restarted.Close()
	})

	waitUntil(t, 5*time.Second, "the restarted shard to repair the verdict", func() bool {
		return replSnap(t, fresh).RepairedEntries >= 1
	})

	// The repaired verdict is really resident: a forwarded request
	// (served locally by contract) answers it as a validated cache hit.
	hreq, err := http.NewRequest(http.MethodPost, urls[dead]+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardHeader, urls[owner])
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st checkResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || !st.Result.Cached || !st.Result.WitnessValidated {
		t.Fatalf("restarted shard did not serve the repaired verdict warm and validated: %+v", st.Result)
	}
}

// TestServiceClusterAntiEntropyRepair pins the convergence bound: two
// shards whose verdict caches diverged while apart (here: one decided
// verdicts before the cluster formed) must hold the same entries within
// two gossip intervals of the heal, via the first-contact pulls.
func TestServiceClusterAntiEntropyRepair(t *testing.T) {
	const interval = 250 * time.Millisecond
	servers, urls, _ := startShards(t, 2, Config{Workers: 2, QueueDepth: 16})

	// Diverge before the cluster exists: shard 0 decides verdicts alone
	// (unclustered, so nothing replicates) — the state of a shard that
	// kept serving through a partition.
	fills := []CheckRequest{
		{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true},
		{Model: safeMSL, Bound: 6, Engine: "sat-incr", Deepen: true},
		{Model: aagSource(t, circuits.Counter(3, 5)), Format: "aag", Bound: 6, Engine: "sat"},
	}
	for _, req := range fills {
		checkWait(t, urls[0], req)
	}

	// Heal: both shards join, and each pulls the other's cache the
	// first time it hears from it.
	joinShards(t, servers, urls, ClusterConfig{GossipInterval: interval})
	healed := time.Now()
	waitUntil(t, 2*interval, "the shards to hold the same entries", func() bool {
		return maps.Equal(heldVerdicts(servers[0]), heldVerdicts(servers[1]))
	})
	t.Logf("anti-entropy converged in %v (gossip interval %v)", time.Since(healed), interval)

	rs := replSnap(t, servers[1])
	if rs.RepairPulls < 1 || rs.RepairedEntries < int64(len(fills)) {
		t.Fatalf("repair accounting: pulls=%d repaired=%d, want >=1/%d", rs.RepairPulls, rs.RepairedEntries, len(fills))
	}
	// Quiescence: once converged, further gossip rounds must not keep
	// pulling — no push was dropped, so no new repair traffic.
	pulls := rs.RepairPulls
	time.Sleep(3 * interval)
	if after := replSnap(t, servers[1]).RepairPulls; after != pulls {
		t.Fatalf("anti-entropy did not quiesce: %d pulls grew to %d after convergence", pulls, after)
	}
}

// newSeededPair boots two shards, decides a different verdict on each
// before they join, and waits until each has pulled the other's: a
// cluster just past first contact, whose repair counters move only on a
// later pull.
func newSeededPair(t *testing.T, interval time.Duration) ([]*Server, []string) {
	t.Helper()
	servers, urls, _ := startShards(t, 2, Config{Workers: 2, QueueDepth: 16})
	checkWait(t, urls[0], CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"})
	checkWait(t, urls[1], CheckRequest{Model: safeMSL, Bound: 4, Engine: "sat"})
	joinShards(t, servers, urls, ClusterConfig{GossipInterval: interval})
	waitUntil(t, 5*time.Second, "the first-contact pulls", func() bool {
		return replSnap(t, servers[0]).RepairedEntries >= 1 && replSnap(t, servers[1]).RepairedEntries >= 1
	})
	return servers, urls
}

// localCheck posts req to the shard at url as a peer-forwarded check,
// which that shard serves itself whatever its ring says.
func localCheck(t *testing.T, url string, req CheckRequest) *JobResult {
	t.Helper()
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardHeader, "test")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st checkResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Result == nil {
		t.Fatalf("forwarded check: HTTP %d, %v", resp.StatusCode, err)
	}
	return st.Result
}

// coiMSL reaches its bad state at depth 4 through a counter whose cone
// of influence leaves out a register and an input, so its reduction
// drops both: a trace recorded against the model as submitted and one
// recorded against the reduction differ in width.
const coiMSL = `
model coi
var c : 3 = 0;
var junk : 2 = 0;
input i : 2;
next c = c + 1;
next junk = i;
bad c == 4;
`

// TestServiceClusterPushAdoptsReducedWitness: a REACHABLE verdict on a
// COI-reducible model reaches the peer through the push, whether its
// engine recorded the trace against the model as submitted (sat) or
// against the reduction (interp). The hour-long gossip interval leaves
// the push as the only way there once the first-contact pulls are done.
func TestServiceClusterPushAdoptsReducedWitness(t *testing.T) {
	servers, urls := newSeededPair(t, time.Hour)
	owner := ownerIndex(t, servers, urls, coiMSL)
	peer := 1 - owner
	base := replSnap(t, servers[peer])
	reqs := []CheckRequest{
		{Model: coiMSL, Bound: 4, Engine: "sat", Witness: true},
		{Model: coiMSL, Bound: 8, Engine: "interp", Witness: true},
	}
	for _, req := range reqs {
		if r := checkWait(t, urls[owner], req); r.Status != "REACHABLE" || !r.WitnessValidated {
			t.Fatalf("%s: %s validated=%v, want REACHABLE/true", req.Engine, r.Status, r.WitnessValidated)
		}
	}
	waitUntil(t, 5*time.Second, "the peer to adopt or refuse both pushes", func() bool {
		rs := replSnap(t, servers[peer])
		return rs.ReplicatedIn+rs.ReplicateRejected >= base.ReplicatedIn+base.ReplicateRejected+int64(len(reqs))
	})
	rs := replSnap(t, servers[peer])
	if rs.ReplicateRejected != base.ReplicateRejected || rs.ReplicatedIn != base.ReplicatedIn+int64(len(reqs)) ||
		rs.RepairPulls != base.RepairPulls {
		t.Fatalf("peer replication %+v after %+v, want %d pushed entries adopted, none rejected, no pull", rs, base, len(reqs))
	}
	for _, req := range reqs {
		if r := localCheck(t, urls[peer], req); r.Status != "REACHABLE" || !r.Cached || !r.WitnessValidated {
			t.Fatalf("%s on the peer: %s cached=%v validated=%v, want a validated REACHABLE hit",
				req.Engine, r.Status, r.Cached, r.WitnessValidated)
		}
	}
}

// TestServiceClusterCatchUpPullsWholeCache: a shard that joins holding
// 4,596 entries, more than a 4,096-entry page would carry, hands every
// one of them to its peer in one pull, within two gossip intervals.
func TestServiceClusterCatchUpPullsWholeCache(t *testing.T) {
	const interval = 500 * time.Millisecond
	const n = 4096 + 500
	servers, urls, _ := startShards(t, 2, Config{Workers: 2, QueueDepth: 16})
	for i := 0; i < n; i++ {
		k := verdictKey{sessionKey: sessionKey{Hash: fmt.Sprintf("%032x", i), Engine: sebmc.EngineSAT}, Bound: 5}
		if !servers[0].cache.put(k, JobResult{Status: "UNREACHABLE", Bound: 5, FoundAt: -1, DecidedBy: "sat"}) {
			t.Fatalf("entry %d not stored", i)
		}
	}
	joinShards(t, servers, urls, ClusterConfig{GossipInterval: interval})
	waitUntil(t, 2*interval, "the peer to hold every entry", func() bool {
		held, _, _ := servers[1].cache.stats()
		return held == n
	})
	if rs := replSnap(t, servers[1]); rs.RepairPulls != 1 || rs.RepairedEntries != n {
		t.Fatalf("peer pulls=%d repaired=%d, want 1/%d", rs.RepairPulls, rs.RepairedEntries, n)
	}
}

// TestServiceClusterNoPullsInSteadyState: past first contact, a cluster
// whose pushes all land makes no more pulls. Fills interleave with
// prove checks across a dozen gossip intervals, and the k-induction
// SAFEs those win are neither pushed nor offered to a pull: each shard's
// repair_pulls stays at its first-contact value, and no entry is
// refused.
func TestServiceClusterNoPullsInSteadyState(t *testing.T) {
	// Long enough that a health poll, which times out after one
	// interval, does not fail twice in a row on a loaded host: that
	// would demote the peer, drop a push and rightly cause a pull.
	const interval = 200 * time.Millisecond
	servers, urls := newSeededPair(t, interval)
	base := []ReplicationSnapshot{replSnap(t, servers[0]), replSnap(t, servers[1])}
	induction := 0
	for i := 0; i < 12; i++ {
		url := urls[i%2]
		if r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 6 + i, Engine: "sat"}); !r.decided() {
			t.Fatalf("fill %d: %s", i, r.Status)
		}
		stuck := fmt.Sprintf("model stuck%d\nvar c : 4 = %d;\nnext c = c;\nbad c == 15;\n", i, i)
		r := checkWait(t, url, CheckRequest{Model: stuck, Bound: 4, Prove: true})
		if r.Status != "SAFE" {
			t.Fatalf("prove %d: %s, want SAFE", i, r.Status)
		}
		if r.DecidedBy == "induction" {
			induction++
		}
		time.Sleep(interval)
	}
	if induction == 0 {
		t.Fatal("interpolation won every prove: no k-induction SAFE was cached")
	}
	time.Sleep(3 * interval)
	for i, s := range servers {
		if rs := replSnap(t, s); rs.RepairPulls != base[i].RepairPulls || rs.ReplicateRejected != 0 {
			t.Errorf("shard %d: repair_pulls %d -> %d, replicate_rejected %d, want no pull and nothing refused",
				i, base[i].RepairPulls, rs.RepairPulls, rs.ReplicateRejected)
		}
	}
}

// TestServiceClusterDroppedPushCaughtUp: a push lost on its way to a live
// peer is counted for that peer and gossiped, and the peer catches the
// verdict up with one pull within two gossip intervals. With no further
// drop, no further pull follows.
func TestServiceClusterDroppedPushCaughtUp(t *testing.T) {
	defer faultpoint.Reset()
	const interval = 250 * time.Millisecond
	servers, urls := newSeededPair(t, interval)
	owner := ownerIndex(t, servers, urls, cexMSL)
	peer := 1 - owner
	base := replSnap(t, servers[peer])

	faultpoint.Arm("service.replicate.send", faultpoint.Schedule{Kind: faultpoint.KindError, On: 1})
	req := CheckRequest{Model: cexMSL, Bound: 3, Engine: "sat"}
	if r := checkWait(t, urls[owner], req); r.Status != "UNREACHABLE" {
		t.Fatalf("fill: %s, want UNREACHABLE", r.Status)
	}
	waitUntil(t, 5*time.Second, "the push to drop the entry", func() bool {
		return replSnap(t, servers[owner]).ReplicateDropped == 1
	})
	waitUntil(t, 2*interval, "the peer to pull the dropped entry", func() bool {
		return replSnap(t, servers[peer]).RepairedEntries == base.RepairedEntries+1
	})
	if r := localCheck(t, urls[peer], req); r.Status != "UNREACHABLE" || !r.Cached {
		t.Fatalf("peer answer %s cached=%v, want the caught-up UNREACHABLE as a hit", r.Status, r.Cached)
	}
	time.Sleep(3 * interval)
	if rs := replSnap(t, servers[peer]); rs.RepairPulls != base.RepairPulls+1 {
		t.Fatalf("peer repair_pulls %d -> %d, want exactly one catch-up pull", base.RepairPulls, rs.RepairPulls)
	}
}

// TestServiceRepairAnswerHoldsDefaultCache: the pull answer's byte cap
// holds a default-budget cache whole. A cache a sixteenth that size,
// full of the smallest entries with every statistic set (the most JSON
// per accounted byte), answers every entry within a sixteenth of the
// cap.
func TestServiceRepairAnswerHoldsDefaultCache(t *testing.T) {
	const scale = 16
	s := New(Config{CacheBytes: Config{}.withDefaults().CacheBytes / scale})
	defer s.Drain(context.Background())
	v := JobResult{Status: "UNREACHABLE", Bound: 1 << 20, FoundAt: -1, DecidedBy: "qbf-squaring", Iterations: 20,
		BoundsSkipped: 1 << 20, Conflicts: 1 << 40, PeakBytes: 1 << 40}
	for i := 0; ; i++ {
		k := verdictKey{sessionKey: sessionKey{Hash: fmt.Sprintf("%032x", i), Engine: sebmc.EngineQBFSquaring,
			Sem: sebmc.AtMost, Sched: sebmc.ScheduleGeometric, PG: true}, Bound: 1 << 20, Deepen: true}
		s.cache.put(k, v)
		if _, bytes, budget := s.cache.stats(); bytes+entryBytes(k, v) > budget {
			break
		}
	}
	held, _, _ := s.cache.stats()
	w := httptest.NewRecorder()
	s.handleClusterRepair(w, httptest.NewRequest(http.MethodGet, "/v1/cluster/repair", nil))
	size := w.Body.Len()
	var p replicatePayload
	if err := json.NewDecoder(w.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != held || size*scale > repairAnswerMax {
		t.Fatalf("pull answer carries %d of %d entries in %d bytes, want all within %d", len(p.Entries), held, size, repairAnswerMax/scale)
	}
	t.Logf("%d entries, %d accounted bytes, %d answer bytes", held, s.cache.Bytes(), size)
}

// stalledOwner boots two real shards and a stand-in third that gossips
// healthy but holds every check until the proxy gives up on it, and
// picks a model the stand-in owns whose preference order ends at a real
// shard, the entry: a healthy real shard still stands between the
// stalled owner and the entry in a check's walk. It returns the entry, a
// request for the model with a 300-ms budget, and whether the model is
// reachable within the request's bound.
func stalledOwner(t *testing.T) (entry *Server, url string, req CheckRequest, reachable bool) {
	t.Helper()
	stall := make(chan struct{})
	cfg := Config{Workers: 2, QueueDepth: 16}
	servers, urls := newStandInCluster(t, []Config{cfg, cfg}, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // given up on by the proxy
		case <-stall:
		}
	})
	// Cleanups run last-registered first: a request still held is
	// released before the listeners close.
	t.Cleanup(func() { close(stall) })

	ring := servers[0].clusterView().ring
	for _, sys := range modelPool() {
		prefs := ring.Prefs(sebmc.ModelHash(sys))
		if prefs[0].ID != urls[2] {
			continue
		}
		for i, u := range urls[:2] {
			if u == prefs[2].ID {
				entry, url = servers[i], u
			}
		}
		sc := explicit.New(sys).ShortestCounterexample()
		req = CheckRequest{Model: aagSource(t, sys), Format: "aag", Bound: 4, Engine: "sat", Semantics: "atmost", TimeoutMS: 300}
		return entry, url, req, sc != -1 && sc <= 4
	}
	t.Skip("no model in the pool is owned by the stalled shard; enlarge the pool")
	return
}

// stallLimit is how long a request with req's budget may be held past a
// stalled owner: its deadline (timeout_ms plus proxyGrace), then the
// entry shard's own run, with 2 s of slack for a loaded host.
func stallLimit(req CheckRequest) time.Duration {
	return time.Duration(req.TimeoutMS)*time.Millisecond + proxyGrace + 2*time.Second
}

// TestServiceClusterStalledOwnerBoundedByDeadline: an owner that
// answers gossip but sits on /v1/check holds a proxied check until the
// request's deadline (its timeout_ms plus proxyGrace), and no longer:
// the entry shard then serves the check itself.
func TestServiceClusterStalledOwnerBoundedByDeadline(t *testing.T) {
	_, url, req, reachable := stalledOwner(t)
	start := time.Now()
	res, shard := checkWaitShard(t, url, req)
	if elapsed, limit := time.Since(start), stallLimit(req); elapsed > limit {
		t.Fatalf("proxied check took %v past a stalled owner, want at most %v", elapsed, limit)
	}
	if got := res.Status == "REACHABLE"; got != reachable {
		t.Fatalf("answer %s, oracle says reachable=%v", res.Status, reachable)
	}
	if shard != url {
		t.Fatalf("answered by %q, want the entry shard %q", shard, url)
	}
}

// TestServiceClusterStalledOwnerBatchBoundedByDeadline is the batch
// twin: a batch runs on the shard it lands on, so an item the stalled
// shard owns never waits on it. The entry serves the item itself
// (shed_served) within a proxied check's deadline, and proxies nothing.
func TestServiceClusterStalledOwnerBatchBoundedByDeadline(t *testing.T) {
	entry, url, req, reachable := stalledOwner(t)
	m0 := entry.Metrics().Cluster
	client := &http.Client{Timeout: stallLimit(req)}
	defer client.CloseIdleConnections()
	start := time.Now()
	resp, err := client.Post(url+"/v1/batch", "application/json", jsonBody(t, BatchRequest{Jobs: []CheckRequest{req}}))
	if err != nil {
		t.Fatalf("batch past a stalled owner, after %v: %v", time.Since(start), err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK || len(br.Results) != 1 {
		t.Fatalf("batch: HTTP %d, %d results, %v", resp.StatusCode, len(br.Results), err)
	}
	if got := br.Results[0].Status == "REACHABLE"; got != reachable {
		t.Fatalf("answer %s, oracle says reachable=%v", br.Results[0].Status, reachable)
	}
	if m := entry.Metrics().Cluster; m.ShedServed != m0.ShedServed+1 || m.Proxied != m0.Proxied {
		t.Fatalf("entry shed_served %d->%d, proxied_out %d->%d, want the entry to serve the item",
			m0.ShedServed, m.ShedServed, m0.Proxied, m.Proxied)
	}
}

// TestServiceClusterDeadlineClamp: a request arriving with a peer's
// remaining-budget header gets its solving budget clamped to it, even
// when the request itself asked for no timeout — the receiver half of
// deadline propagation (the sender half, stamping the header from its
// own deadline, is proxyWalk).
func TestServiceClusterDeadlineClamp(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})

	// ParityGuard at this bound runs far past the deadline under jsat;
	// the clamp must cut it off as a timeout.
	req := CheckRequest{Model: aagSource(t, circuits.ParityGuard(10)), Format: "aag", Bound: 8, Engine: "jsat"}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(deadlineHeader, "60")
	start := time.Now()
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st checkResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamped request took %v, the deadline header was ignored", elapsed)
	}
	if st.Result == nil || st.Result.Status != "UNKNOWN" {
		t.Fatalf("clamped run: %+v, want UNKNOWN", st.Result)
	}
	if m := s.Metrics(); m.TimedOut < 1 {
		t.Fatalf("clamp did not register as a timeout: timed_out=%d", m.TimedOut)
	}

	// A header LOOSER than the request's own budget must not extend it:
	// the clamp only ever shrinks.
	req.TimeoutMS = 50
	hreq, err = http.NewRequest(http.MethodPost, url+"/v1/check", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(deadlineHeader, "60000")
	start = time.Now()
	resp2, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	st = checkResponse{}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("60s deadline header extended a 50ms budget (took %v)", elapsed)
	}
	if st.Result == nil || st.Result.Status != "UNKNOWN" {
		t.Fatalf("budgeted run under a loose header: %+v, want UNKNOWN", st.Result)
	}

	// A batch gets the same clamp, item by item: a peer running an older
	// release still forwards batch partitions with the header.
	req.TimeoutMS = 0
	hreq, err = http.NewRequest(http.MethodPost, url+"/v1/batch", jsonBody(t, BatchRequest{Jobs: []CheckRequest{req}}))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(deadlineHeader, "60")
	start = time.Now()
	resp3, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp3.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("clamped batch took %v, the deadline header was ignored", elapsed)
	}
	if len(br.Results) != 1 || br.Results[0].Status != "UNKNOWN" {
		t.Fatalf("clamped batch: %+v, want one UNKNOWN", br.Results)
	}
}

// TestServiceReplicaAddKeepsResident: replica adoption stores through
// verdictCache.add, which never replaces a resident entry. The presence
// check and the store are one lock hold, so a local fill that lands
// first wins, and the replica is not counted as stored.
func TestServiceReplicaAddKeepsResident(t *testing.T) {
	c := newVerdictCache(1 << 20)
	k := verdictKey{sessionKey: sessionKey{Hash: "ab12", Engine: sebmc.EngineSATIncr}, Bound: 8, Deepen: true}
	local := JobResult{Status: "REACHABLE", Bound: 8, FoundAt: 5, DecidedBy: "sat-incr"}
	if !c.add(k, local) {
		t.Fatal("add on an absent key stored nothing")
	}
	// A replica that differs from the resident record in its answer
	// (found_at) as well as in run statistics, so a replacement would
	// show in both.
	replica := JobResult{Status: "REACHABLE", Bound: 8, FoundAt: 6, DecidedBy: "jsat"}
	if c.add(k, replica) {
		t.Fatal("add on a resident key reported it stored")
	}
	if got, _ := c.get(k); got.DecidedBy != "sat-incr" || got.FoundAt != 5 {
		t.Fatalf("resident record replaced: decided_by=%q found_at=%d, want sat-incr/5", got.DecidedBy, got.FoundAt)
	}
}

// TestServiceReplicaAdoptRejects: the replication receiver's validation
// gauntlet. A good entry is stored once, and a re-adopt of it reports
// nothing stored, over the function and over /v1/cluster/replicate;
// entries with a mismatched content hash, an unreplayable witness, an
// undecided status, or an unvalidated repair witness are all refused.
func TestServiceReplicaAdoptRejects(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 2})
	// Decide a real verdict to harvest a genuine model + witness pair.
	res := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true})
	if res.Status != "REACHABLE" || res.Witness == "" {
		t.Fatalf("harvest run: %s witness=%q", res.Status, res.Witness)
	}
	sys, err := loadModel(CheckRequest{Model: cexMSL})
	if err != nil {
		t.Fatal(err)
	}
	good := replicaEntry{
		wireKey: wireKey{
			Hash:      sebmc.ModelHash(sys),
			Engine:    "sat",
			Semantics: "exact",
			Schedule:  "linear",
			Model:     aagSource(t, sys),
		},
		Bound:       7, // a key the harvest run did not fill
		JobResult:   JobResult{Status: "REACHABLE", FoundAt: 5, Witness: res.Witness},
		ResultBound: 7,
	}
	if stored, err := s.adoptReplica(good, true); err != nil || !stored {
		t.Fatalf("valid entry: stored=%v err=%v, want stored", stored, err)
	}
	k, err := good.entryKey()
	if err != nil {
		t.Fatal(err)
	}
	if !s.cache.has(k) {
		t.Fatal("adopted entry is not resident")
	}
	if stored, err := s.adoptReplica(good, true); err != nil || stored {
		t.Fatalf("idempotent re-adopt: stored=%v err=%v, want not stored and no error", stored, err)
	}

	// The same push twice over the wire: the receiver accepts it once and
	// counts one entry in, not two.
	pushed := good
	pushed.Bound, pushed.ResultBound = 17, 17
	for i, want := range []int{1, 0} {
		var rr replicateResponse
		if code := postJSON(t, url+"/v1/cluster/replicate", replicatePayload{Entries: []replicaEntry{pushed}}, &rr); code != http.StatusOK || rr.Accepted != want {
			t.Fatalf("push %d: HTTP %d accepted=%d, want 200/%d", i+1, code, rr.Accepted, want)
		}
	}
	if in := s.metrics.replicatedIn.Load(); in != 1 {
		t.Fatalf("replicated_in = %d after pushing one entry twice, want 1", in)
	}

	cases := []struct {
		name string
		mut  func(e *replicaEntry)
		with bool
	}{
		{"hash mismatch", func(e *replicaEntry) { e.Hash = strings.Repeat("0", len(e.Hash)) }, true},
		{"foreign model under the hash", func(e *replicaEntry) { e.Model = aagSource(t, circuits.Johnson(6, 5)) }, true},
		{"corrupt witness", func(e *replicaEntry) { e.Witness = "frame  0: state=111 inputs=\n" }, true},
		// Widths that match neither the plain system nor its self-loop
		// transform must come back as a rejection, not an evaluator
		// panic escaping the handler.
		{"wrong-width witness", func(e *replicaEntry) { e.Witness = strings.ReplaceAll(e.Witness, "state=", "state=0") }, true},
		{"undecided status", func(e *replicaEntry) { e.Status = "UNKNOWN" }, true},
		{"missing model", func(e *replicaEntry) { e.Model = "" }, true},
		{"unvalidated repair witness", func(e *replicaEntry) { e.Model = ""; e.WitnessValidated = false }, false},
		{"bad engine", func(e *replicaEntry) { e.Engine = "divination" }, true},
	}
	for _, c := range cases {
		e := good
		e.Bound = 9 // fresh key, so residency can't mask a rejection
		c.mut(&e)
		if _, err := s.adoptReplica(e, c.with); err == nil {
			t.Errorf("%s: entry adopted, want rejection", c.name)
		}
	}

	// The memo vouches only for a shipped model's hash. The good entry's
	// adoption memoized its text, and a witness tampered to keep its
	// widths must still be replayed against a fresh parse, and refused.
	lines := strings.Split(strings.TrimSpace(res.Witness), "\n")
	last := lines[len(lines)-1]
	i := strings.Index(last, "state=") + len("state=")
	lines[len(lines)-1] = last[:i] + map[byte]string{'0': "1", '1': "0"}[last[i]] + last[i+1:]
	tampered := good
	tampered.Bound = 15
	tampered.Witness = strings.Join(lines, "\n") + "\n"
	hits, _, _ := s.models.stats()
	if _, err := s.adoptReplica(tampered, true); err == nil {
		t.Error("tampered witness on memoized text: entry adopted, want rejection")
	}
	if h, _, _ := s.models.stats(); h != hits+1 {
		t.Errorf("tampered witness: memo hits %d->%d, want a memo hit", hits, h)
	}

	// The repair path's positive case: no model attached, but the
	// witness was validated by the shard it came from — adoptable.
	repair := good
	repair.Bound = 11
	repair.Model = ""
	repair.WitnessValidated = true
	if _, err := s.adoptReplica(repair, false); err != nil {
		t.Fatalf("validated repair entry refused: %v", err)
	}

	// An at-most-k witness carries one extra input per frame (the
	// self-loop selector) and replays against the transform, not the
	// plain shipped model — the receiver must adopt it, not reject or
	// panic on the width difference.
	am := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 6, Engine: "sat", Semantics: "atmost", Witness: true})
	if am.Status != "REACHABLE" || am.Witness == "" {
		t.Fatalf("atmost harvest run: %s witness=%q", am.Status, am.Witness)
	}
	atmost := good
	atmost.Bound, atmost.ResultBound = 13, 13
	atmost.Semantics = "atmost"
	atmost.FoundAt = am.FoundAt
	atmost.Witness = am.Witness
	if _, err := s.adoptReplica(atmost, true); err != nil {
		t.Fatalf("at-most witness entry refused: %v", err)
	}
}

// TestServiceReplicaWireCompat pins the cluster-internal JSON of a
// replica entry, so shards of adjacent versions keep replicating to
// each other during a rolling restart: an entry in the established
// field layout decodes into the same key and record, and re-encodes
// with every one of those fields and values intact.
func TestServiceReplicaWireCompat(t *testing.T) {
	const wire = `{"hash":"0123abcd","bound":9,"engine":"sat-incr","semantics":"atmost",
		"schedule":"geometric","deepen":true,"pg":true,"status":"REACHABLE","found_at":7,
		"decided_by":"sat-incr","witness":"w","witness_validated":true,"terminal":true,
		"certificate":"c","certificate_validated":true,"iterations":4,"bounds_skipped":4,
		"conflicts":12,"peak_bytes":345,"result_bound":9,"model":"aag 0 0 0 0 0\n"}`
	var e replicaEntry
	if err := json.Unmarshal([]byte(wire), &e); err != nil {
		t.Fatal(err)
	}
	k, err := e.entryKey()
	if err != nil {
		t.Fatal(err)
	}
	want := verdictKey{sessionKey: sessionKey{Hash: "0123abcd", Engine: sebmc.EngineSATIncr, Sem: sebmc.AtMost,
		Sched: sebmc.ScheduleGeometric, PG: true}, Bound: 9, Deepen: true}
	if k != want {
		t.Fatalf("decoded key %+v, want %+v", k, want)
	}
	if e.Status != "REACHABLE" || e.FoundAt != 7 || e.ResultBound != 9 || e.Witness != "w" || !e.WitnessValidated ||
		e.Certificate != "c" || !e.CertificateValidated || e.Iterations != 4 || e.Conflicts != 12 {
		t.Fatalf("decoded record %+v", e.JobResult)
	}

	rec := e.JobResult
	rec.Bound = e.ResultBound
	out, err := json.Marshal(newReplicaEntry(k, rec, e.Model))
	if err != nil {
		t.Fatal(err)
	}
	var got, old map[string]any
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(wire), &old); err != nil {
		t.Fatal(err)
	}
	for name, v := range old {
		if got[name] != v {
			t.Errorf("field %q: re-encoded as %v, want %v", name, got[name], v)
		}
	}
}
