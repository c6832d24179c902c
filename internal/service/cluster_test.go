package service

// Cluster-mode tests, named TestServiceCluster* so CI's stress loop
// (-run TestService -count=3, under -race) covers them. The invariants:
// a routed request answers byte-identically to a direct one, a batch
// runs whole on the shard it lands on and answers in order, a malformed
// batch item is the client's 400 and never demotes a healthy owner,
// every check and batch item lands in one routing-ledger bucket, a
// drained shard's proven prefixes reach the survivor through
// replication and a new session there resumes from them, a replicated
// entry is filed only under the hash of the model it ships, and a storm
// with a mid-storm drain loses no jobs and leaks no goroutines.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/cluster"
	"repro/internal/explicit"
	"repro/internal/faultpoint"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// newTestCluster boots n servers, each behind its own httptest
// listener, and joins them into one cluster (the listener URLs double
// as shard IDs — JoinCluster happens after the listeners exist, same
// as bmcd's flag-driven startup). Cleanup drains every shard in order
// and asserts the goroutine count settles: the zero-leak discipline,
// now including gossip loops, proxy transports and the replication
// worker.
func newTestCluster(t *testing.T, n int, cfg Config) ([]*Server, []string) {
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
	for i, s := range servers {
		if err := s.JoinCluster(ClusterConfig{
			Self:           urls[i],
			Shards:         urls,
			GossipInterval: 50 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
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
	return servers, urls
}

// newStandInCluster joins one real shard per cfg and a stand-in
// listener, last in urls, into one cluster. The stand-in gossips
// healthy and answers POST /v1/check with post; anything else is a
// 404. Cleanup drains the real shards, closes every listener and checks
// the goroutine count settles.
func newStandInCluster(t *testing.T, cfgs []Config, post http.HandlerFunc) ([]*Server, []string) {
	t.Helper()
	before := runtime.NumGoroutine()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cluster.Status{QueueCapacity: 16})
	})
	mux.HandleFunc("POST /v1/check", post)
	servers := make([]*Server, len(cfgs))
	tss := make([]*httptest.Server, len(cfgs)+1)
	urls := make([]string, len(cfgs)+1)
	for i, cfg := range cfgs {
		servers[i] = New(cfg)
		tss[i] = httptest.NewServer(servers[i].Handler())
		urls[i] = tss[i].URL
	}
	tss[len(cfgs)] = httptest.NewServer(mux)
	urls[len(cfgs)] = tss[len(cfgs)].URL
	for i, s := range servers {
		if err := s.JoinCluster(ClusterConfig{Self: urls[i], Shards: urls, GossipInterval: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
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
	return servers, urls
}

// modelPool is twenty small models. Rendezvous order is hash-driven and
// shard IDs are random ports, so a test that needs a given owner or
// preference order scans this pool for it.
func modelPool() []*sebmc.System {
	var pool []*sebmc.System
	for n := 3; n <= 10; n++ {
		pool = append(pool, circuits.TokenRing(n))
	}
	for n := 2; n <= 4; n++ {
		for tgt := uint64(2); tgt <= 5; tgt++ {
			pool = append(pool, circuits.Counter(n, tgt))
		}
	}
	return pool
}

// ownedBy returns the first model of modelPool whose owner, by s's
// ring, is the shard id.
func ownedBy(t *testing.T, s *Server, id string) *sebmc.System {
	t.Helper()
	for _, sys := range modelPool() {
		if s.clusterView().ring.Owner(sebmc.ModelHash(sys)).ID == id {
			return sys
		}
	}
	t.Fatalf("no model in the pool is owned by %s; enlarge the pool", id)
	return nil
}

// ownerIndex returns which shard owns the given model source, as the
// cluster itself computes it.
func ownerIndex(t *testing.T, servers []*Server, urls []string, src string) int {
	t.Helper()
	sys, err := loadModel(CheckRequest{Model: src})
	if err != nil {
		t.Fatal(err)
	}
	owner := servers[0].clusterView().ring.Owner(sebmc.ModelHash(sys))
	for i, u := range urls {
		if u == owner.ID {
			return i
		}
	}
	t.Fatalf("owner %s is not one of %v", owner.ID, urls)
	return -1
}

// normalized strips the fields that legitimately differ between a
// direct and a routed answer — where it ran and how warm it was —
// leaving everything the client actually consumes, Iterations and
// BoundsSkipped included.
func normalized(r *JobResult) JobResult {
	n := *r
	n.Cached = false
	n.SessionHit = false
	n.ElapsedMS = 0
	n.Conflicts = 0
	n.PeakBytes = 0
	return n
}

// TestServiceClusterRoutedEquivalence is the routing-table
// differential at the HTTP layer: the same request answered directly
// by a standalone server, by the owning shard, and via a non-owner
// entry shard (proxied) must agree on every result field a client
// consumes.
func TestServiceClusterRoutedEquivalence(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 32}
	_, direct := newTestServer(t, cfg)
	_, urls := newTestCluster(t, 2, cfg)

	models := []string{
		cexMSL,
		safeMSL,
		aagSource(t, circuits.Counter(3, 5)),
		aagSource(t, circuits.TokenRing(4)),
		aagSource(t, circuits.TrafficLight(2)),
	}
	reqs := []CheckRequest{
		{Bound: 5, Engine: "sat", Witness: true},
		{Bound: 6, Engine: "sat-incr", Deepen: true, Witness: true},
		{Bound: 8, Engine: "sat-incr", Deepen: true, Schedule: "geometric"},
		{Bound: 4, Engine: "sat", Semantics: "atmost"},
	}
	for mi, model := range models {
		for ri, base := range reqs {
			req := base
			req.Model = model
			want := normalized(checkWait(t, direct, req))
			for si, u := range urls {
				got := normalized(checkWait(t, u, req))
				if got != want {
					t.Errorf("model %d req %d via shard %d: routed answer differs\n got: %+v\nwant: %+v",
						mi, ri, si, got, want)
				}
			}
		}
	}
}

// TestServiceClusterModeProxyOnly: proxy is the only routing mode, and
// JoinCluster refuses any other.
func TestServiceClusterModeProxyOnly(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	if err := s.JoinCluster(ClusterConfig{Self: url, Shards: []string{url}, Mode: "redirect"}); err == nil {
		t.Fatal("JoinCluster accepted mode redirect")
	}
	if s.clusterView() != nil {
		t.Fatal("a refused JoinCluster left the server clustered")
	}
}

// TestServiceClusterBatchRunsOnEntry: a mixed-owner batch posted at one
// shard runs there whole. The answers come back in submission order and
// agree with the oracle, nothing is proxied or forwarded, and each item
// the peer owns counts as shed_served at the entry. A draining entry
// answers the batch 503 with Retry-After, as a standalone shard does,
// and nothing reaches the peer.
func TestServiceClusterBatchRunsOnEntry(t *testing.T) {
	servers, urls := newTestCluster(t, 2, Config{Workers: 2, QueueDepth: 64})
	// The first six models always ride; shard IDs are random ports, so
	// the rest are added only while every model so far hashes to one
	// shard.
	systems := []*sebmc.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(4),
		circuits.TrafficLight(2),
		circuits.Counter(2, 3),
		circuits.TokenRing(3),
		circuits.TokenRing(5),
		circuits.TokenRing(6),
		circuits.TokenRing(7),
		circuits.Counter(3, 6),
		circuits.Counter(4, 9),
		circuits.Counter(2, 2),
	}
	const entry, peer = 0, 1
	var jobs []CheckRequest
	var want []bool
	var peerOwned int64
	for i, sys := range systems {
		if i >= 6 && peerOwned > 0 && peerOwned < int64(len(jobs)) {
			break
		}
		// Each item its own bound: an answer's bound names its item.
		src, bound := aagSource(t, sys), 4+i
		jobs = append(jobs, CheckRequest{Model: src, Format: "aag", Bound: bound, Engine: "sat", Semantics: "atmost"})
		sc := explicit.New(sys).ShortestCounterexample()
		want = append(want, sc != -1 && sc <= bound)
		if ownerIndex(t, servers, urls, src) == peer {
			peerOwned++
		}
	}
	if peerOwned == 0 || peerOwned == int64(len(jobs)) {
		t.Skip("all twelve models hash to one shard; adjust the model set")
	}
	m0, m1 := servers[entry].Metrics(), servers[peer].Metrics()
	var br BatchResponse
	if code := postJSON(t, urls[entry]+"/v1/batch", BatchRequest{Jobs: jobs}, &br); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(br.Results) != len(jobs) {
		t.Fatalf("batch: %d results for %d jobs", len(br.Results), len(jobs))
	}
	for i, res := range br.Results {
		if got := res.Status == "REACHABLE"; got != want[i] || res.Bound != jobs[i].Bound {
			t.Errorf("batch item %d: %s at bound %d, want bound %d, where the oracle says reachable=%v",
				i, res.Status, res.Bound, jobs[i].Bound, want[i])
		}
	}
	a0, a1 := servers[entry].Metrics(), servers[peer].Metrics()
	if a0.Cluster.Proxied != m0.Cluster.Proxied || a1.Cluster.ForwardedIn != m1.Cluster.ForwardedIn {
		t.Errorf("the batch left the entry: entry proxied_out %d->%d, peer forwarded_in %d->%d",
			m0.Cluster.Proxied, a0.Cluster.Proxied, m1.Cluster.ForwardedIn, a1.Cluster.ForwardedIn)
	}
	if d := a0.Cluster.ShedServed - m0.Cluster.ShedServed; d != peerOwned {
		t.Errorf("entry shed_served +%d, want +%d (the items the peer owns)", d, peerOwned)
	}
	if d := a0.Submitted - m0.Submitted; d != int64(len(jobs)) {
		t.Errorf("entry jobs_submitted +%d, want +%d", d, len(jobs))
	}

	// A draining entry refuses the batch whole, even the items the peer
	// could take: nothing is proxied, and the peer sees nothing.
	drain(t, servers[entry])
	m1 = servers[peer].Metrics()
	resp, err := http.Post(urls[entry]+"/v1/batch", "application/json", jsonBody(t, BatchRequest{Jobs: jobs}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("batch at a draining entry: HTTP %d, Retry-After %q, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	a1 = servers[peer].Metrics()
	if a1.Cluster.ForwardedIn != m1.Cluster.ForwardedIn || a1.Submitted != m1.Submitted || a1.Rejected != m1.Rejected {
		t.Fatalf("the draining entry's batch reached the peer: forwarded_in %d->%d, jobs_submitted %d->%d, jobs_rejected %d->%d",
			m1.Cluster.ForwardedIn, a1.Cluster.ForwardedIn, m1.Submitted, a1.Submitted, m1.Rejected, a1.Rejected)
	}
}

// TestServiceClusterBatchBadItemKeepsOwner: a batch item the owner
// would refuse (an unknown engine) is answered 400 by the entry shard
// before anything runs, and the owner stays healthy in the entry's
// tracker — the next valid check for the owner's model is proxied to
// it, not shed to the entry. Gossip is slow here, so a wrongful
// demotion would still be in force when that check arrives.
func TestServiceClusterBatchBadItemKeepsOwner(t *testing.T) {
	servers, urls, _ := newFailoverCluster(t, 2, Config{Workers: 2, QueueDepth: 16}, ClusterConfig{GossipInterval: 5 * time.Second})
	owner := ownerIndex(t, servers, urls, cexMSL)
	entry := 1 - owner
	cs := servers[entry].clusterView()
	// The first poll round must have landed, or it could re-promote the
	// owner after the batch and hide a demotion.
	waitUntil(t, 5*time.Second, "the entry shard to hear the owner", func() bool {
		_, ok := cs.tracker.Status(urls[owner])
		return ok
	})

	bad := BatchRequest{Jobs: []CheckRequest{
		{Model: aagSource(t, circuits.Counter(3, 5)), Format: "aag", Bound: 6, Engine: "sat"},
		{Model: cexMSL, Bound: 5, Engine: "bogus"},
	}}
	if code := postJSON(t, urls[entry]+"/v1/batch", bad, nil); code != http.StatusBadRequest {
		t.Fatalf("batch with an unknown engine: HTTP %d, want 400", code)
	}
	if !cs.tracker.Healthy(urls[owner]) {
		t.Fatal("a malformed batch item marked the healthy owner down")
	}
	shed := servers[entry].Metrics().Cluster.ShedServed
	res, shard := checkWaitShard(t, urls[entry], CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"})
	if res.Status != "REACHABLE" {
		t.Fatalf("check after the bad batch: %s, want REACHABLE", res.Status)
	}
	if shard != urls[owner] {
		t.Fatalf("check answered by %q, want the owner %q", shard, urls[owner])
	}
	if got := servers[entry].Metrics().Cluster.ShedServed; got != shed {
		t.Fatalf("entry shard shed %d requests past a healthy owner", got-shed)
	}
}

// TestServiceClusterProxiesRawBody: a miss for a key another shard owns
// is forwarded as the client sent it — the body byte for byte, not a
// re-marshal of the decoded request — to the owner's /v1/check, without
// the query string: an earlier release's ?wait=1 means nothing now. The
// owner here is a stand-in that records what it receives.
func TestServiceClusterProxiesRawBody(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	type received struct {
		body  []byte
		query string
	}
	got := make(chan received, 1)
	mux := http.NewServeMux()
	standin := httptest.NewServer(mux)
	mux.HandleFunc("GET /v1/cluster/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cluster.Status{ID: standin.URL, QueueCapacity: 16})
	})
	mux.HandleFunc("POST /v1/check", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got <- received{b, r.URL.RawQuery}
		w.Header().Set(shardHeader, standin.URL)
		writeJSON(w, http.StatusOK, checkResponse{Result: &JobResult{Status: "UNREACHABLE", Bound: 4, FoundAt: -1}})
	})
	urls := []string{ts.URL, standin.URL}
	if err := s.JoinCluster(ClusterConfig{Self: ts.URL, Shards: urls, GossipInterval: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		drain(t, s)
		http.DefaultClient.CloseIdleConnections()
		ts.Close()
		standin.Close()
		settleGoroutines(t, before)
	})

	ring := s.clusterView().ring
	var src string
	for n := 3; n <= 12 && src == ""; n++ {
		if sys := circuits.TokenRing(n); ring.Owner(sebmc.ModelHash(sys)).ID == standin.URL {
			src = aagSource(t, sys)
		}
	}
	if src == "" {
		t.Skip("no model in the pool is owned by the stand-in; enlarge the pool")
	}
	// Key order and spacing no encoder would produce: a re-marshal
	// cannot reproduce these bytes.
	model, err := json.Marshal(src)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{ "engine": "sat",  "bound": 4, "format": "aag", "model": ` + string(model) + " }\n")
	resp, err := http.Post(ts.URL+"/v1/check?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(shardHeader) != standin.URL {
		t.Fatalf("proxied miss: HTTP %d from %q, want 200 relayed from the stand-in", resp.StatusCode, resp.Header.Get(shardHeader))
	}
	select {
	case rec := <-got:
		if !bytes.Equal(rec.body, body) {
			t.Errorf("owner received\n%s\nwant the client's bytes\n%s", rec.body, body)
		}
		if rec.query != "" {
			t.Errorf("owner received query %q, want none", rec.query)
		}
	default:
		t.Fatal("the stand-in owner received nothing")
	}
}

// TestServiceClusterCachedBatchProxiesNothing: a batch whose items are
// all cached at the entry shard — its own fills and replicas of the
// peer's — is answered there in full: nothing fans out, and the ledger
// counts each item where its key is placed.
func TestServiceClusterCachedBatchProxiesNothing(t *testing.T) {
	servers, urls := newTestCluster(t, 2, Config{Workers: 2, QueueDepth: 16})
	systems := []*sebmc.System{
		circuits.Counter(3, 5),
		circuits.TokenRing(4),
		circuits.TrafficLight(2),
		circuits.Counter(2, 3),
		circuits.TokenRing(3),
		circuits.TokenRing(5),
	}
	var jobs []CheckRequest
	owned := [2]int{}
	for _, sys := range systems {
		src := aagSource(t, sys)
		req := CheckRequest{Model: src, Format: "aag", Bound: 6, Engine: "sat", Semantics: "atmost"}
		o := ownerIndex(t, servers, urls, src)
		owned[o]++
		checkWait(t, urls[o], req) // fill on the owner; the push replicates it to the peer
		jobs = append(jobs, req)
	}
	if owned[0] == 0 || owned[1] == 0 {
		t.Skip("every model hashes to one shard; adjust the model set")
	}
	const entry = 0
	waitUntil(t, 10*time.Second, "the peer's fills to reach the entry shard", func() bool {
		return replSnap(t, servers[entry]).ReplicatedIn >= int64(owned[1])
	})
	m0, m1 := servers[entry].Metrics(), servers[1].Metrics()

	var br BatchResponse
	if code := postJSON(t, urls[entry]+"/v1/batch", BatchRequest{Jobs: jobs}, &br); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	for i, r := range br.Results {
		if !r.Cached {
			t.Errorf("batch item %d: %+v, want a cached answer", i, r)
		}
	}
	a0, a1 := servers[entry].Metrics(), servers[1].Metrics()
	if a0.Cluster.Proxied != m0.Cluster.Proxied || a1.Cluster.ForwardedIn != m1.Cluster.ForwardedIn {
		t.Fatalf("a fully cached batch fanned out: entry proxied_out %d->%d, peer forwarded_in %d->%d",
			m0.Cluster.Proxied, a0.Cluster.Proxied, m1.Cluster.ForwardedIn, a1.Cluster.ForwardedIn)
	}
	if d := a0.Cluster.OwnedServed - m0.Cluster.OwnedServed; d != int64(owned[entry]) {
		t.Errorf("entry owned_served +%d, want +%d", d, owned[entry])
	}
	if d := a0.Cluster.ReplicaServed - m0.Cluster.ReplicaServed; d != int64(owned[1]) {
		t.Errorf("entry replica_served +%d, want +%d", d, owned[1])
	}
}

// countingHandler counts the checks a shard receives: one per POST
// /v1/check, one per item of a POST /v1/batch.
func countingHandler(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method != http.MethodPost:
		case r.URL.Path == "/v1/check":
			n.Add(1)
		case r.URL.Path == "/v1/batch":
			body, _ := io.ReadAll(r.Body)
			var br BatchRequest
			_ = json.Unmarshal(body, &br)
			n.Add(int64(len(br.Jobs)))
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
}

// TestServiceClusterLedgerBalances: every check a shard receives — a
// /v1/check or a batch item, from a client or forwarded by its peer,
// hit or miss, proxied or run where it landed — lands in exactly one of
// its five routing-ledger buckets.
func TestServiceClusterLedgerBalances(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{Workers: 2, QueueDepth: 16}
	servers := []*Server{New(cfg), New(cfg)}
	var received [2]atomic.Int64
	tss := make([]*httptest.Server, 2)
	urls := make([]string, 2)
	for i, s := range servers {
		tss[i] = httptest.NewServer(countingHandler(s.Handler(), &received[i]))
		urls[i] = tss[i].URL
	}
	for i, s := range servers {
		if err := s.JoinCluster(ClusterConfig{Self: urls[i], Shards: urls, GossipInterval: 50 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
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

	models := []string{cexMSL, safeMSL, aagSource(t, circuits.Counter(3, 5)), aagSource(t, circuits.TokenRing(4))}
	// The batches below enter at the first model's owner and need a
	// model its peer owns.
	entry := ownerIndex(t, servers, urls, models[0])
	peer := 1 - entry
	peerModel := aagSource(t, ownedBy(t, servers[0], urls[peer]))
	if !slices.Contains(models, peerModel) {
		models = append(models, peerModel)
	}
	for _, model := range models {
		o := ownerIndex(t, servers, urls, model)
		sys, err := loadModel(CheckRequest{Model: model})
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int{2, 4} {
			req := CheckRequest{Model: model, Bound: bound, Engine: "sat"}
			checkWait(t, urls[1-o], req) // a miss through the non-owner: proxied
			checkWait(t, urls[o], req)   // a hit at the owner
			key := verdictKey{sessionKey: sessionKey{Hash: sebmc.ModelHash(sys), Engine: sebmc.EngineSAT}, Bound: bound}
			waitUntil(t, 10*time.Second, "the replica to reach the non-owner", func() bool {
				return servers[1-o].cache.has(key)
			})
			checkWait(t, urls[1-o], req) // a hit on the replica
		}
	}
	var owned, replica int64
	for _, s := range servers {
		owned += s.Metrics().Cluster.OwnedServed
		replica += s.Metrics().Cluster.ReplicaServed
	}
	if want := int64(2 * len(models)); owned != want || replica != want {
		t.Errorf("owned_served %d and replica_served %d across the shards, want %d each", owned, replica, want)
	}

	// Three batches at the entry: every item cached there; every item a
	// miss, owned by both shards; and one miss the peer owns, which runs
	// at the entry and counts as shed there.
	var cached, mixed []CheckRequest
	for _, model := range models {
		cached = append(cached, CheckRequest{Model: model, Bound: 2, Engine: "sat"}, CheckRequest{Model: model, Bound: 4, Engine: "sat"})
		mixed = append(mixed, CheckRequest{Model: model, Bound: 3, Engine: "sat"})
	}
	post := func(jobs []CheckRequest) {
		t.Helper()
		var br BatchResponse
		if code := postJSON(t, urls[entry]+"/v1/batch", BatchRequest{Jobs: jobs}, &br); code != http.StatusOK {
			t.Fatalf("batch of %d: HTTP %d", len(jobs), code)
		}
	}
	post(cached)
	post(mixed)
	shed := servers[entry].Metrics().Cluster.ShedServed
	post([]CheckRequest{{Model: peerModel, Bound: 5, Engine: "sat"}})
	if got := servers[entry].Metrics().Cluster.ShedServed - shed; got != 1 {
		t.Fatalf("a batch miss the peer owns: entry shed_served +%d, want +1", got)
	}
	for i, s := range servers {
		c := s.Metrics().Cluster
		sum := c.OwnedServed + c.Proxied + c.ForwardedIn + c.ShedServed + c.ReplicaServed
		if got := received[i].Load(); sum != got {
			t.Errorf("shard %d: ledger %+v sums to %d, but it received %d checks and batch items", i, c, sum, got)
		}
	}
}

// TestServiceClusterDrainHandover: draining a shard hands its proven
// prefixes over through replication. The survivor holds the owner's
// deepen verdict once the drain returns, and a deeper request for the
// key, now served there, builds a new session seeded from it: only the
// two new bounds are solved.
func TestServiceClusterDrainHandover(t *testing.T) {
	servers, urls := newTestCluster(t, 2, Config{Workers: 2, QueueDepth: 16})
	safeSrc := aagSource(t, circuits.Counter(3, 7)) // reaches 7 only at step 7, beyond every bound used here
	owner := ownerIndex(t, servers, urls, safeSrc)
	survivor := 1 - owner

	// Warm the owner: a deepen proves bounds 0..4 and fills the cache.
	first := checkWait(t, urls[owner], CheckRequest{Model: safeSrc, Format: "aag", Bound: 4, Engine: "sat-incr", Deepen: true})
	if first.Status != "UNREACHABLE" {
		t.Fatalf("warmup deepen: %s, want UNREACHABLE", first.Status)
	}

	// Drain the owner: by the time Drain returns, its replication queue
	// has been flushed to the survivor.
	drain(t, servers[owner])
	if in := replSnap(t, servers[survivor]).ReplicatedIn; in < 1 {
		t.Fatalf("survivor adopted %d replicated entries, want >= 1", in)
	}

	// A deeper request for the key now lands on the survivor (the owner
	// is draining: either gossip has noticed or the proxy bounce sheds
	// it) and resumes from the replicated prefix 0..4.
	deeper := checkWait(t, urls[survivor], CheckRequest{Model: safeSrc, Format: "aag", Bound: 6, Engine: "sat-incr", Deepen: true})
	if deeper.Status != "UNREACHABLE" || deeper.Cached {
		t.Fatalf("post-drain deepen: %s cached=%v, want a fresh UNREACHABLE", deeper.Status, deeper.Cached)
	}
	if deeper.Iterations != 2 || deeper.BoundsSkipped != 5 {
		t.Fatalf("post-drain deepen: iterations=%d bounds_skipped=%d, want 2/5 (resumed from the replicated prefix 0..4)",
			deeper.Iterations, deeper.BoundsSkipped)
	}
}

// TestServiceClusterDrainFlushesReplication: whatever the write-behind
// queue still holds when a shard drains is sent before Drain returns.
// An injected delay holds the worker in its first send, so later fills
// are still queued when the drain begins, and slow gossip keeps
// anti-entropy from pulling them instead.
func TestServiceClusterDrainFlushesReplication(t *testing.T) {
	defer faultpoint.Reset()
	servers, urls, _ := newFailoverCluster(t, 2, Config{Workers: 1, QueueDepth: 16}, ClusterConfig{GossipInterval: 5 * time.Second})
	owner := ownerIndex(t, servers, urls, cexMSL)
	survivor := 1 - owner
	// The survivor's first poll round must see the owner's cache empty,
	// or its repair pull would fetch the fills before replication does.
	waitUntil(t, 5*time.Second, "the survivor to hear the owner", func() bool {
		_, ok := servers[survivor].clusterView().tracker.Status(urls[owner])
		return ok
	})
	faultpoint.Arm("service.replicate.send", faultpoint.Schedule{Kind: faultpoint.KindDelay, Delay: 300 * time.Millisecond})

	const fills = 4 // bounds 1..4, each its own cache entry
	for k := 1; k <= fills; k++ {
		if r := checkWait(t, urls[owner], CheckRequest{Model: cexMSL, Bound: k, Engine: "sat"}); r.Status != "UNREACHABLE" {
			t.Fatalf("bound %d: %s, want UNREACHABLE", k, r.Status)
		}
	}
	drain(t, servers[owner])
	if in := replSnap(t, servers[survivor]).ReplicatedIn; in != fills {
		t.Fatalf("survivor adopted %d of the %d verdicts the drained shard decided", in, fills)
	}
}

// TestServiceClusterReplicateHashMismatch: the replicate receiver
// derives the content hash from the shipped model instead of trusting
// the sender's. A deepen UNREACHABLE shipping one model under another
// model's hash is refused, so no proven prefix is ever filed under the
// wrong address — the later deepen of the named model still finds its
// counterexample instead of resuming past it.
func TestServiceClusterReplicateHashMismatch(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	victim := circuits.DeepCounter(8)
	p := replicatePayload{Entries: []replicaEntry{{
		wireKey: wireKey{
			Hash:      sebmc.ModelHash(victim),
			Model:     aagSource(t, circuits.Johnson(6, 5)),
			Engine:    "sat-incr",
			Semantics: "exact",
			Schedule:  "linear",
		},
		Bound:       10,
		Deepen:      true,
		JobResult:   JobResult{Status: "UNREACHABLE", FoundAt: -1},
		ResultBound: 10,
	}}}
	var rr replicateResponse
	if code := postJSON(t, url+"/v1/cluster/replicate", p, &rr); code != http.StatusOK || rr.Accepted != 0 {
		t.Fatalf("replicate under a foreign hash: HTTP %d accepted=%d, want 200/0", code, rr.Accepted)
	}
	if got := s.metrics.replicateRejected.Load(); got != 1 {
		t.Fatalf("replicate_rejected = %d, want 1", got)
	}
	// The model memo vouches for the text it parsed, not for a claimed
	// hash: with the shipped text memoized by an ordinary check, the same
	// push is answered from the memo and still refused.
	checkWait(t, url, CheckRequest{Model: p.Entries[0].Model, Format: "aag", Bound: 2, Engine: "sat"})
	hits, _, _ := s.models.stats()
	if code := postJSON(t, url+"/v1/cluster/replicate", p, &rr); code != http.StatusOK || rr.Accepted != 0 {
		t.Fatalf("replicate of memoized text under a foreign hash: HTTP %d accepted=%d, want 200/0", code, rr.Accepted)
	}
	if got := s.metrics.replicateRejected.Load(); got != 2 {
		t.Fatalf("replicate_rejected = %d, want 2", got)
	}
	if h, _, _ := s.models.stats(); h != hits+1 {
		t.Fatalf("the push did not consult the memo: hits %d->%d", hits, h)
	}
	want := sebmc.ShortestCounterexample(victim)
	r := checkWait(t, url, CheckRequest{Model: aagSource(t, victim), Format: "aag", Bound: 12, Engine: "sat-incr", Deepen: true})
	if r.Status != "REACHABLE" || r.FoundAt != want {
		t.Fatalf("deepen after the refused replica: %s found_at=%d, want REACHABLE at %d", r.Status, r.FoundAt, want)
	}
}

// TestServiceClusterDrainStorm: a concurrent storm across both shards
// with a mid-storm drain of one. Every response must be a correct
// verdict, a contained failure, or a 503 — no lost jobs, no wrong
// answers — and the survivor keeps serving the whole keyspace.
func TestServiceClusterDrainStorm(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("cluster storm seed %d", seed)
	servers, urls := newTestCluster(t, 2, Config{Workers: 2, QueueDepth: 64, MaxTimeout: 2 * time.Second})

	systems := []*sebmc.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(4),
		circuits.TrafficLight(2),
	}
	srcs := make([]string, len(systems))
	shortest := make([]int, len(systems))
	exact := make([][]bool, len(systems))
	for i, sys := range systems {
		srcs[i] = aagSource(t, sys)
		oracle := explicit.New(sys)
		shortest[i] = oracle.ShortestCounterexample()
		exact[i] = make([]bool, 7)
		for k := range exact[i] {
			exact[i][k] = oracle.ReachableExact(k)
		}
	}

	const stormWorkers = 6
	const stormRequests = 90
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < stormWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := range work {
				si := rng.Intn(len(systems))
				req := CheckRequest{
					Model:  srcs[si],
					Format: "aag",
					Bound:  rng.Intn(7),
					Engine: []string{"sat", "sat-incr"}[rng.Intn(2)],
				}
				if rng.Intn(3) == 0 {
					req.Deepen = true
				}
				// After the drain begins, the drained shard sheds to the
				// survivor; before it, both entries work. Spray both.
				url := urls[i%2]
				var st checkResponse
				code := postJSON(t, url+"/v1/check", req, &st)
				chaosVerify(t, req, code, st.Result, exact[si], shortest[si])
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < stormRequests; i++ {
			work <- i
			if i == stormRequests/3 {
				drain(t, servers[1]) // mid-storm: shard 1 goes away
			}
		}
		close(work)
	}()
	<-done
	wg.Wait()

	// The survivor took over shard 1's keyspace: it served keys as their
	// owner or shed past the drained shard (which of the two depends on
	// where the storm models hash — shard IDs are random httptest ports,
	// so a run where one shard owns every model is legitimate), and its
	// health endpoint still answers.
	m0 := servers[0].Metrics()
	if m0.Cluster.OwnedServed+m0.Cluster.ShedServed == 0 {
		t.Errorf("survivor served nothing after the drain: %+v", m0.Cluster)
	}
	var hb healthBody
	if code := getJSON(t, urls[0]+"/healthz", &hb); code != http.StatusOK {
		t.Errorf("survivor healthz: HTTP %d", code)
	}
	t.Logf("storm: shard0 owned=%d shed=%d fwd_in=%d proxied=%d; shard1 replicated_out=%d",
		m0.Cluster.OwnedServed, m0.Cluster.ShedServed, m0.Cluster.ForwardedIn, m0.Cluster.Proxied,
		replSnap(t, servers[1]).ReplicatedOut)
}
