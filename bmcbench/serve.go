package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	sebmc "repro"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/service"
)

// shardAddrs are the fixed loopback addresses of the two shards. The
// cluster uses each shard's URL as its rendezvous-hashing ID, so fixed
// ports keep the model-to-shard split the same on every run.
var shardAddrs = []string{"127.0.0.1:39461", "127.0.0.1:39462"}

// requestTimeout bounds one client call, so a stuck request fails and
// counts instead of stalling the run past its time limit.
const requestTimeout = 60 * time.Second

// shardCluster is two in-process bmcd shards joined as a proxy cluster.
type shardCluster struct {
	urls    []string
	servers []*service.Server
	https   []*http.Server
	served  sync.WaitGroup
	ring    *cluster.Ring
	clients []*service.Client // one per caller, each with one connection to its own entry shard
}

// bmcdDefaults is the service configuration cmd/bmcd builds when it is
// started with no flags. service.Config's zero value would default to
// engine sat, which is not what production runs.
func bmcdDefaults() service.Config {
	return service.Config{
		QueueDepth:          64,
		CacheBytes:          16 << 20,
		SessionBytes:        64 << 20,
		DefaultEngine:       sebmc.EnginePortfolio,
		DefaultSchedule:     sebmc.ScheduleLinear,
		QuarantineThreshold: 3,
		QuarantineTTL:       30 * time.Second,
	}
}

func startCluster() (*shardCluster, error) {
	c := &shardCluster{}
	var lns []net.Listener
	for _, a := range shardAddrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, fmt.Errorf("shard address %s is taken; the serve workloads pin both shard ports so that routing is the same every run: %w", a, err)
		}
		lns = append(lns, ln)
		c.urls = append(c.urls, "http://"+a)
	}
	shards := make([]cluster.Shard, len(c.urls))
	for i, u := range c.urls {
		shards[i] = cluster.Shard{ID: u, URL: u}
	}
	ring, err := cluster.NewRing(shards)
	if err != nil {
		return nil, err
	}
	c.ring = ring
	for i, ln := range lns {
		srv := service.New(bmcdDefaults())
		c.servers = append(c.servers, srv)
		if err := srv.JoinCluster(service.ClusterConfig{Self: c.urls[i], Shards: c.urls, Mode: service.ModeProxy, GossipInterval: time.Second}); err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			c.stop()
			return nil, err
		}
		// The timeouts cmd/bmcd sets.
		hs := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       2 * time.Minute,
			IdleTimeout:       5 * time.Minute,
		}
		c.https = append(c.https, hs)
		c.served.Add(1)
		go func(ln net.Listener) {
			defer c.served.Done()
			// Serve returns ErrServerClosed once stop shuts it down; had
			// it failed earlier, requests to the shard fail and count.
			_ = hs.Serve(ln)
		}(ln)
		c.clients = append(c.clients, &service.Client{
			BaseURL: c.urls[i],
			HTTP: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
			}},
			// A 503 is a failed request here, not something to retry.
			MaxRetries: -1,
		})
	}
	// Wait for the first gossip round, so both shards start out seeing
	// each other up.
	deadline := time.Now().Add(10 * time.Second)
	for _, srv := range c.servers {
		for srv.Metrics().Cluster.PeersUp < len(c.urls)-1 {
			if time.Now().After(deadline) {
				c.stop()
				return nil, errors.New("shards did not see each other within 10s")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return c, nil
}

// stop drains both shards and shuts their listeners down. A shard that
// does not stop in time is reported on standard error; the process
// exits soon after anyway.
func (c *shardCluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, srv := range c.servers {
		wg.Add(1)
		go func(srv *service.Server) {
			defer wg.Done()
			if err := srv.Drain(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "bmcbench: drain: %v\n", err)
			}
		}(srv)
	}
	wg.Wait()
	for _, hs := range c.https {
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "bmcbench: shutdown: %v\n", err)
		}
	}
	c.served.Wait()
	for _, cl := range c.clients {
		cl.HTTP.CloseIdleConnections()
	}
}

// owner returns the index of the shard that owns a model hash.
func (c *shardCluster) owner(hash string) int {
	o := c.ring.Owner(hash).ID
	for i, u := range c.urls {
		if u == o {
			return i
		}
	}
	return -1
}

// probe sums the shards' /metrics counters the serve workloads report.
func (c *shardCluster) probe() probe {
	p := probe{}
	for i, srv := range c.servers {
		m := srv.Metrics()
		p["cache_hits"] += float64(m.Cache.Hits)
		p["cache_misses"] += float64(m.Cache.Misses)
		p[fmt.Sprintf("shard%d.cache_hits", i)] = float64(m.Cache.Hits)
		p[fmt.Sprintf("shard%d.cache_misses", i)] = float64(m.Cache.Misses)
		p[fmt.Sprintf("shard%d.completed", i)] = float64(m.Completed)
		p["session_hits"] += float64(m.Sessions.Hits)
		p["session_misses"] += float64(m.Sessions.Misses)
		p["bounds_skipped"] += float64(m.DeepenBoundsSkipped)
		p["rejected"] += float64(m.Rejected)
		if cl := m.Cluster; cl != nil {
			p["proxied_out"] += float64(cl.Proxied)
			p["replicated_out"] += float64(cl.Replication.ReplicatedOut)
			p["replicate_dropped"] += float64(cl.Replication.ReplicateDropped)
			p["hedges_fired"] += float64(cl.Replication.HedgesFired)
		}
	}
	return p
}

func (c *shardCluster) peakBytes() float64 {
	var peak int64
	for _, srv := range c.servers {
		peak = max(peak, srv.Metrics().PeakSolverBytes)
	}
	return float64(peak)
}

// serveReq is one request with its expected answer.
type serveReq struct {
	label string
	req   service.CheckRequest
	// status is the expected verdict; foundAt the expected
	// counterexample depth of a deepen request (-1 for none).
	status  string
	foundAt int
	// owner is the shard owning the model, -1 when not computed.
	owner int
	path  string // path label for requests whose path the request fixes
}

// callServe sends one request (or batch) through caller c's client and
// checks the answers. In a traced run the generator first times
// LoadAIGER and ModelHash on the same request body.
func callServe(cl *shardCluster, chk *checker, c int, reqs []*serveReq, tr *tracer) sample {
	root := tr.root()
	if tr != nil {
		for _, r := range reqs {
			sp := tr.begin(layerLoad, root)
			sys, err := sebmc.LoadAIGER(strings.NewReader(r.req.Model), 0)
			tr.end(sp)
			if err != nil {
				chk.failf("%s: load: %v", r.label, err)
				continue
			}
			sp = tr.begin(layerHash, root)
			h := sebmc.ModelHash(sys)
			tr.end(sp)
			sp = tr.begin(layerReduce, root)
			sys.Reduce()
			tr.end(sp)
			if r.owner < 0 {
				r.owner = cl.owner(h)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	s := sample{verdicts: len(reqs), server: -1, owned: len(reqs) == 1 && reqs[0].owner == c, key: reqs[0].label}
	sp := tr.begin(layerClient, root)
	t0 := time.Now()
	var results []*service.JobResult
	var err error
	if len(reqs) == 1 {
		var r *service.JobResult
		r, err = cl.clients[c].Check(ctx, reqs[0].req)
		results = []*service.JobResult{r}
	} else {
		batch := make([]service.CheckRequest, len(reqs))
		for i, r := range reqs {
			batch[i] = r.req
		}
		results, err = cl.clients[c].Batch(ctx, batch)
	}
	s.lat = time.Since(t0)
	tr.end(sp)
	if root >= 0 {
		tr.end(root)
	}
	if err != nil || len(results) != len(reqs) {
		s.path = "error"
		return s
	}
	for i, res := range results {
		r := reqs[i]
		if checkServe(chk, r, res) {
			s.decided++
		}
	}
	s.path = pathOf(reqs, results[0])
	s.by = results[0].DecidedBy
	s.proveRace = reqs[0].req.Prove
	if len(reqs) == 1 {
		s.server = time.Duration(results[0].ElapsedMS) * time.Millisecond
	}
	return s
}

// checkServe checks one answer and reports whether it was decided.
// UNKNOWN and ERROR are failures, not wrong verdicts.
func checkServe(chk *checker, r *serveReq, res *service.JobResult) bool {
	if res == nil {
		return false
	}
	switch res.Status {
	case sebmc.Unknown.String(), service.StatusError:
		return false
	}
	if res.Status != r.status {
		chk.failf("%s: answered %s, want %s", r.label, res.Status, r.status)
		return true
	}
	if r.req.Deepen && res.FoundAt != r.foundAt {
		chk.failf("%s: found at %d, want exactly %d", r.label, res.FoundAt, r.foundAt)
	}
	if res.Status == sebmc.Reachable.String() && !res.WitnessValidated {
		chk.failf("%s: REACHABLE without a replayed witness", r.label)
	}
	if res.Status == sebmc.Safe.String() && r.req.Engine == "interp" && !res.CertificateValidated {
		chk.failf("%s: SAFE from interpolation without a replayed certificate", r.label)
	}
	return true
}

// pathOf labels how the service produced an answer.
func pathOf(reqs []*serveReq, res *service.JobResult) string {
	switch {
	case len(reqs) > 1:
		return "batch"
	case res.Cached && res.Terminal:
		return "terminal"
	case res.Cached:
		return "cached"
	case reqs[0].path != "":
		return reqs[0].path
	case res.SessionHit:
		return "resume"
	default:
		return "cold"
	}
}

// aag serializes a model the way a client ships it: the reduced circuit.
func aag(sys *model.System) string {
	var b strings.Builder
	// Writing to a strings.Builder cannot fail.
	_ = sebmc.WriteAIGER(sys.Reduce(), &b)
	return b.String()
}

// serveLayers reports the service-layer metrics shared by both serve
// workloads.
func serveLayers(m metrics, w *window, delta probe) {
	if q := delta["cache_hits"] + delta["cache_misses"]; q > 0 {
		m.set("service.cache_hit_rate", delta["cache_hits"]/q)
	}
	for i := range shardAddrs {
		h, ms := delta[fmt.Sprintf("shard%d.cache_hits", i)], delta[fmt.Sprintf("shard%d.cache_misses", i)]
		if h+ms > 0 {
			m.set(fmt.Sprintf("service.shard%d.cache_hit_rate", i), h/(h+ms))
		}
	}
	if q := delta["session_hits"] + delta["session_misses"]; q > 0 {
		m.set("service.session_hit_rate", delta["session_hits"]/q)
	}
	// Counters are per decided verdict: a faster service decides more
	// verdicts in a window, and a total would show that, not the layer.
	if _, decided := w.attempted(); decided > 0 {
		for name, key := range map[string]string{
			"service.bounds_skipped":    "bounds_skipped",
			"cluster.replicated_out":    "replicated_out",
			"cluster.replicate_dropped": "replicate_dropped",
			"cluster.hedges_fired":      "hedges_fired",
		} {
			m.set(name, delta[key]/float64(decided))
		}
	}
	// The proxy hop's cost: for each request sent both ways, its median
	// proxied round trip minus its median local one; then the median
	// over requests.
	type rtts struct{ owned, proxied []float64 }
	byKey := map[string]*rtts{}
	nOwned, nProxied := 0, 0
	for _, s := range w.samples {
		if s.verdicts != 1 {
			continue
		}
		r := byKey[s.key]
		if r == nil {
			r = &rtts{}
			byKey[s.key] = r
		}
		if s.owned {
			r.owned = append(r.owned, msOf(s.lat))
			nOwned++
		} else {
			r.proxied = append(r.proxied, msOf(s.lat))
			nProxied++
		}
	}
	if n := nOwned + nProxied; n > 0 {
		m.set("cluster.proxied_frac", float64(nProxied)/float64(n))
	}
	var extra []float64
	for _, r := range byKey {
		if len(r.owned) > 0 && len(r.proxied) > 0 {
			extra = append(extra, median(r.proxied)-median(r.owned))
		}
	}
	m.set("cluster.proxy_extra_ms.p50", median(extra))
}

// cacheGate fails the run when a window's verdict-cache hit rate is
// outside the workload's path mix.
func cacheGate(chk *checker, name string, delta probe, ok func(rate float64) bool) {
	q := delta["cache_hits"] + delta["cache_misses"]
	if q == 0 {
		return
	}
	if rate := delta["cache_hits"] / q; !ok(rate) {
		chk.failf("%s: verdict-cache hit rate %.4f is outside the workload's path mix", name, rate)
	}
}
