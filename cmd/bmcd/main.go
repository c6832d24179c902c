// Command bmcd runs the bounded-model-checking service: an HTTP/JSON
// front end that keeps the sebmc engines warm — a bounded job queue
// over a worker pool, a verdict cache, and persistent solver sessions
// so repeated models at deeper bounds resume instead of starting cold.
// A fixed-capacity model memo maps each model text the server has
// parsed to its content hash, so a verdict-cache hit costs a digest and
// a lookup, not a parse; the model is parsed only on a cache miss. A
// hit is answered by the request handler itself, with no queue slot and
// no worker.
//
// Usage:
//
//	bmcd [-addr :8080] [-workers N] [-queue 64]
//	     [-cache-mb 16] [-session-mb 64] [-engine portfolio]
//	     [-schedule linear|geometric] [-max-timeout-ms 0]
//	     [-mem-high-water-mb 0] [-quarantine 3] [-quarantine-ttl 30s]
//	     [-cluster-self URL -cluster-shards URL,URL,...]
//	     [-gossip-interval 1s]
//
// Cluster mode: give every shard the same -cluster-shards list (its own
// advertised URL included) and its own -cluster-self. Each model then
// has exactly one owning shard (rendezvous hashing on the model's
// content hash). A shard answers a verdict-cache hit itself, from its
// own cache, replicated verdicts included; a miss it does not own it
// proxies to the owner, so clients may talk to any shard. Shards gossip
// health over GET /v1/cluster/health and shed traffic around draining or
// saturated peers; a proxied request that its owner bounces walks on to
// the next preference, and one its owner holds past the request's
// deadline is served by the shard that received it. Fresh verdicts
// replicate write-behind to every peer, so a kill -9 of the owner still
// gets warm answers from the survivor. A shard pulls a peer's whole
// verdict cache when it first hears from the peer after starting, and
// again when the peer reports dropping a push meant for it, so a
// restarted shard catches up on what it missed. Replication is also how
// a SIGTERM drain hands warm state over: the drain flushes the
// replication queue, and the next owner resumes each key's proven
// prefix from the replicated deepen verdicts. See the README's "Running
// a cluster" and "Failure and recovery" sections.
//
// The BMCD_FAULTPOINTS environment variable arms fault-injection sites
// for chaos drills (e.g. "sat.propagate=panic@3"); see
// internal/faultpoint. Production runs leave it unset: every site is
// then a single atomic load.
//
// Endpoints (all JSON): POST /v1/check, POST /v1/batch, GET /metrics,
// GET /healthz. A check answers on the connection that sent it, and a
// client that disconnects first cancels it. See the README's "Running
// as a service" section for a worked curl session.
//
// Terminal verdicts: a check with {"prove":true} or {"engine":"interp"}
// can answer SAFE — safe at every depth, with a replayable invariant
// certificate — which is cached under a bound-free key and replicated
// like any verdict (receivers re-check the certificate by substitution
// before adopting). Once a model has a terminal verdict, the "bound"
// field of later requests is advisory: any bound answers from cache in
// one lookup (the /metrics verdict_cache.terminal_hits counter).
//
// On SIGTERM or SIGINT the server drains gracefully: new submissions
// are rejected with 503, queued and in-flight jobs run to completion,
// then the process exits 0. A second signal aborts immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	sebmc "repro"
	"repro/internal/faultpoint"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "job workers (0 = one per CPU)")
		queue     = flag.Int("queue", 64, "bounded job-queue depth")
		cacheMB   = flag.Int("cache-mb", 16, "verdict cache budget in MiB (0 or negative disables)")
		sessionMB = flag.Int("session-mb", 64, "warm-session budget in MiB (0 or negative disables)")
		engineStr = flag.String("engine", "portfolio", "default engine for requests that name none (interp enables terminal SAFE verdicts)")
		schedStr  = flag.String("schedule", "linear", "default deepening schedule for requests that name none: linear or geometric")
		drainWait = flag.Duration("drain-timeout", 60*time.Second, "max time to finish in-flight jobs on shutdown")
		maxTOMS   = flag.Int("max-timeout-ms", 0, "server-side cap on per-request solving budget in ms (0 = uncapped)")
		highWater = flag.Int("mem-high-water-mb", 0, "overload watermark in MiB over sessions+cache: shed idle sessions, then 503 (0 disables)")
		quarN     = flag.Int("quarantine", 3, "internal errors per (model, engine) before the key is quarantined (negative disables)")
		quarTTL   = flag.Duration("quarantine-ttl", 30*time.Second, "how long a quarantined key is rejected before a half-open probe")

		clusterSelf   = flag.String("cluster-self", "", "this shard's advertised base URL (must appear in -cluster-shards); empty = standalone")
		clusterShards = flag.String("cluster-shards", "", "comma-separated shard base URLs, this shard included; identical on every shard")
		gossipEvery   = flag.Duration("gossip-interval", time.Second, "peer health poll period")
	)
	flag.Parse()

	if spec := os.Getenv("BMCD_FAULTPOINTS"); spec != "" {
		if err := faultpoint.ArmFromEnv(spec); err != nil {
			log.Fatalf("bmcd: BMCD_FAULTPOINTS: %v", err)
		}
		log.Printf("bmcd: fault injection ARMED: %s (chaos drill, not a production server)", spec)
	}

	engine, err := sebmc.ParseEngine(*engineStr)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := sebmc.ParseSchedule(*schedStr)
	if err != nil {
		log.Fatal(err)
	}
	// 0 explicitly disables: Config treats 0 as "use the default", so
	// an operator sizing a cache to zero must map to the disabled
	// sentinel, not silently get 16/64 MiB back.
	mb := func(v int) int {
		if v <= 0 {
			return -1
		}
		return v << 20
	}
	hw := 0 // watermark: 0 already means disabled, no sentinel needed
	if *highWater > 0 {
		hw = *highWater << 20
	}
	srv := service.New(service.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheBytes:          mb(*cacheMB),
		SessionBytes:        mb(*sessionMB),
		DefaultEngine:       engine,
		DefaultSchedule:     sched,
		MaxTimeout:          time.Duration(*maxTOMS) * time.Millisecond,
		MemHighWater:        hw,
		QuarantineThreshold: *quarN,
		QuarantineTTL:       *quarTTL,
	})

	if *clusterShards != "" {
		if *clusterSelf == "" {
			log.Fatal("bmcd: -cluster-shards requires -cluster-self")
		}
		cc := service.ClusterConfig{
			Self:           *clusterSelf,
			Shards:         strings.Split(*clusterShards, ","),
			GossipInterval: *gossipEvery,
		}
		if err := srv.JoinCluster(cc); err != nil {
			log.Fatal(err)
		}
		log.Printf("bmcd: cluster shard %s of %d", *clusterSelf, len(cc.Shards))
	} else if *clusterSelf != "" {
		log.Fatal("bmcd: -cluster-self requires -cluster-shards")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// Header/read/idle timeouts keep a slow or stalled client from
	// pinning a connection forever; no WriteTimeout, because a check
	// legitimately holds its response for the whole solve.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	// Goroutine baseline for the leak report, taken after the signal
	// machinery has spun up its resident goroutine.
	baseline := runtime.NumGoroutine()
	log.Printf("bmcd: listening on %s (default engine %s)", ln.Addr(), engine)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case sig := <-sigs:
		log.Printf("bmcd: %v received, draining (in-flight jobs finish, new submissions get 503)", sig)
	case err := <-serveErr:
		log.Fatalf("bmcd: serve: %v", err)
	}
	// A second signal aborts without draining: restore the default
	// handlers (this also avoids a watcher goroutine that would read as
	// a leak in the exit accounting below).
	signal.Reset(syscall.SIGTERM, syscall.SIGINT)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Fatalf("bmcd: drain did not finish in %v: %v", *drainWait, err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Fatalf("bmcd: http shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("bmcd: serve: %v", err)
	}

	m := srv.Metrics()
	log.Printf("bmcd: drained cleanly: %d jobs completed, %d rejected, cache hit rate %.2f, peak solver bytes %d",
		m.Completed, m.Rejected, m.Cache.HitRate, m.PeakSolverBytes)
	log.Printf("bmcd: leaked goroutines: %d", leakedGoroutines(baseline))
	fmt.Println("bmcd: shutdown complete")
}

// leakedGoroutines waits briefly for the goroutine count to settle back
// to the pre-serve baseline and reports the overshoot — 0 on a clean
// drain. The count is logged so the CI smoke test can assert on it.
func leakedGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		leaked := runtime.NumGoroutine() - baseline
		if leaked <= 0 || time.Now().After(deadline) {
			if leaked < 0 {
				leaked = 0
			}
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}
