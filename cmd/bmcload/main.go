// Command bmcload is an open-loop traffic generator for bmcd: it fires
// checking requests at a fixed arrival rate (goroutine per arrival —
// a slow service does NOT slow the generator down, so queueing delay
// shows up in the numbers instead of being absorbed by a closed loop),
// with model popularity drawn from a zipf distribution over a
// deterministic corpus and a configurable mix of plain checks and
// deepen runs.
//
// Latency is measured from each request's INTENDED arrival time, so
// coordinated omission does not flatter the tail. The run's summary —
// p50/p99 latency, decided verdicts per second, error and lost counts,
// and each target shard's locality and replication counters — is
// appended as one JSON row to -out (default BENCH_9.json).
//
// Usage:
//
//	bmcload -targets http://host1:8080,http://host2:8080 \
//	        [-rate 50] [-duration 10s] [-models 32] [-zipf 1.2]
//	        [-bound-max 16] [-deepen 0.5] [-engine sat-incr]
//	        [-seed 1] [-label ""] [-out BENCH_9.json]
//	        [-kill-shard-after 0 -kill-shard-pid 0]
//
// Failover drill: -kill-shard-after 5s -kill-shard-pid N sends SIGKILL
// to process N that far into the generation window while traffic keeps
// flowing — the generator fails transport-refused requests over to the
// next target, and the row splits the latency tail at the kill mark
// (pre_kill_p99_ms / post_kill_p99_ms) so the cost of losing a shard is
// a number, not an anecdote.
//
// Against a cluster, every target is sprayed round-robin: the routing
// layer concentrates each model on its owning shard regardless of the
// entry point, which is exactly what the per-shard locality counters
// in the output prove (or disprove).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/service"
)

// factorTargets are primes well inside the width-10 product range
// (max 1023² = 1046529): prime means unreachable (no factorization
// exists), and "well inside" keeps the UNSAT proofs genuinely hard —
// targets near the top of the range fall to easy magnitude reasoning,
// these force the solver through the multiplier structure. That makes
// a cold re-solve cost hundreds of milliseconds while a warm proven
// prefix answers instantly, which is the gap the benchmark measures.
// Distinct targets give distinct model hashes.
var factorTargets = []uint64{
	249989, 250007, 250013, 250027, 250031, 250037, 250043, 250049,
	250051, 250057, 250073, 250091, 250109, 250123, 250147, 250153,
}

// corpusModel builds the i-th model of the deterministic corpus:
// unreachable-target factorizers (each bound a real UNSAT proof — the
// expensive-when-cold, cheap-when-warm workload) alternating with deep
// counters (large state depth, trivial solving — popularity filler).
// Every index below 2*len(factorTargets) yields a distinct model hash.
func corpusModel(i int) *model.System {
	if i%2 == 0 {
		return circuits.Factorizer(10, factorTargets[(i/2)%len(factorTargets)])
	}
	return circuits.DeepCounter(uint64(16 + 2*i))
}

func buildCorpus(n int) []string {
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		if err := corpusModel(i).Reduce().Circ.WriteAAG(&b); err != nil {
			log.Fatalf("bmcload: corpus model %d: %v", i, err)
		}
		out[i] = b.String()
	}
	return out
}

type sample struct {
	arrivalS  float64 // intended arrival offset from the run start
	latencyMS float64
	decided   bool
	status    string
	lost      bool // transport-level failure: no server answer at all
}

// shardStats is the per-target locality evidence captured at the end
// of a run.
type shardStats struct {
	URL            string  `json:"url"`
	Completed      int64   `json:"jobs_completed"`
	SessionHits    int64   `json:"session_hits"`
	SessionMisses  int64   `json:"session_misses"`
	SessionHitRate float64 `json:"session_hit_rate"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	SessionsLive   int     `json:"sessions_live"`
	OwnedServed    int64   `json:"owned_served,omitempty"`
	ForwardedIn    int64   `json:"forwarded_in,omitempty"`
	ShedServed     int64   `json:"shed_served,omitempty"`
	ReplicaServed  int64   `json:"replica_served,omitempty"`
	ReplicatedOut  int64   `json:"replicated_out,omitempty"`
	ReplicatedIn   int64   `json:"replicated_in,omitempty"`
	Unreachable    bool    `json:"unreachable,omitempty"`
}

// benchRow is one appended BENCH_9.json record.
type benchRow struct {
	Label      string    `json:"label,omitempty"`
	Timestamp  time.Time `json:"timestamp"`
	Targets    []string  `json:"targets"`
	Shards     int       `json:"shards"`
	RatePerS   float64   `json:"offered_rate_per_s"`
	DurationS  float64   `json:"duration_s"`
	Models     int       `json:"models"`
	ZipfS      float64   `json:"zipf_s"`
	BoundMax   int       `json:"bound_max"`
	DeepenFrac float64   `json:"deepen_frac"`
	Engine     string    `json:"engine"`
	Seed       int64     `json:"seed"`

	Requests    int     `json:"requests"`
	Decided     int     `json:"decided"`
	VerdictsPS  float64 `json:"verdicts_per_s"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	Unknown     int     `json:"unknown"`
	Errors      int     `json:"errors"`
	Rejected503 int     `json:"rejected_503"`
	Lost        int     `json:"lost"`

	// Failover drill accounting, present when -kill-shard-after fired:
	// the latency tail on either side of the kill mark.
	KillAfterS    float64 `json:"kill_shard_after_s,omitempty"`
	KilledPID     int     `json:"killed_pid,omitempty"`
	PreKillP99MS  float64 `json:"pre_kill_p99_ms,omitempty"`
	PostKillP99MS float64 `json:"post_kill_p99_ms,omitempty"`
	PostKillLost  int     `json:"post_kill_lost,omitempty"`

	PerShard []shardStats `json:"per_shard"`
	Note     string       `json:"note,omitempty"`
}

func main() {
	var (
		targetsStr = flag.String("targets", "http://localhost:8080", "comma-separated bmcd base URLs to spray round-robin")
		rate       = flag.Float64("rate", 50, "offered arrival rate, requests/second (open loop)")
		duration   = flag.Duration("duration", 10*time.Second, "generation window")
		models     = flag.Int("models", 32, "corpus size (distinct models)")
		zipfS      = flag.Float64("zipf", 1.2, "zipf skew s > 1 over model popularity")
		boundMax   = flag.Int("bound-max", 16, "maximum bound per request")
		deepenP    = flag.Float64("deepen", 0.5, "fraction of requests that are deepen runs")
		engineStr  = flag.String("engine", "sat-incr", "engine every request names")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		reqTimeout = flag.Duration("req-timeout", 60*time.Second, "per-request client deadline")
		label      = flag.String("label", "", "free-form row label")
		note       = flag.String("note", "", "free-form note recorded in the row")
		out        = flag.String("out", "BENCH_9.json", "JSON file to append the result row to (\"-\" = stdout only)")
		killAfter  = flag.Duration("kill-shard-after", 0, "SIGKILL -kill-shard-pid this far into the run (0 = never): failover drill")
		killPID    = flag.Int("kill-shard-pid", 0, "process to SIGKILL at the -kill-shard-after mark")
	)
	flag.Parse()
	if (*killAfter > 0) != (*killPID > 0) {
		log.Fatal("bmcload: -kill-shard-after and -kill-shard-pid must be set together")
	}

	targets := strings.Split(*targetsStr, ",")
	corpus := buildCorpus(*models)
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, *zipfS, 1, uint64(len(corpus)-1))

	// One shared transport: connection reuse across the whole run, with
	// room for every in-flight request of an open loop.
	tr := &http.Transport{MaxIdleConnsPerHost: 512}
	defer tr.CloseIdleConnections()
	clients := make([]*service.Client, len(targets))
	for i, u := range targets {
		clients[i] = &service.Client{
			BaseURL: strings.TrimRight(u, "/"),
			HTTP:    &http.Client{Transport: tr},
			// The generator's own samples should see the service's answer,
			// including 503s, not mask them behind long retry loops.
			MaxRetries:  1,
			BaseBackoff: 50 * time.Millisecond,
		}
	}

	interval := time.Duration(float64(time.Second) / *rate)
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	if *killAfter > 0 {
		go func() {
			time.Sleep(*killAfter)
			if err := syscall.Kill(*killPID, syscall.SIGKILL); err != nil {
				log.Printf("bmcload: SIGKILL pid %d: %v", *killPID, err)
				return
			}
			log.Printf("bmcload: SIGKILLed pid %d %.1fs into the run", *killPID, time.Since(start).Seconds())
		}()
	}
	n := 0
	for {
		arrival := start.Add(time.Duration(n) * interval)
		if arrival.Sub(start) >= *duration {
			break
		}
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		// Workload decisions come off the single seeded RNG, in arrival
		// order, so the offered request sequence is identical across runs
		// whatever the service's speed.
		mi := int(zipf.Uint64())
		req := service.CheckRequest{
			Model:  corpus[mi],
			Format: "aag",
			Bound:  1 + rng.Intn(*boundMax),
			Engine: *engineStr,
			Deepen: rng.Float64() < *deepenP,
		}
		entry := n % len(clients)
		wg.Add(1)
		go func(arrival time.Time, req service.CheckRequest, entry int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), *reqTimeout)
			defer cancel()
			res, err := clients[entry].Check(ctx, req)
			// A dead entry point (connection refused — e.g. a shard killed
			// mid-run) is not lost work: a load balancer would eject the
			// backend, so fail over to the next target. An APIError is a
			// real server answer and stands.
			for off := 1; off < len(clients) && err != nil; off++ {
				if _, isAPI := err.(*service.APIError); isAPI {
					break
				}
				res, err = clients[(entry+off)%len(clients)].Check(ctx, req)
			}
			s := sample{
				arrivalS:  arrival.Sub(start).Seconds(),
				latencyMS: float64(time.Since(arrival).Microseconds()) / 1000,
			}
			switch {
			case err == nil:
				s.status = res.Status
				s.decided = res.Status == "REACHABLE" || res.Status == "UNREACHABLE"
			default:
				if ae, ok := err.(*service.APIError); ok {
					s.status = fmt.Sprintf("HTTP %d", ae.StatusCode)
				} else {
					s.status = "LOST"
					s.lost = true
				}
			}
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}(arrival, req, entry)
		n++
	}
	wg.Wait()
	elapsed := time.Since(start)

	row := benchRow{
		Label:      *label,
		Timestamp:  time.Now().UTC(),
		Targets:    targets,
		Shards:     len(targets),
		RatePerS:   *rate,
		DurationS:  elapsed.Seconds(),
		Models:     *models,
		ZipfS:      *zipfS,
		BoundMax:   *boundMax,
		DeepenFrac: *deepenP,
		Engine:     *engineStr,
		Seed:       *seed,
		Requests:   len(samples),
		Note:       *note,
	}
	lats := make([]float64, 0, len(samples))
	for _, s := range samples {
		lats = append(lats, s.latencyMS)
		switch {
		case s.lost:
			row.Lost++
		case s.decided:
			row.Decided++
		case s.status == "UNKNOWN":
			row.Unknown++
		case strings.HasPrefix(s.status, "HTTP 503"):
			row.Rejected503++
		default:
			row.Errors++
		}
	}
	sort.Float64s(lats)
	row.P50MS = percentile(lats, 0.50)
	row.P99MS = percentile(lats, 0.99)
	if len(lats) > 0 {
		row.MaxMS = lats[len(lats)-1]
	}
	row.VerdictsPS = float64(row.Decided) / elapsed.Seconds()
	if *killAfter > 0 {
		row.KillAfterS = killAfter.Seconds()
		row.KilledPID = *killPID
		var pre, post []float64
		for _, s := range samples {
			if s.arrivalS < killAfter.Seconds() {
				pre = append(pre, s.latencyMS)
				continue
			}
			post = append(post, s.latencyMS)
			if s.lost {
				row.PostKillLost++
			}
		}
		sort.Float64s(pre)
		sort.Float64s(post)
		row.PreKillP99MS = percentile(pre, 0.99)
		row.PostKillP99MS = percentile(post, 0.99)
	}

	for i, c := range clients {
		st := shardStats{URL: targets[i]}
		if m, err := c.Metrics(context.Background()); err == nil {
			st.Completed = m.Completed
			st.SessionHits = m.Sessions.Hits
			st.SessionMisses = m.Sessions.Misses
			if tot := st.SessionHits + st.SessionMisses; tot > 0 {
				st.SessionHitRate = float64(st.SessionHits) / float64(tot)
			}
			st.CacheHitRate = m.Cache.HitRate
			st.SessionsLive = m.Sessions.Live
			if m.Cluster != nil {
				st.OwnedServed = m.Cluster.OwnedServed
				st.ForwardedIn = m.Cluster.ForwardedIn
				st.ShedServed = m.Cluster.ShedServed
				st.ReplicaServed = m.Cluster.ReplicaServed
				st.ReplicatedOut = m.Cluster.Replication.ReplicatedOut
				st.ReplicatedIn = m.Cluster.Replication.ReplicatedIn
			}
		} else {
			// A killed shard answers nothing; the row should say so
			// rather than quietly report zeros.
			st.Unreachable = true
		}
		row.PerShard = append(row.PerShard, st)
	}

	pretty, _ := json.MarshalIndent(row, "", "  ")
	fmt.Println(string(pretty))
	if *out != "-" {
		if err := appendRow(*out, row); err != nil {
			log.Fatalf("bmcload: %s: %v", *out, err)
		}
		log.Printf("bmcload: appended row to %s (%d requests, %.1f verdicts/s, p50 %.1fms p99 %.1fms, lost %d)",
			*out, row.Requests, row.VerdictsPS, row.P50MS, row.P99MS, row.Lost)
	}
}

// percentile reads the p-quantile (nearest-rank) off a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// appendRow appends one record to the JSON array in path (created if
// missing).
func appendRow(path string, row benchRow) error {
	var rows []benchRow
	if raw, err := os.ReadFile(path); err == nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, &rows); err != nil {
			return fmt.Errorf("existing file is not a JSON array of rows: %w", err)
		}
	}
	rows = append(rows, row)
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
