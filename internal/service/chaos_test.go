package service

// TestServiceChaos is the crash-containment acceptance test: a
// randomized storm of mixed requests against a server with armed
// faultpoints, run under -race in CI. The invariants, checked on every
// single response:
//
//   - no wrong verdict, ever: every decided answer is compared against
//     the explicit-state oracle — an injected fault may cost an answer
//     (ERROR, UNKNOWN, 503) but may never corrupt one;
//   - /healthz stays answerable throughout the storm;
//   - a (model, engine) key driven into quarantine heals after the
//     fault is fixed and the TTL passes;
//   - a client that closes its request mid-solve cancels the check,
//     which counts as cancelled, not timed out;
//   - a drain started mid-chaos exits cleanly, and the goroutine count
//     settles back to the baseline (newTestServer's cleanup asserts
//     both).

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/faultpoint"
)

// squaringRound returns the first bound the squaring encoding can
// express that is >= b: 0 and 1 are expressible, anything else rounds
// up to the next power of two. It is the oracle-side mirror of the
// engine's documented round-up contract.
func squaringRound(b int) int {
	if b <= 1 {
		return b
	}
	p := 1
	for p < b {
		p *= 2
	}
	return p
}

// chaosVerify checks one response against the oracle's precomputed
// answers (the explicit.Checker itself shares evaluator scratch space
// and is not goroutine-safe; the storm workers are many). 503 is the
// degradation ladder doing its job; UNKNOWN and ERROR are contained
// failures; decided answers must match the oracle exactly.
func chaosVerify(t *testing.T, req CheckRequest, code int, res *JobResult, exact []bool, shortest int) {
	switch code {
	case http.StatusServiceUnavailable:
		return
	case http.StatusOK:
	default:
		t.Errorf("chaos: HTTP %d for %+v", code, req)
		return
	}
	if res == nil {
		t.Errorf("chaos: HTTP 200 with no result for %+v", req)
		return
	}
	switch res.Status {
	case "UNKNOWN", StatusError:
		return
	}
	if req.Deepen {
		// Deepen finds the shortest counterexample depth under either
		// semantics: the minimal k with an exact-k path to bad is the
		// shortest path length. The one documented exception is
		// qbf-squaring, whose schedule only answers 0,1,2,4,8,…:
		// FoundAt is the first scheduled bound covering the
		// counterexample, and a counterexample past the last scheduled
		// power comes back UNKNOWN, never a guess.
		switch res.Status {
		case "REACHABLE":
			if shortest == -1 || shortest > req.Bound {
				t.Errorf("WRONG VERDICT: deepen bound=%d REACHABLE, oracle shortest=%d (engine %q sched %q)",
					req.Bound, shortest, req.Engine, req.Schedule)
				return
			}
			want := shortest
			if req.Engine == "qbf-squaring" {
				want = squaringRound(shortest)
			}
			if res.FoundAt != want {
				t.Errorf("WRONG VERDICT: deepen bound=%d found_at=%d, oracle shortest=%d want found_at=%d (engine %q sched %q)",
					req.Bound, res.FoundAt, shortest, want, req.Engine, req.Schedule)
			}
		case "UNREACHABLE":
			if shortest != -1 && shortest <= req.Bound {
				t.Errorf("WRONG VERDICT: deepen bound=%d UNREACHABLE, oracle shortest=%d (engine %q sched %q)",
					req.Bound, shortest, req.Engine, req.Schedule)
			}
		}
		return
	}
	// A plain check answers the question as asked — except qbf-squaring
	// at a non-power-of-two bound, which (documented facade contract)
	// answers at the next power of two under at-most semantics, with
	// found_at reporting the bound actually checked.
	bound, sem := req.Bound, req.Semantics
	if req.Engine == "qbf-squaring" && bound != squaringRound(bound) {
		bound, sem = squaringRound(bound), "atmost"
	}
	var want bool
	if sem == "atmost" {
		want = shortest != -1 && shortest <= bound
	} else {
		want = exact[bound]
	}
	if got := res.Status == "REACHABLE"; got != want {
		t.Errorf("WRONG VERDICT: plain bound=%d sem=%q %s, oracle says reachable=%v (engine %q)",
			req.Bound, req.Semantics, res.Status, want, req.Engine)
	}
}

// TestServiceChaosClustered is the chaos storm with the router in
// front: the same armed faultpoints and oracle differential as
// TestServiceChaos, but every request enters through one of two
// clustered shards, so panics, contained errors, and admission
// rejections now happen on both sides of a proxy hop — and a bounced
// forward must shed to a shard that still answers correctly, never
// relay a corrupt verdict. A mid-storm drain of one shard rides along
// (its replication queue flushes while faults are still armed), and
// the cluster cleanup asserts the usual zero-leak settle across gossip
// loops, proxy transports, and the replication worker.
func TestServiceChaosClustered(t *testing.T) {
	defer faultpoint.Reset()
	seed := time.Now().UnixNano()
	t.Logf("clustered chaos seed %d (storm is randomized; reproduce by hardcoding the seed)", seed)

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

	servers, urls := newTestCluster(t, 2, Config{
		Workers:             2,
		QueueDepth:          128,
		QuarantineThreshold: 4,
		QuarantineTTL:       50 * time.Millisecond,
		MaxTimeout:          2 * time.Second,
	})

	// One-shot faults across the layers the routed path traverses.
	// Faultpoints are process-global, so each fires on whichever shard
	// hits the site first — entry or owner side of the proxy hop. The
	// warm-failover sites ride along: a panic in the replication worker
	// must be contained there (the worker survives), and a blackholed
	// repair pull must leave the divergence for a later tick — neither
	// may corrupt an answer or kill a goroutine the cleanup's settle
	// would catch.
	faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 41})
	faultpoint.Arm("sat.analyze", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 7})
	faultpoint.Arm("service.cache.put", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 5})
	faultpoint.Arm("service.session.build", faultpoint.Schedule{Kind: faultpoint.KindError, On: 3})
	faultpoint.Arm("service.witness.validate", faultpoint.Schedule{Kind: faultpoint.KindError, On: 9})
	faultpoint.Arm("service.queue.admit", faultpoint.Schedule{Kind: faultpoint.KindError, On: 17})
	faultpoint.Arm("service.replicate.send", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 2})
	faultpoint.Arm("service.repair.pull", faultpoint.Schedule{Kind: faultpoint.KindError, On: 1})

	engines := []string{"", "sat", "sat-incr"}
	const stormRequests = 140
	const stormWorkers = 6

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
					Model:   srcs[si],
					Format:  "aag",
					Bound:   rng.Intn(7),
					Engine:  engines[rng.Intn(len(engines))],
					Witness: rng.Intn(2) == 0,
				}
				if rng.Intn(3) == 0 {
					req.Deepen = true
					if rng.Intn(2) == 0 {
						req.Schedule = "geometric"
					}
				} else if rng.Intn(2) == 0 {
					req.Semantics = "atmost"
				}
				var st checkResponse
				code := postJSON(t, urls[i%2]+"/v1/check", req, &st)
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
				drain(t, servers[1]) // mid-storm, faults still armed
			}
		}
		close(work)
	}()
	<-done
	wg.Wait()

	// The faults fired somewhere in the cluster and were contained
	// there; the survivor is still healthy and serving the keyspace.
	m0, m1 := servers[0].Metrics(), servers[1].Metrics()
	if m0.PanicsRecovered+m1.PanicsRecovered < 1 {
		t.Errorf("no panic recovered anywhere in the cluster (shard0 %d, shard1 %d) after a storm of armed panics",
			m0.PanicsRecovered, m1.PanicsRecovered)
	}
	var hb healthBody
	if code := getJSON(t, urls[0]+"/healthz", &hb); code != http.StatusOK || hb.Status != "ok" {
		t.Errorf("survivor healthz after clustered chaos: HTTP %d %q", code, hb.Status)
	}
	t.Logf("clustered chaos: shard0 completed=%d panics=%d owned=%d shed=%d fwd_in=%d; shard1 completed=%d panics=%d",
		m0.Completed, m0.PanicsRecovered, m0.Cluster.OwnedServed, m0.Cluster.ShedServed, m0.Cluster.ForwardedIn,
		m1.Completed, m1.PanicsRecovered)
	t.Logf("clustered chaos replication: shard0 %+v; shard1 %+v", m0.Cluster.Replication, m1.Cluster.Replication)
}

func TestServiceChaos(t *testing.T) {
	defer faultpoint.Reset()
	seed := time.Now().UnixNano()
	t.Logf("chaos seed %d (storm is randomized; reproduce by hardcoding the seed)", seed)

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
		// Precompute every exact-k answer the storm can ask about: the
		// checker itself is single-threaded scratch space.
		exact[i] = make([]bool, 9)
		for k := range exact[i] {
			exact[i][k] = oracle.ReachableExact(k)
		}
	}

	s, url := newTestServer(t, Config{
		Workers:             4,
		QueueDepth:          256,
		DefaultEngine:       sebmc.EnginePortfolio,
		QuarantineThreshold: 4,
		QuarantineTTL:       50 * time.Millisecond,
		// Every no-budget request gets exactly this cap. It is what keeps
		// the storm's hard qbf queries (a non-power-of-two deepen now
		// really probes the rounded-up bound) from stalling a worker:
		// they come back UNKNOWN, which the oracle accepts.
		MaxTimeout: 2 * time.Second,
	})

	// Phase 1: the storm, with one-shot faults spread across every
	// layer — solver panics, solver budget errors, a failing session
	// builder, a panicking cache, a broken witness replayer, and one
	// admission rejection. One-shots keep most traffic flowing while
	// proving each containment path at least exists; the repeat-fault
	// case is phase 2's job.
	faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 123})
	faultpoint.Arm("sat.analyze", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 3})
	faultpoint.Arm("jsat.query", faultpoint.Schedule{Kind: faultpoint.KindError, On: 77})
	faultpoint.Arm("qbf.node", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 211})
	faultpoint.Arm("service.cache.put", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 5})
	faultpoint.Arm("service.witness.validate", faultpoint.Schedule{Kind: faultpoint.KindError, On: 9})
	faultpoint.Arm("service.session.build", faultpoint.Schedule{Kind: faultpoint.KindError, On: 2})
	faultpoint.Arm("service.queue.admit", faultpoint.Schedule{Kind: faultpoint.KindError, On: 31})

	engines := []string{"", "sat", "sat-incr", "jsat", "qbf-linear", "qbf-squaring", "portfolio"}
	const stormRequests = 224
	const stormWorkers = 8

	healthStop := make(chan struct{})
	var healthWG sync.WaitGroup
	healthWG.Add(1)
	go func() {
		defer healthWG.Done()
		for {
			select {
			case <-healthStop:
				return
			default:
			}
			var hb healthBody
			if code := getJSON(t, url+"/healthz", &hb); code != http.StatusOK || hb.Status != "ok" {
				t.Errorf("healthz unanswerable mid-chaos: HTTP %d %q", code, hb.Status)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	work := make(chan struct{})
	for w := 0; w < stormWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w))) // rand.Rand is not goroutine-safe; one per worker
			for range work {
				si := rng.Intn(len(systems))
				req := CheckRequest{
					Model:   srcs[si],
					Format:  "aag",
					Bound:   rng.Intn(9),
					Engine:  engines[rng.Intn(len(engines))],
					Witness: rng.Intn(2) == 0,
				}
				if rng.Intn(3) == 0 {
					req.Deepen = true
					if rng.Intn(2) == 0 {
						req.Schedule = "geometric"
					}
				} else if rng.Intn(2) == 0 {
					req.Semantics = "atmost"
				}
				if rng.Intn(6) == 0 {
					req.TimeoutMS = 1 + rng.Intn(30)
				}
				var st checkResponse
				code := postJSON(t, url+"/v1/check", req, &st)
				chaosVerify(t, req, code, st.Result, exact[si], shortest[si])
			}
		}(w)
	}
	for i := 0; i < stormRequests; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()

	// Phase 2: drive one (model, engine) key into quarantine with a
	// repeat panic, then fix the fault and prove the key heals through
	// a half-open probe.
	faultpoint.Reset()
	faultpoint.Arm("jsat.query", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 1, Repeat: true})
	// Bound 9 is outside the storm's 0..8 range, so this exact question
	// is never in the verdict cache and every attempt reaches the solver.
	doomed := CheckRequest{Model: srcs[0], Format: "aag", Bound: 9, Engine: "jsat", Semantics: "atmost"}
	sawQuarantine := false
	for i := 0; i < 16 && !sawQuarantine; i++ {
		var st checkResponse
		switch code := postJSON(t, url+"/v1/check", doomed, &st); code {
		case http.StatusServiceUnavailable:
			sawQuarantine = true
		case http.StatusOK:
			if st.Result == nil || st.Result.Status != StatusError {
				t.Fatalf("doomed request %d: want ERROR or 503, got %+v", i, st.Result)
			}
		default:
			t.Fatalf("doomed request %d: HTTP %d", i, code)
		}
	}
	if !sawQuarantine {
		t.Fatal("repeat-panicking key never hit quarantine")
	}
	faultpoint.Reset()
	healDeadline := time.Now().Add(10 * time.Second)
	for {
		var st checkResponse
		code := postJSON(t, url+"/v1/check", doomed, &st)
		if code == http.StatusOK && st.Result != nil && st.Result.Status == "REACHABLE" {
			break // the half-open probe decided; the key is clean again
		}
		if time.Now().After(healDeadline) {
			t.Fatalf("quarantined key never healed after the fault was fixed (last: HTTP %d %+v)", code, st.Result)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Cancellations: a client that closes its request while the check
	// runs cancels it. ParityGuard under jSAT at this bound outlasts the
	// 2 s cap, so only the disconnect finishes these checks early, and
	// each counts as cancelled, not timed out.
	before := s.Metrics()
	pg, err := json.Marshal(CheckRequest{Model: aagSource(t, circuits.ParityGuard(10)), Format: "aag", Bound: 8, Engine: "jsat"})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/check", bytes.NewReader(pg))
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		waitUntil(t, 30*time.Second, "the check to start", func() bool {
			return s.Metrics().Submitted == before.Submitted+i && len(s.queue) == 0
		})
		cancel()
		if err := <-errc; err == nil {
			t.Fatalf("closed request %d was answered", i)
		}
	}
	waitUntil(t, 30*time.Second, "the closed checks to be cancelled", func() bool {
		return s.Metrics().Cancelled == before.Cancelled+4
	})
	if m := s.Metrics(); m.TimedOut != before.TimedOut {
		t.Fatalf("closed checks timed out (%d -> %d) instead of being cancelled", before.TimedOut, m.TimedOut)
	}

	close(healthStop)
	healthWG.Wait()

	m := s.Metrics()
	if m.PanicsRecovered < 1 {
		t.Fatalf("panics_recovered = %d after a storm of armed panics, want >= 1", m.PanicsRecovered)
	}
	t.Logf("chaos: %d completed, %d rejected, %d panics recovered, %d internal errors, quarantine opened %d",
		m.Completed, m.Rejected, m.PanicsRecovered, m.InternalErrors, m.Quarantine.Opened)

	// Phase 3: drain mid-chaos. A tail storm keeps posting while Drain
	// runs; in-flight wait requests finish, late posts get 503, and
	// Drain returns cleanly. The test-server cleanup then re-drains
	// (idempotent) and asserts the goroutine count settles — the
	// zero-leak invariant.
	stop := make(chan struct{})
	var tail sync.WaitGroup
	for w := 0; w < 4; w++ {
		tail.Add(1)
		go func(w int) {
			defer tail.Done()
			rng := rand.New(rand.NewSource(seed - 1 - int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				si := rng.Intn(len(systems))
				req := CheckRequest{Model: srcs[si], Format: "aag", Bound: rng.Intn(9), Semantics: "atmost"}
				var st checkResponse
				code := postJSON(t, url+"/v1/check", req, &st)
				chaosVerify(t, req, code, st.Result, exact[si], shortest[si])
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the tail storm engage
	drain(t, s)                       // must exit cleanly with requests still arriving
	close(stop)
	tail.Wait()

	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: srcs[0], Format: "aag", Bound: 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: HTTP %d, want 503", code)
	}
	var hb healthBody
	if code := getJSON(t, url+"/healthz", &hb); code != http.StatusServiceUnavailable || hb.Status != "draining" {
		t.Fatalf("post-drain healthz: HTTP %d %q, want 503 draining", code, hb.Status)
	}
}
