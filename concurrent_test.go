package sebmc_test

// Tests for the concurrency layer: the portfolio engine and the
// CheckMany/DeepenMany batch runners. Everything here is written to be
// meaningful under -race — mixed SAT/UNSAT workloads hammered through
// the worker pool, every answer checked against the explicit-state
// oracle, and goroutine counts checked before/after to prove that
// cancelled losers actually stopped rather than leaking. CI runs these
// with -race -count=5 to shake out flaky interleavings (the job greps
// for the TestPortfolio prefix; keep it when adding tests).

import (
	"runtime"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/explicit"
)

// settleGoroutines waits for the goroutine count to drop back to the
// baseline and fails the test if it does not: a higher count means a
// cancelled solver is still running.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// mixedSuite is a small workload with both reachable and unreachable
// instances, deterministic and random, all within the explicit oracle's
// reach.
func mixedSuite() []*sebmc.System {
	systems := []*sebmc.System{
		circuits.Counter(3, 5),       // cex at k=5
		circuits.CounterEnable(2, 2), // cex at k>=2
		circuits.TokenRing(5),        // cex at k=4, then every 5
		circuits.TrafficLight(2),     // safe at every bound
		circuits.FIFO(2),             // queue overflow
		circuits.Handshake(2),        // safe
	}
	for seed := int64(900); seed < 906; seed++ {
		systems = append(systems, circuits.RandomAIG(seed, 1+int(seed%3), 2+int(seed%4), 4+int(seed%15), 2))
	}
	return systems
}

// TestPortfolioStressCheckManyAgainstOracle is the headline stress test
// of the concurrency subsystem: a mixed SAT/UNSAT batch of portfolio
// checks races 3 engines per query across a work-stealing pool, every
// status must match the explicit-state oracle, every witness must
// replay, and no goroutine may survive the batch.
func TestPortfolioStressCheckManyAgainstOracle(t *testing.T) {
	before := runtime.NumGoroutine()
	systems := mixedSuite()

	const maxK = 8
	var jobs []sebmc.Job
	for _, sys := range systems {
		for k := 0; k <= maxK; k++ {
			jobs = append(jobs, sebmc.Job{Sys: sys, K: k, Engine: sebmc.EnginePortfolio})
		}
	}
	results := sebmc.CheckMany(jobs, 8)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}

	// Verify sequentially against the oracle (one checker per system).
	oracles := make(map[*sebmc.System]*explicit.Checker, len(systems))
	for _, sys := range systems {
		oracles[sys] = explicit.New(sys)
	}
	for i, r := range results {
		j := jobs[i]
		if r.K != j.K {
			t.Fatalf("job %d (%s k=%d): result is for k=%d — ordering broken", i, j.Sys.Name, j.K, r.K)
		}
		want := oracles[j.Sys].ReachableExact(j.K)
		if r.Status == sebmc.Unknown {
			t.Fatalf("job %d (%s k=%d): portfolio returned Unknown without a budget", i, j.Sys.Name, j.K)
		}
		if got := r.Status == sebmc.Reachable; got != want {
			t.Fatalf("job %d (%s k=%d): portfolio says %v, oracle says reachable=%v (decided by %s)",
				i, j.Sys.Name, j.K, r.Status, want, r.DecidedBy)
		}
		if r.DecidedBy == "" {
			t.Fatalf("job %d (%s k=%d): decisive result not tagged with a winner", i, j.Sys.Name, j.K)
		}
		if r.Status == sebmc.Reachable {
			if r.Witness == nil {
				t.Fatalf("job %d (%s k=%d): Reachable without witness (decided by %s)", i, j.Sys.Name, j.K, r.DecidedBy)
			}
			if err := r.Witness.Validate(r.System); err != nil {
				t.Fatalf("job %d (%s k=%d): witness from %s does not replay: %v", i, j.Sys.Name, j.K, r.DecidedBy, err)
			}
		}
	}
	settleGoroutines(t, before)
}

// TestPortfolioSingleCheckMatchesOracle runs the portfolio engine
// directly (no batch layer) over a family with both outcomes.
func TestPortfolioSingleCheckMatchesOracle(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := circuits.Counter(4, 9)
	oracle := explicit.New(sys)
	for k := 6; k <= 11; k++ {
		r := sebmc.Check(sys, k, sebmc.EnginePortfolio, sebmc.Options{})
		want := oracle.ReachableExact(k)
		if (r.Status == sebmc.Reachable) != want || r.Status == sebmc.Unknown {
			t.Fatalf("k=%d: portfolio=%v oracle=%v", k, r.Status, want)
		}
		if r.Status == sebmc.Reachable {
			if err := r.Witness.Validate(r.System); err != nil {
				t.Fatalf("k=%d: witness does not replay: %v", k, err)
			}
		}
	}
	settleGoroutines(t, before)
}

// TestPortfolioDeepen races whole deepening runs and must find the
// shortest counterexample with a replayable witness.
func TestPortfolioDeepen(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := circuits.Counter(4, 9)
	d := sebmc.Deepen(sys, 16, sebmc.EnginePortfolio, sebmc.Options{})
	if d.Status != sebmc.Reachable || d.FoundAt != 9 {
		t.Fatalf("portfolio deepen: %v found at %d, want Reachable at 9", d.Status, d.FoundAt)
	}
	if d.DecidedBy == "" {
		t.Fatalf("portfolio deepen result not tagged with a winner")
	}
	if d.Witness == nil {
		t.Fatalf("portfolio deepen lost the witness (won by %s)", d.DecidedBy)
	}
	if err := d.Witness.Validate(d.System); err != nil {
		t.Fatalf("portfolio deepen witness does not replay: %v", err)
	}
	settleGoroutines(t, before)
}

// TestPortfolioDeepenMany exercises the batch deepening runner with
// per-item engines, checking ordering and ground truth.
func TestPortfolioDeepenMany(t *testing.T) {
	before := runtime.NumGoroutine()
	jobs := []sebmc.Job{
		{Sys: circuits.Counter(3, 5), K: 10, Engine: sebmc.EnginePortfolio},
		{Sys: circuits.TrafficLight(2), K: 6, Engine: sebmc.EnginePortfolio},
		{Sys: circuits.TokenRing(5), K: 10, Engine: sebmc.EngineSATIncr},
		{Sys: circuits.CounterEnable(2, 2), K: 10, Engine: sebmc.EnginePortfolio},
	}
	wantFound := []int{5, -1, 4, 2}
	results := sebmc.DeepenMany(jobs, 2)
	for i, d := range results {
		if d.FoundAt != wantFound[i] {
			t.Fatalf("job %d (%s): found at %d, want %d (status %v, by %s)",
				i, jobs[i].Sys.Name, d.FoundAt, wantFound[i], d.Status, d.DecidedBy)
		}
		if d.Witness != nil {
			if err := d.Witness.Validate(d.System); err != nil {
				t.Fatalf("job %d: witness does not replay: %v", i, err)
			}
		}
	}
	settleGoroutines(t, before)
}

// TestPortfolioLosersAreCancelled pins the point of the cancellation
// layer: ParityGuard's 2^10-wide fan-out makes jSAT's DFS effectively
// non-terminating at this bound, while the unrolled SAT engines refute
// it in milliseconds. The portfolio must return the fast engines'
// answer and actually stop the DFS — if cancellation were broken, the
// race would sit joined on jSAT far beyond the test's patience, and the
// goroutine check would report the leak.
func TestPortfolioLosersAreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := circuits.ParityGuard(10)
	start := time.Now()
	r := sebmc.Check(sys, 8, sebmc.EnginePortfolio, sebmc.Options{})
	elapsed := time.Since(start)
	if r.Status != sebmc.Unreachable {
		t.Fatalf("ParityGuard k=8: %v (decided by %s), want Unreachable", r.Status, r.DecidedBy)
	}
	if r.DecidedBy == "jsat" {
		t.Fatalf("jsat cannot plausibly win on ParityGuard; result tagging is broken")
	}
	// Generous bound: the winner needs milliseconds; only a jSAT run
	// surviving cancellation could push the join anywhere near this.
	if elapsed > 60*time.Second {
		t.Fatalf("portfolio took %v — cancelled loser kept running", elapsed)
	}
	settleGoroutines(t, before)
}

// TestPortfolioParentCancelAbortsBatch shares one parent flag across a
// batch of combinatorially hard jobs and cancels it mid-flight: the
// whole batch must come back promptly and fully populated.
func TestPortfolioParentCancelAbortsBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	parent := sebmc.NewCancelFlag()
	hard := circuits.Factorizer(28, 268140589)
	var jobs []sebmc.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, sebmc.Job{
			Sys: hard, K: 1, Engine: sebmc.EnginePortfolio,
			Opts: sebmc.Options{Cancel: sebmc.DeriveCancel(parent)},
		})
	}
	done := make(chan []sebmc.Result, 1)
	go func() { done <- sebmc.CheckMany(jobs, 3) }()
	time.Sleep(30 * time.Millisecond)
	parent.Set()
	select {
	case results := <-done:
		if len(results) != len(jobs) {
			t.Fatalf("cancelled batch returned %d results for %d jobs", len(results), len(jobs))
		}
		for i, r := range results {
			// A fast machine may legitimately decide an instance before
			// the cancel lands; what is forbidden is a wrong answer.
			if r.Status == sebmc.Reachable && r.Witness != nil {
				if err := r.Witness.Validate(r.System); err != nil {
					t.Fatalf("job %d: witness does not replay: %v", i, err)
				}
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cancelled batch did not return within 30s")
	}
	settleGoroutines(t, before)
}

// TestPortfolioCheckManyMixedEngines runs a batch where every job names
// a different engine, pinning per-item options and ordering.
func TestPortfolioCheckManyMixedEngines(t *testing.T) {
	sys := circuits.Counter(3, 5)
	jobs := []sebmc.Job{
		{Sys: sys, K: 5, Engine: sebmc.EngineSAT},
		{Sys: sys, K: 5, Engine: sebmc.EngineSATIncr},
		{Sys: sys, K: 5, Engine: sebmc.EngineJSAT},
		{Sys: sys, K: 5, Engine: sebmc.EnginePortfolio},
		{Sys: sys, K: 4, Engine: sebmc.EngineSAT},
	}
	results := sebmc.CheckMany(jobs, 0) // 0 = GOMAXPROCS default
	for i := 0; i < 4; i++ {
		if results[i].Status != sebmc.Reachable {
			t.Fatalf("job %d: %v, want Reachable", i, results[i].Status)
		}
	}
	if results[4].Status != sebmc.Unreachable {
		t.Fatalf("job 4: %v, want Unreachable", results[4].Status)
	}
	for i, want := range []string{"sat", "sat-incr", "jsat"} {
		if results[i].DecidedBy != want {
			t.Fatalf("job %d decided by %q, want %q", i, results[i].DecidedBy, want)
		}
	}
}
