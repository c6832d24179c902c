package jsat_test

import (
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/jsat"
	"repro/internal/model"
	"repro/internal/tseitin"
)

func testSystems() []*model.System {
	return []*model.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(4),
		circuits.Johnson(3, 3),
		circuits.TrafficLight(2),
		circuits.FIFO(2),
		circuits.Pipeline(3),
		circuits.Handshake(2),
		circuits.MutexBroken(2, 1),
		circuits.RandomAIG(41, 2, 3, 10, 2),
		circuits.RandomAIG(42, 1, 4, 12, 2),
	}
}

func TestJSATMatchesExplicitExact(t *testing.T) {
	for _, sys := range testSystems() {
		chk := explicit.New(sys)
		s := jsat.New(sys, jsat.Options{Semantics: bmc.Exact})
		for k := 0; k <= 7; k++ {
			want := chk.ReachableExact(k)
			r := s.Check(k)
			if r.Status == bmc.Unknown {
				t.Fatalf("%s k=%d: unexpected Unknown", sys.Name, k)
			}
			if (r.Status == bmc.Reachable) != want {
				t.Errorf("%s k=%d exact: jsat=%v explicit=%v", sys.Name, k, r.Status, want)
			}
			if r.Status == bmc.Reachable {
				if err := r.Witness.Validate(r.System); err != nil {
					t.Errorf("%s k=%d: invalid witness: %v\n%v", sys.Name, k, err, r.Witness)
				}
			}
		}
	}
}

func TestJSATMatchesExplicitAtMost(t *testing.T) {
	for _, sys := range testSystems() {
		chk := explicit.New(sys)
		s := jsat.New(sys, jsat.Options{Semantics: bmc.AtMost})
		for k := 0; k <= 7; k++ {
			want := chk.ReachableWithin(k)
			r := s.Check(k)
			if r.Status == bmc.Unknown {
				t.Fatalf("%s k=%d: unexpected Unknown", sys.Name, k)
			}
			if (r.Status == bmc.Reachable) != want {
				t.Errorf("%s k=%d atmost: jsat=%v explicit=%v", sys.Name, k, r.Status, want)
			}
			if r.Status == bmc.Reachable {
				if err := r.Witness.Validate(r.System); err != nil {
					t.Errorf("%s k=%d: invalid witness: %v", sys.Name, k, err)
				}
			}
		}
	}
}

func TestJSATCacheAblation(t *testing.T) {
	// Results must be identical with the hopeless cache disabled.
	for _, sys := range testSystems()[:6] {
		chk := explicit.New(sys)
		s := jsat.New(sys, jsat.Options{Semantics: bmc.AtMost, DisableCache: true})
		for k := 0; k <= 5; k++ {
			want := chk.ReachableWithin(k)
			r := s.Check(k)
			if (r.Status == bmc.Reachable) != want || r.Status == bmc.Unknown {
				t.Errorf("%s k=%d nocache: jsat=%v explicit=%v", sys.Name, k, r.Status, want)
			}
		}
	}
}

// TestJSATCacheReducesQueries deepens FIFO(3) over bounds 0..8 on one
// solver with the hopeless-state cache and on one without it. Within a
// single Check the pooled blocking clauses exclude a hopeless successor
// before the cache is asked, so the cache pays across the Checks of one
// solver: both must agree at every bound, and the cache must hit and
// cut queries.
func TestJSATCacheReducesQueries(t *testing.T) {
	sys := circuits.FIFO(3)
	with := jsat.New(sys, jsat.Options{Semantics: bmc.Exact})
	without := jsat.New(sys, jsat.Options{Semantics: bmc.Exact, DisableCache: true})
	for k := 0; k <= 8; k++ {
		if a, b := with.Check(k).Status, without.Check(k).Status; a != b {
			t.Fatalf("k=%d: %v with the cache, %v without", k, a, b)
		}
	}
	if with.Stats.CacheHits == 0 {
		t.Fatal("no cache hits across the deepening run")
	}
	if with.Stats.Queries >= without.Stats.Queries {
		t.Errorf("the cache did not cut queries: with=%d without=%d", with.Stats.Queries, without.Stats.Queries)
	}
	t.Logf("cache hits %d; queries %d with the cache, %d without", with.Stats.CacheHits, with.Stats.Queries, without.Stats.Queries)
}

func TestJSATPlaistedGreenbaum(t *testing.T) {
	sys := circuits.Counter(3, 5)
	chk := explicit.New(sys)
	s := jsat.New(sys, jsat.Options{Mode: tseitin.PlaistedGreenbaum})
	for k := 0; k <= 6; k++ {
		want := chk.ReachableExact(k)
		r := s.Check(k)
		if (r.Status == bmc.Reachable) != want || r.Status == bmc.Unknown {
			t.Errorf("k=%d PG: jsat=%v explicit=%v", k, r.Status, want)
		}
	}
}

func TestJSATQueryBudget(t *testing.T) {
	// A deliberately hard UNSAT search with a tiny budget returns Unknown.
	sys := circuits.Arbiter(4)
	s := jsat.New(sys, jsat.Options{QueryBudget: 2})
	r := s.Check(6)
	if r.Status != bmc.Unknown {
		t.Fatalf("budgeted check returned %v", r.Status)
	}
}

func TestJSATDeepDeterministic(t *testing.T) {
	// The favourable case from the paper's intuition: a deterministic
	// system lets the DFS walk straight to the target. Depth 40 without
	// unrolling 40 TR copies.
	sys := circuits.Counter(6, 40)
	s := jsat.New(sys, jsat.Options{})
	r := s.Check(40)
	if r.Status != bmc.Reachable {
		t.Fatalf("deep counter: %v", r.Status)
	}
	if err := r.Witness.Validate(r.System); err != nil {
		t.Fatalf("witness: %v", err)
	}
	if s.Stats.Queries == 0 {
		t.Fatalf("stats not tracked")
	}
	// Space claim: the solver's formula holds ONE transition relation;
	// its size must not scale with k. Compare with the k-fold unrolling.
	unrolled := bmc.EncodeUnroll(sys, 40, tseitin.Full)
	if r.Formula.Clauses*4 > unrolled.F.NumClauses() {
		t.Errorf("jsat formula (%d clauses) should be a small fraction of the 40-step unrolling (%d)",
			r.Formula.Clauses, unrolled.F.NumClauses())
	}
}

func TestJSATReuseAcrossBounds(t *testing.T) {
	// One solver instance, multiple bounds: results stay correct.
	sys := circuits.TokenRing(5)
	chk := explicit.New(sys)
	s := jsat.New(sys, jsat.Options{})
	for _, k := range []int{6, 1, 4, 0, 9, 2} {
		want := chk.ReachableExact(k)
		r := s.Check(k)
		if (r.Status == bmc.Reachable) != want || r.Status == bmc.Unknown {
			t.Errorf("k=%d: jsat=%v explicit=%v", k, r.Status, want)
		}
	}
}

func TestJSATUninitializedLatches(t *testing.T) {
	// Free initial latches: multiple initial states must be enumerated.
	sys := circuits.RandomAIG(55, 1, 3, 9, 2)
	// RandomAIG uses constrained inits; build a free-init system instead.
	chk := explicit.New(sys)
	s := jsat.New(sys, jsat.Options{})
	for k := 0; k <= 4; k++ {
		want := chk.ReachableExact(k)
		r := s.Check(k)
		if (r.Status == bmc.Reachable) != want || r.Status == bmc.Unknown {
			t.Errorf("k=%d: jsat=%v explicit=%v", k, r.Status, want)
		}
	}
}
