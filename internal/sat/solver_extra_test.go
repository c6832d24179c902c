package sat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
)

// TestReduceDBTriggered drives enough conflicts on a large random
// instance that clause-database reduction fires, then verifies the solver
// still answers correctly (cross-checked on a smaller embedded core).
func TestReduceDBTriggered(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := New(Options{})
	// Random 3-SAT near threshold, large enough to learn thousands.
	n := 120
	v := mkVars(s, n)
	for i := 0; i < int(4.26*float64(n)); i++ {
		a, b, c := v[1+rng.Intn(n)], v[1+rng.Intn(n)], v[1+rng.Intn(n)]
		s.AddClause(cnf.MkLit(a, rng.Intn(2) == 0), cnf.MkLit(b, rng.Intn(2) == 0), cnf.MkLit(c, rng.Intn(2) == 0))
	}
	// Force reductions by shrinking the trigger threshold.
	s.maxLearnts = 50
	res := s.Solve()
	if res == Unknown {
		t.Fatalf("unbudgeted solve returned Unknown")
	}
	if s.Stats.Removed == 0 {
		t.Skipf("no reduction fired (instance solved in %d conflicts)", s.Stats.Conflicts)
	}
	if res == Sat {
		// Model must satisfy all ORIGINAL clauses.
		check := func(lits []cnf.Lit) {
			for _, l := range lits {
				if s.LitValue(l) == cnf.True {
					return
				}
			}
			t.Fatalf("model violates original clause after reduceDB")
		}
		for _, c := range s.clauses {
			check(s.arena.lits(c))
		}
		for _, bc := range s.binClauses {
			check(bc[:])
		}
	}
}

func TestDeadlineRespected(t *testing.T) {
	s := New(Options{Deadline: time.Now().Add(50 * time.Millisecond)})
	// PHP(9,8): hard enough to outlive 50ms on most machines.
	n := 8
	p := make([][]cnf.Var, n+2)
	for i := 1; i <= n+1; i++ {
		p[i] = make([]cnf.Var, n+1)
		for j := 1; j <= n; j++ {
			p[i][j] = s.NewVar()
		}
	}
	for i := 1; i <= n+1; i++ {
		lits := make([]cnf.Lit, 0, n)
		for j := 1; j <= n; j++ {
			lits = append(lits, cnf.PosLit(p[i][j]))
		}
		s.AddClause(lits...)
	}
	for j := 1; j <= n; j++ {
		for i1 := 1; i1 <= n+1; i1++ {
			for i2 := i1 + 1; i2 <= n+1; i2++ {
				s.AddClause(cnf.NegLit(p[i1][j]), cnf.NegLit(p[i2][j]))
			}
		}
	}
	start := time.Now()
	res := s.Solve()
	elapsed := time.Since(start)
	if res == Unknown && elapsed > 2*time.Second {
		t.Fatalf("deadline ignored: ran %v", elapsed)
	}
}

// TestAddClauseUnderRetainedTrail replaces the old "AddClause during
// search panics" contract: with trail reuse, adding clauses between
// Solve calls while decision levels are retained is the normal
// incremental pattern. A unit must be asserted at the root level
// (dropping the retained levels); a clause falsified by the retained
// assignment must trigger just enough backtracking to stay sound.
func TestAddClauseUnderRetainedTrail(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 4)
	s.AddClause(cnf.PosLit(v[1]), cnf.PosLit(v[2]))
	if s.Solve(cnf.PosLit(v[3]), cnf.PosLit(v[4])) != Sat {
		t.Fatalf("setup solve not Sat")
	}
	if s.decisionLevel() == 0 {
		t.Fatalf("trail not retained after Solve")
	}
	// Unit clause: asserted at root, trail dropped to level 0.
	if !s.AddClause(cnf.NegLit(v[1])) {
		t.Fatalf("unit addition reported unsat")
	}
	if s.decisionLevel() != 0 {
		t.Fatalf("unit addition left decision level %d", s.decisionLevel())
	}
	if s.Solve() != Sat || s.Value(v[1]) != cnf.False || s.Value(v[2]) != cnf.True {
		t.Fatalf("unit not enforced: v1=%v v2=%v", s.Value(v[1]), s.Value(v[2]))
	}
	// Clause contradicting the retained assumptions: next solve under the
	// same assumptions must now be Unsat.
	if s.Solve(cnf.PosLit(v[3]), cnf.PosLit(v[4])) != Sat {
		t.Fatalf("re-solve not Sat")
	}
	s.AddClause(cnf.NegLit(v[3]), cnf.NegLit(v[4]))
	if got := s.Solve(cnf.PosLit(v[3]), cnf.PosLit(v[4])); got != Unsat {
		t.Fatalf("contradicted assumptions: got %v, want Unsat", got)
	}
	if got := s.Solve(cnf.PosLit(v[3])); got != Sat || s.Value(v[4]) != cnf.False {
		t.Fatalf("v3 alone: got %v, v4=%v", got, s.Value(v[4]))
	}
}

func TestAddClauseUnknownVarPanics(t *testing.T) {
	s := New(Options{})
	mkVars(s, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	s.AddClause(cnf.PosLit(99))
}

// TestManySolveCallsStableState stresses incremental reuse: alternating
// assumption patterns must not corrupt internal state.
func TestManySolveCallsStableState(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	s := New(Options{})
	n := 30
	v := mkVars(s, n)
	for i := 0; i < 90; i++ {
		a, b, c := v[1+rng.Intn(n)], v[1+rng.Intn(n)], v[1+rng.Intn(n)]
		s.AddClause(cnf.MkLit(a, rng.Intn(2) == 0), cnf.MkLit(b, rng.Intn(2) == 0), cnf.MkLit(c, rng.Intn(2) == 0))
	}
	base := s.Solve()
	for iter := 0; iter < 50; iter++ {
		var assumps []cnf.Lit
		for j := 0; j < 1+rng.Intn(4); j++ {
			assumps = append(assumps, cnf.MkLit(v[1+rng.Intn(n)], rng.Intn(2) == 0))
		}
		s.Solve(assumps...)
		if got := s.Solve(); got != base {
			t.Fatalf("iter %d: base result drifted from %v to %v", iter, base, got)
		}
	}
}

// TestLearntClauseSoundness: every learnt clause must be implied by the
// original formula. We check it the cheap way: adding all learnt clauses
// to a fresh solver must not change satisfiability of random instances.
// A run that records no conflict, or imports no learnt clause, checks
// nothing, and fails.
func TestLearntClauseSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var conflicts int64
	sat, imported := 0, 0
	const iters = 60
	for iter := 0; iter < iters; iter++ {
		n := 8 + rng.Intn(6)
		f := randomCNF(rng, n, n*4, 3)
		s1 := New(Options{})
		s1.AddFormula(f)
		want := s1.Solve()
		conflicts += s1.Stats.Conflicts
		if want == Sat {
			sat++
		}
		imported += len(s1.learnts) + len(s1.binLearnts)

		s2 := New(Options{})
		s2.AddFormula(f)
		// Import s1's learnt clauses as problem clauses.
		ok := true
		for _, c := range s1.learnts {
			ok = s2.AddClause(s1.arena.lits(c)...) && ok
		}
		for _, bc := range s1.binLearnts {
			ok = s2.AddClause(bc[:]...) && ok
		}
		got := s2.Solve()
		if want == Sat && (got != Sat || !ok) {
			t.Fatalf("iter %d: learnt clauses changed SAT to %v", iter, got)
		}
		if want == Unsat && got == Sat {
			t.Fatalf("iter %d: learnt clauses changed UNSAT to SAT", iter)
		}
	}
	t.Logf("%d SAT, %d UNSAT, %d conflicts, %d learnt clauses imported", sat, iters-sat, conflicts, imported)
	if conflicts == 0 || imported == 0 {
		t.Fatal("the run recorded no conflict or imported no learnt clause: it checked nothing")
	}
}

func TestSolveAfterTopLevelUnsatStaysUnsat(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 1)
	s.AddClause(cnf.PosLit(v[1]))
	s.AddClause(cnf.NegLit(v[1]))
	for i := 0; i < 3; i++ {
		if s.Solve() != Unsat {
			t.Fatalf("solver forgot top-level unsat")
		}
	}
	if s.Okay() {
		t.Fatalf("Okay should be false")
	}
}
