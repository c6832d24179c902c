package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// mkVars creates n variables and returns them 1-indexed for convenience.
func mkVars(s *Solver, n int) []cnf.Var {
	vs := make([]cnf.Var, n+1)
	for i := 1; i <= n; i++ {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTrivialSat(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 2)
	s.AddClause(cnf.PosLit(v[1]), cnf.PosLit(v[2]))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v", got)
	}
	m := s.Model()
	if m.Get(v[1]) != cnf.True && m.Get(v[2]) != cnf.True {
		t.Fatalf("model does not satisfy clause")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 1)
	s.AddClause(cnf.PosLit(v[1]))
	if !s.AddClause(cnf.NegLit(v[1])) {
		// AddClause may already detect the contradiction.
		if s.Solve() != Unsat {
			t.Fatalf("solver should stay unsat")
		}
		return
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New(Options{})
	mkVars(s, 1)
	if s.AddClause() {
		t.Fatalf("empty clause should report inconsistency")
	}
	if s.Solve() != Unsat {
		t.Fatalf("should be unsat")
	}
}

func TestNoClausesSat(t *testing.T) {
	s := New(Options{})
	mkVars(s, 3)
	if s.Solve() != Sat {
		t.Fatalf("empty formula should be sat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 1)
	s.AddClause(cnf.PosLit(v[1]), cnf.NegLit(v[1]))
	if s.NumClauses() != 0 {
		t.Fatalf("tautology should not be stored")
	}
	if s.Solve() != Sat {
		t.Fatalf("should be sat")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes — classically UNSAT and
	// requires real conflict analysis to finish quickly.
	for _, n := range []int{3, 4, 5} {
		s := New(Options{})
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
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v", n+1, n, got)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 3)
	// x1 → x2, x2 → x3
	s.AddClause(cnf.NegLit(v[1]), cnf.PosLit(v[2]))
	s.AddClause(cnf.NegLit(v[2]), cnf.PosLit(v[3]))

	if s.Solve(cnf.PosLit(v[1])) != Sat {
		t.Fatalf("assuming x1 should be sat")
	}
	if s.Model().Get(v[3]) != cnf.True {
		t.Fatalf("x3 should be implied true")
	}
	// Solver remains usable and clause set unchanged.
	if s.Solve(cnf.PosLit(v[1]), cnf.NegLit(v[3])) != Unsat {
		t.Fatalf("x1 ∧ ¬x3 should be unsat")
	}
	fa := s.FailedAssumptions()
	if len(fa) == 0 {
		t.Fatalf("failed assumptions empty")
	}
	// And solving without assumptions still works.
	if s.Solve() != Sat {
		t.Fatalf("formula itself is sat")
	}
}

func TestFailedAssumptionsSubset(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 4)
	s.AddClause(cnf.NegLit(v[1]), cnf.NegLit(v[2])) // ¬(x1 ∧ x2)
	st := s.Solve(cnf.PosLit(v[1]), cnf.PosLit(v[2]), cnf.PosLit(v[3]))
	if st != Unsat {
		t.Fatalf("got %v", st)
	}
	fa := s.FailedAssumptions()
	for _, l := range fa {
		if l.Var() == v[3] {
			t.Fatalf("x3 is irrelevant but appears in failed assumptions %v", fa)
		}
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 2)
	s.AddClause(cnf.PosLit(v[1]), cnf.PosLit(v[2]))
	if s.Solve() != Sat {
		t.Fatalf("first solve")
	}
	s.AddClause(cnf.NegLit(v[1]))
	s.AddClause(cnf.NegLit(v[2]))
	if s.Solve() != Unsat {
		t.Fatalf("after narrowing should be unsat")
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard instance with a tiny budget must return Unknown.
	s := New(Options{ConflictBudget: 1})
	n := 6
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
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted solve returned %v", got)
	}
}

func TestLuby(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

// refSolve is a tiny reference DPLL (no learning) used as an oracle.
func refSolve(f *cnf.Formula) bool {
	a := cnf.NewAssignment(f.NumVars())
	var rec func() bool
	rec = func() bool {
		// Unit propagation.
		for {
			progress := false
			for _, c := range f.Clauses {
				st := c.StatusUnder(a)
				if st == cnf.StatusFalsified {
					return false
				}
				if st == cnf.StatusSatisfied {
					continue
				}
				var unit cnf.Lit
				nUndef := 0
				for _, l := range c {
					if a.Lit(l) == cnf.Undef {
						nUndef++
						unit = l
					}
				}
				if nUndef == 1 {
					a.Set(unit.Var(), cnf.BoolValue(!unit.IsNeg()))
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		switch f.Eval(a) {
		case cnf.StatusSatisfied:
			return true
		case cnf.StatusFalsified:
			return false
		}
		// Branch on first unassigned var.
		for v := cnf.Var(1); int(v) <= f.NumVars(); v++ {
			if a.Get(v) == cnf.Undef {
				saved := append(cnf.Assignment(nil), a...)
				a.Set(v, cnf.True)
				if rec() {
					return true
				}
				copy(a, saved)
				a.Set(v, cnf.False)
				if rec() {
					return true
				}
				copy(a, saved)
				return false
			}
		}
		return false
	}
	return rec()
}

// randomCNF draws nClauses clauses of exactly width literals each. A
// shorter clause would let unit clauses refute most formulas while they
// load, before the search the fuzz tests exist to exercise.
func randomCNF(rng *rand.Rand, nVars, nClauses, width int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		c := make(cnf.Clause, 0, width)
		for j := 0; j < width; j++ {
			v := cnf.Var(rng.Intn(nVars) + 1)
			c = append(c, cnf.MkLit(v, rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}
	return f
}

// TestFuzzAgainstReference cross-checks CDCL against the reference DPLL
// on many small random formulas, near the phase-transition ratio. A run
// that records no conflict never reached the search, and fails.
func TestFuzzAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2005))
	var conflicts int64
	sat := 0
	const iters = 400
	for iter := 0; iter < iters; iter++ {
		nVars := 4 + rng.Intn(9)
		nClauses := int(float64(nVars)*3.5) + rng.Intn(8)
		f := randomCNF(rng, nVars, nClauses, 3)

		want := refSolve(f)
		s := New(Options{})
		if !s.AddFormula(f) && want {
			t.Fatalf("iter %d: loading refuted a satisfiable formula: %v", iter, f.Clauses)
		}
		got := s.Solve()
		conflicts += s.Stats.Conflicts
		if (got == Sat) != want {
			t.Fatalf("iter %d: cdcl=%v ref=%v\nformula: %v", iter, got, want, f.Clauses)
		}
		if got == Sat {
			sat++
			// Verify the model actually satisfies the formula.
			m := s.Model()
			for _, c := range f.Clauses {
				if c.StatusUnder(m) != cnf.StatusSatisfied {
					t.Fatalf("iter %d: model does not satisfy clause %v", iter, c)
				}
			}
		}
	}
	t.Logf("%d SAT, %d UNSAT, %d conflicts", sat, iters-sat, conflicts)
	if conflicts == 0 {
		t.Fatal("the run recorded no conflict: no formula reached the search")
	}
}

// TestFuzzAblations checks every solver configuration against brute
// force: the default, without trail reuse, and with proof logging (the
// only path that skips minimization and suspends learnt deletion).
// Every clause has three literals, near the 3-SAT threshold, so the
// formulas reach the search instead of being refuted while loading.
// The first two configurations answer a run of assumption vectors that
// share prefixes, where trail reuse acts; proof logging answers its one
// query without assumptions.
func TestFuzzAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 120; iter++ {
		nVars := 10 + rng.Intn(6)
		lit := func() cnf.Lit { return cnf.MkLit(cnf.Var(1+rng.Intn(nVars)), rng.Intn(2) == 0) }
		f := cnf.NewFormula(nVars)
		for i := 0; i < nVars*43/10; i++ {
			f.Add(lit(), lit(), lit())
		}
		prefix := []cnf.Lit{lit(), lit(), lit()}
		queries := [][]cnf.Lit{nil, prefix[:1], prefix[:2], prefix, prefix[:2], nil}
		want := make([]bool, len(queries))
		for qi, assumps := range queries {
			ext := f.Clone()
			for _, l := range assumps {
				ext.Add(l)
			}
			want[qi] = refSolve(ext)
		}
		for oi, opts := range []Options{{}, {DisableTrailReuse: true}, {LogProof: true}} {
			s := New(opts)
			s.AddFormula(f)
			for qi, assumps := range queries {
				if opts.LogProof && qi > 0 {
					break
				}
				if got := s.Solve(assumps...); (got == Sat) != want[qi] {
					t.Fatalf("iter %d opts %d query %d: got %v want sat=%v", iter, oi, qi, got, want[qi])
				}
			}
		}
	}
}

// TestFuzzAssumptionsAgainstReference checks Solve-under-assumptions by
// comparing with the reference on the formula extended by units. A run
// that records no conflict never reached the search, and fails.
func TestFuzzAssumptionsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var conflicts int64
	sat := 0
	const iters = 200
	for iter := 0; iter < iters; iter++ {
		nVars := 5 + rng.Intn(6)
		f := randomCNF(rng, nVars, nVars*3, 3)
		nAssume := 1 + rng.Intn(3)
		var assumps []cnf.Lit
		for i := 0; i < nAssume; i++ {
			assumps = append(assumps, cnf.MkLit(cnf.Var(rng.Intn(nVars)+1), rng.Intn(2) == 0))
		}
		fExt := f.Clone()
		for _, l := range assumps {
			fExt.Add(l)
		}
		want := refSolve(fExt)

		s := New(Options{})
		s.AddFormula(f)
		got := s.Solve(assumps...)
		if (got == Sat) != want {
			t.Fatalf("iter %d: got %v want sat=%v (assumps %v)", iter, got, want, assumps)
		}
		if got == Sat {
			sat++
		}
		// The solver must remain reusable: base formula result unchanged.
		baseWant := refSolve(f)
		if got2 := s.Solve(); (got2 == Sat) != baseWant {
			t.Fatalf("iter %d: solver state corrupted after assumption solve", iter)
		}
		conflicts += s.Stats.Conflicts
	}
	t.Logf("%d SAT, %d UNSAT under assumptions, %d conflicts", sat, iters-sat, conflicts)
	if conflicts == 0 {
		t.Fatal("the run recorded no conflict: no formula reached the search")
	}
}

// TestXorChains exercises longer propagation chains and learning: parity
// constraints are UNSAT when an odd cycle is forced.
func TestXorChains(t *testing.T) {
	s := New(Options{})
	const n = 30
	v := mkVars(s, n)
	// x_i ⊕ x_{i+1} = 1 encoded as two clauses each.
	for i := 1; i < n; i++ {
		s.AddClause(cnf.PosLit(v[i]), cnf.PosLit(v[i+1]))
		s.AddClause(cnf.NegLit(v[i]), cnf.NegLit(v[i+1]))
	}
	// Forcing equal endpoints on an even-length chain of flips: for odd
	// n-1 the chain flips parity; make it contradictory explicitly.
	s.AddClause(cnf.PosLit(v[1]))
	s.AddClause(cnf.PosLit(v[2])) // contradicts x1⊕x2=1 with x1=1
	if s.Solve() != Unsat {
		t.Fatalf("want unsat")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New(Options{})
	v := mkVars(s, 8)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		a, b, c := v[1+rng.Intn(8)], v[1+rng.Intn(8)], v[1+rng.Intn(8)]
		s.AddClause(cnf.MkLit(a, rng.Intn(2) == 0), cnf.MkLit(b, rng.Intn(2) == 0), cnf.MkLit(c, rng.Intn(2) == 0))
	}
	s.Solve()
	if s.Stats.Propagations == 0 && s.Stats.Decisions == 0 {
		t.Fatalf("stats not populated: %+v", s.Stats)
	}
	if s.ClauseDBBytes() <= 0 {
		t.Fatalf("ClauseDBBytes should be positive")
	}
}
