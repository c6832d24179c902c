package tseitin

import (
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// buildRandomCone builds a random combinational graph over nIn inputs.
func buildRandomCone(rng *rand.Rand, nIn, nAnd int) (*aig.Graph, []aig.Lit, aig.Lit) {
	g := aig.New()
	var pool []aig.Lit
	ins := make([]aig.Lit, nIn)
	for i := range ins {
		ins[i] = g.AddInput("")
		pool = append(pool, ins[i])
	}
	pick := func() aig.Lit {
		l := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	for i := 0; i < nAnd; i++ {
		pool = append(pool, g.And(pick(), pick()))
	}
	root := pick()
	return g, ins, root
}

// TestEquisatisfiableAgainstEval checks on random cones that for every
// input assignment, the CNF (with leaves fixed by units and the root
// asserted) is satisfiable exactly when the circuit evaluates to true.
func TestEquisatisfiableAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 60; iter++ {
		nIn := 2 + rng.Intn(4)
		g, ins, root := buildRandomCone(rng, nIn, 3+rng.Intn(20))
		ev := aig.NewEvaluator(g)

		for _, mode := range []Mode{Full, PlaistedGreenbaum} {
			f := &cnf.Formula{}
			enc := New(g, f, mode)
			inVars := make([]cnf.Var, nIn)
			for i, il := range ins {
				inVars[i] = f.NewVar()
				enc.BindLit(il, inVars[i])
			}
			rootLit := enc.LitAssert(root)

			for bits := 0; bits < 1<<uint(nIn); bits++ {
				in := make([]aig.Word, nIn)
				for i := range in {
					in[i] = aig.Word(bits >> uint(i) & 1)
				}
				ev.Run(in, nil)
				want := ev.LitBool(root)

				s := sat.New(sat.Options{})
				for s.NumVars() < f.NumVars() {
					s.NewVar()
				}
				ok := true
				for _, c := range f.Clauses {
					ok = s.AddClause(c...) && ok
				}
				var assumps []cnf.Lit
				for i, v := range inVars {
					assumps = append(assumps, cnf.MkLit(v, bits>>uint(i)&1 == 0))
				}
				assumps = append(assumps, rootLit)
				got := ok && s.Solve(assumps...) == sat.Sat
				if got != want {
					t.Fatalf("iter %d mode %d bits %b: cnf sat=%v eval=%v", iter, mode, bits, got, want)
				}
			}
		}
	}
}

// TestFullModeBothPolarities: in Full mode, asserting the NEGATED root
// must also agree with evaluation (PG via Lit covers both too).
func TestFullModeBothPolarities(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 40; iter++ {
		nIn := 2 + rng.Intn(3)
		g, ins, root := buildRandomCone(rng, nIn, 3+rng.Intn(15))
		ev := aig.NewEvaluator(g)

		for _, mode := range []Mode{Full, PlaistedGreenbaum} {
			f := &cnf.Formula{}
			enc := New(g, f, mode)
			inVars := make([]cnf.Var, nIn)
			for i, il := range ins {
				inVars[i] = f.NewVar()
				enc.BindLit(il, inVars[i])
			}
			rootLit := enc.Lit(root) // both polarities encoded

			for bits := 0; bits < 1<<uint(nIn); bits++ {
				in := make([]aig.Word, nIn)
				for i := range in {
					in[i] = aig.Word(bits >> uint(i) & 1)
				}
				ev.Run(in, nil)
				want := !ev.LitBool(root) // asserting ¬root

				s := sat.New(sat.Options{})
				for s.NumVars() < f.NumVars() {
					s.NewVar()
				}
				for _, c := range f.Clauses {
					s.AddClause(c...)
				}
				var assumps []cnf.Lit
				for i, v := range inVars {
					assumps = append(assumps, cnf.MkLit(v, bits>>uint(i)&1 == 0))
				}
				assumps = append(assumps, rootLit.Neg())
				got := s.Solve(assumps...) == sat.Sat
				if got != want {
					t.Fatalf("iter %d mode %d bits %b: ¬root sat=%v want=%v", iter, mode, bits, got, want)
				}
			}
		}
	}
}

func TestPGSmallerThanFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, ins, root := buildRandomCone(rng, 4, 60)

	count := func(mode Mode) int {
		f := &cnf.Formula{}
		enc := New(g, f, mode)
		for _, il := range ins {
			enc.BindLit(il, f.NewVar())
		}
		enc.LitAssert(root)
		return f.NumClauses()
	}
	full, pg := count(Full), count(PlaistedGreenbaum)
	if pg > full {
		t.Fatalf("PG (%d clauses) should not exceed full Tseitin (%d)", pg, full)
	}
}

func TestConstants(t *testing.T) {
	g := aig.New()
	f := &cnf.Formula{}
	enc := New(g, f, Full)
	tl := enc.Lit(aig.True)
	fl := enc.Lit(aig.False)
	s := sat.New(sat.Options{})
	for s.NumVars() < f.NumVars() {
		s.NewVar()
	}
	for _, c := range f.Clauses {
		s.AddClause(c...)
	}
	if s.Solve(tl) != sat.Sat {
		t.Fatalf("asserting true-literal should be sat")
	}
	if s.Solve(fl) != sat.Unsat {
		t.Fatalf("asserting false-literal should be unsat")
	}
}

func TestBindErrors(t *testing.T) {
	g := aig.New()
	in := g.AddInput("")
	a := g.And(in, in.Not())
	_ = a
	f := &cnf.Formula{}
	enc := New(g, f, Full)
	v := f.NewVar()
	enc.BindLit(in, v)
	mustPanic(t, "double bind", func() { enc.BindLit(in, v) })
	g2 := aig.New()
	x := g2.AddInput("")
	y := g2.AddInput("")
	and := g2.And(x, y)
	enc2 := New(g2, &cnf.Formula{}, Full)
	mustPanic(t, "bind AND node", func() { enc2.Bind(and.Node(), 1) })
	mustPanic(t, "negative BindLit", func() { enc2.BindLit(x.Not(), 1) })
	enc3 := New(g2, &cnf.Formula{}, Full)
	mustPanic(t, "unbound leaf", func() { enc3.Lit(and) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}
