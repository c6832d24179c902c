package cnf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLitEncoding(t *testing.T) {
	v := Var(7)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatalf("Var roundtrip failed: %v %v", p.Var(), n.Var())
	}
	if p.IsNeg() || !n.IsNeg() {
		t.Fatalf("sign bits wrong: pos=%v neg=%v", p.IsNeg(), n.IsNeg())
	}
	if p.Neg() != n || n.Neg() != p {
		t.Fatalf("negation not involutive")
	}
	if p.Dimacs() != 7 || n.Dimacs() != -7 {
		t.Fatalf("dimacs conversion wrong: %d %d", p.Dimacs(), n.Dimacs())
	}
	if p.Sign() != 1 || n.Sign() != -1 {
		t.Fatalf("signs wrong")
	}
}

func TestLitFromDimacsRoundtrip(t *testing.T) {
	f := func(d int16) bool {
		if d == 0 {
			return true
		}
		return LitFromDimacs(int(d)).Dimacs() == int(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLitFromDimacsZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on literal 0")
		}
	}()
	LitFromDimacs(0)
}

func TestMkLit(t *testing.T) {
	if MkLit(3, false) != PosLit(3) || MkLit(3, true) != NegLit(3) {
		t.Fatalf("MkLit disagrees with PosLit/NegLit")
	}
}

func TestValueNot(t *testing.T) {
	if True.Not() != False || False.Not() != True || Undef.Not() != Undef {
		t.Fatalf("ternary negation broken")
	}
	if BoolValue(true) != True || BoolValue(false) != False {
		t.Fatalf("BoolValue broken")
	}
}

func TestAssignmentLit(t *testing.T) {
	a := NewAssignment(4)
	a.Set(2, True)
	a.Set(3, False)
	cases := []struct {
		l    Lit
		want Value
	}{
		{PosLit(2), True}, {NegLit(2), False},
		{PosLit(3), False}, {NegLit(3), True},
		{PosLit(4), Undef}, {NegLit(4), Undef},
	}
	for _, c := range cases {
		if got := a.Lit(c.l); got != c.want {
			t.Errorf("a.Lit(%v) = %v, want %v", c.l, got, c.want)
		}
	}
	if a.Get(99) != Undef {
		t.Errorf("out-of-range Get should be Undef")
	}
}

func TestClauseNormalize(t *testing.T) {
	c := Clause{PosLit(2), PosLit(1), PosLit(2), NegLit(3)}
	nc, taut := c.Normalize()
	if taut {
		t.Fatalf("unexpected tautology")
	}
	if len(nc) != 3 {
		t.Fatalf("duplicate not removed: %v", nc)
	}
	c2 := Clause{PosLit(1), NegLit(1)}
	if _, taut := c2.Normalize(); !taut {
		t.Fatalf("tautology not detected")
	}
}

func TestClauseStatus(t *testing.T) {
	a := NewAssignment(3)
	c := Clause{PosLit(1), PosLit(2)}
	if c.StatusUnder(a) != StatusUnresolved {
		t.Fatalf("want unresolved")
	}
	a.Set(1, False)
	if c.StatusUnder(a) != StatusUnresolved {
		t.Fatalf("want unresolved with one undef")
	}
	a.Set(2, True)
	if c.StatusUnder(a) != StatusSatisfied {
		t.Fatalf("want satisfied")
	}
	a.Set(2, False)
	if c.StatusUnder(a) != StatusFalsified {
		t.Fatalf("want falsified")
	}
}

func TestFormulaBasics(t *testing.T) {
	f := NewFormula(0)
	x, y := f.NewVar(), f.NewVar()
	f.Add(PosLit(x), PosLit(y))
	f.Add(NegLit(x))
	if f.NumVars() != 2 || f.NumClauses() != 2 {
		t.Fatalf("counts wrong: %v", f)
	}
	if f.NumLiterals() != 3 {
		t.Fatalf("literal count wrong: %d", f.NumLiterals())
	}
	a := NewAssignment(2)
	a.Set(x, False)
	a.Set(y, True)
	if f.Eval(a) != StatusSatisfied {
		t.Fatalf("eval should be satisfied")
	}
	a.Set(y, False)
	if f.Eval(a) != StatusFalsified {
		t.Fatalf("eval should be falsified")
	}
}

func TestFormulaClone(t *testing.T) {
	f := NewFormula(2)
	f.Add(PosLit(1), NegLit(2))
	g := f.Clone()
	g.Clauses[0][0] = NegLit(1)
	if f.Clauses[0][0] != PosLit(1) {
		t.Fatalf("clone shares storage with original")
	}
}

func TestFormulaAddExtendsVars(t *testing.T) {
	f := NewFormula(0)
	f.Add(PosLit(10))
	if f.NumVars() != 10 {
		t.Fatalf("Add should extend declared vars to 10, got %d", f.NumVars())
	}
}

// randomFormula builds a random 3-CNF over n variables with m clauses.
func randomFormula(rng *rand.Rand, n, m int) *Formula {
	f := NewFormula(n)
	for i := 0; i < m; i++ {
		var c Clause
		for j := 0; j < 3; j++ {
			v := Var(rng.Intn(n) + 1)
			c = append(c, MkLit(v, rng.Intn(2) == 0))
		}
		f.AddClause(c)
	}
	return f
}
