package aig

import (
	"math/rand"
	"testing"
)

func TestLitBasics(t *testing.T) {
	l := MkLit(5, false)
	if l.Node() != 5 || l.IsNeg() {
		t.Fatalf("MkLit broken")
	}
	if l.Not().Node() != 5 || !l.Not().IsNeg() {
		t.Fatalf("Not broken")
	}
	if l.Not().Not() != l {
		t.Fatalf("Not not involutive")
	}
	if True != False.Not() {
		t.Fatalf("constants not dual")
	}
}

func TestAndFolding(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	cases := []struct {
		got, want Lit
		name      string
	}{
		{g.And(False, a), False, "0∧a"},
		{g.And(a, False), False, "a∧0"},
		{g.And(True, a), a, "1∧a"},
		{g.And(a, True), a, "a∧1"},
		{g.And(a, a), a, "a∧a"},
		{g.And(a, a.Not()), False, "a∧¬a"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	ab1 := g.And(a, b)
	ab2 := g.And(b, a)
	if ab1 != ab2 {
		t.Errorf("structural hashing missed commuted operands")
	}
	if g.NumAnds() != 1 {
		t.Errorf("expected exactly one AND node, have %d", g.NumAnds())
	}
}

func TestDerivedGates(t *testing.T) {
	g := New()
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	e := NewEvaluator(g)

	// Exhaustive truth-table check via bit-parallel lanes: 8 lanes cover
	// all input combinations.
	const (
		wa Word = 0xF0 // a pattern over 8 lanes
		wb Word = 0xCC
		wc Word = 0xAA
	)
	gates := []struct {
		name string
		l    Lit
		want Word
	}{
		{"and", g.And(a, b), wa & wb},
		{"or", g.Or(a, b), wa | wb},
		{"xor", g.Xor(a, b), wa ^ wb},
		{"iff", g.Iff(a, b), ^(wa ^ wb)},
		{"implies", g.Implies(a, b), ^wa | wb},
		{"ite", g.Ite(a, b, c), wa&wb | ^wa&wc},
		{"andn", g.AndN(a, b, c), wa & wb & wc},
		{"orn", g.OrN(a, b, c), wa | wb | wc},
	}
	e.Run([]Word{wa, wb, wc}, nil)
	const mask = 0xFF
	for _, gt := range gates {
		if got := e.Lit(gt.l) & mask; got != gt.want&mask {
			t.Errorf("%s: got %08b want %08b", gt.name, got, gt.want&mask)
		}
	}
}

func TestEqVec(t *testing.T) {
	g := New()
	a := []Lit{g.AddInput("a0"), g.AddInput("a1")}
	b := []Lit{g.AddInput("b0"), g.AddInput("b1")}
	eq := g.EqVec(a, b)
	e := NewEvaluator(g)
	for bits := 0; bits < 16; bits++ {
		in := []Word{Word(bits & 1), Word(bits >> 1 & 1), Word(bits >> 2 & 1), Word(bits >> 3 & 1)}
		e.Run(in, nil)
		want := bits&1 == bits>>2&1 && bits>>1&1 == bits>>3&1
		if e.LitBool(eq) != want {
			t.Errorf("bits %04b: eq=%v want %v", bits, e.LitBool(eq), want)
		}
	}
}

func TestVectorArith(t *testing.T) {
	g := New()
	const n = 4
	a := make([]Lit, n)
	b := make([]Lit, n)
	for i := range a {
		a[i] = g.AddInput("")
	}
	for i := range b {
		b[i] = g.AddInput("")
	}
	sum, cout := g.AddVec(a, b, False)
	lt := g.LtVec(a, b)
	e := NewEvaluator(g)
	for av := 0; av < 16; av++ {
		for bv := 0; bv < 16; bv++ {
			in := make([]Word, 2*n)
			for i := 0; i < n; i++ {
				in[i] = Word(av >> i & 1)
				in[n+i] = Word(bv >> i & 1)
			}
			e.Run(in, nil)
			got := 0
			for i := 0; i < n; i++ {
				if e.LitBool(sum[i]) {
					got |= 1 << i
				}
			}
			if got != (av+bv)&0xF {
				t.Fatalf("%d+%d: sum=%d want %d", av, bv, got, (av+bv)&0xF)
			}
			if e.LitBool(cout) != (av+bv > 15) {
				t.Fatalf("%d+%d: cout wrong", av, bv)
			}
			if e.LitBool(lt) != (av < bv) {
				t.Fatalf("%d<%d: lt=%v", av, bv, e.LitBool(lt))
			}
		}
	}
}

func TestIncVecAndEqConst(t *testing.T) {
	g := New()
	const n = 3
	a := make([]Lit, n)
	for i := range a {
		a[i] = g.AddInput("")
	}
	inc, _ := g.IncVec(a)
	eq5 := g.EqConst(a, 5)
	e := NewEvaluator(g)
	for av := 0; av < 8; av++ {
		in := make([]Word, n)
		for i := 0; i < n; i++ {
			in[i] = Word(av >> i & 1)
		}
		e.Run(in, nil)
		got := 0
		for i := 0; i < n; i++ {
			if e.LitBool(inc[i]) {
				got |= 1 << i
			}
		}
		if got != (av+1)&7 {
			t.Fatalf("inc(%d)=%d", av, got)
		}
		if e.LitBool(eq5) != (av == 5) {
			t.Fatalf("eq5(%d)=%v", av, e.LitBool(eq5))
		}
	}
}

func TestShiftRotate(t *testing.T) {
	a := []Lit{2, 4, 6} // arbitrary distinct literals
	s := ShiftLeft(a, True)
	if s[0] != True || s[1] != 2 || s[2] != 4 {
		t.Fatalf("shift wrong: %v", s)
	}
	r := RotateLeft(a)
	if r[0] != 6 || r[1] != 2 || r[2] != 4 {
		t.Fatalf("rotate wrong: %v", r)
	}
}

// buildCounter returns an n-bit counter with a "hit" output at target.
func buildCounter(n int, target uint64) *Graph {
	g := New()
	state := make([]Lit, n)
	for i := range state {
		state[i] = g.AddLatch("", Init0)
	}
	next, _ := g.IncVec(state)
	for i := range state {
		g.SetNext(state[i], next[i])
	}
	g.AddOutput("hit", g.EqConst(state, target))
	return g
}

func TestLatchSimulation(t *testing.T) {
	g := buildCounter(4, 9)
	e := NewEvaluator(g)
	state, free := InitialStates(g)
	if len(free) != 0 {
		t.Fatalf("counter latches should be initialized")
	}
	for step := 0; step < 20; step++ {
		next, outs := e.StepBool(nil, state)
		wantHit := step == 9
		if outs[0] != wantHit {
			t.Fatalf("step %d: hit=%v want %v", step, outs[0], wantHit)
		}
		state = next
	}
}

func TestSetNextPanics(t *testing.T) {
	g := New()
	in := g.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatalf("SetNext on input should panic")
		}
	}()
	g.SetNext(in, True)
}

func TestConeOfInfluence(t *testing.T) {
	g := New()
	// Two independent counters; output depends only on the first.
	a0 := g.AddLatch("a0", Init0)
	a1 := g.AddLatch("a1", Init0)
	b0 := g.AddLatch("b0", Init0)
	g.SetNext(a0, a0.Not())
	g.SetNext(a1, g.Xor(a1, a0))
	g.SetNext(b0, b0.Not())
	g.AddOutput("o", g.And(a0, a1))

	red, latchMap := ConeOfInfluence(g, g.Output(0))
	if red.NumLatches() != 2 {
		t.Fatalf("cone should keep 2 latches, has %d", red.NumLatches())
	}
	if latchMap[0] < 0 || latchMap[1] < 0 || latchMap[2] != -1 {
		t.Fatalf("latch map wrong: %v", latchMap)
	}
	// Behaviour preserved: simulate both for a few steps.
	eg, er := NewEvaluator(g), NewEvaluator(red)
	sg, _ := InitialStates(g)
	sr, _ := InitialStates(red)
	for step := 0; step < 8; step++ {
		var og, or []bool
		sg, og = eg.StepBool(nil, sg)
		sr, or = er.StepBool(nil, sr)
		if og[0] != or[0] {
			t.Fatalf("step %d: outputs diverge", step)
		}
	}
}

func TestConeOfInfluenceChainedLatches(t *testing.T) {
	g := New()
	// l0 <- l1 <- l2, output reads l0; all three must stay.
	l0 := g.AddLatch("l0", Init0)
	l1 := g.AddLatch("l1", Init1)
	l2 := g.AddLatch("l2", Init0)
	g.SetNext(l0, l1)
	g.SetNext(l1, l2)
	g.SetNext(l2, l2.Not())
	g.AddOutput("o", l0)
	red, _ := ConeOfInfluence(g, g.Output(0))
	if red.NumLatches() != 3 {
		t.Fatalf("chained cone should keep 3 latches, has %d", red.NumLatches())
	}
}

// randomGraph builds a random combinational+sequential graph for fuzzing.
func randomGraph(rng *rand.Rand, nIn, nLatch, nAnd int) *Graph {
	g := New()
	var pool []Lit
	pool = append(pool, True)
	for i := 0; i < nIn; i++ {
		pool = append(pool, g.AddInput(""))
	}
	latches := make([]Lit, nLatch)
	for i := range latches {
		latches[i] = g.AddLatch("", Init(rng.Intn(2)))
		pool = append(pool, latches[i])
	}
	pick := func() Lit {
		l := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	for i := 0; i < nAnd; i++ {
		pool = append(pool, g.And(pick(), pick()))
	}
	for _, l := range latches {
		g.SetNext(l, pick())
	}
	g.AddOutput("o", pick())
	return g
}

func TestAAGRoundtripSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		g := randomGraph(rng, 3, 3, 15)
		var sbOrig, sbBack simBehaviour
		sbOrig = simulate(t, g, 16, rng)

		var b []byte
		{
			var err error
			b, err = encodeAAG(g)
			if err != nil {
				t.Fatal(err)
			}
		}
		back, err := parseAAGBytes(b)
		if err != nil {
			t.Fatalf("iter %d: parse back: %v\n%s", iter, err, b)
		}
		rng2 := rand.New(rand.NewSource(3 + int64(iter)))
		_ = rng2
		sbBack = simulate(t, back, 16, rand.New(rand.NewSource(99)))
		sbOrig = simulate(t, g, 16, rand.New(rand.NewSource(99)))
		if sbOrig != sbBack {
			t.Fatalf("iter %d: behaviour differs after AAG roundtrip", iter)
		}
	}
}

type simBehaviour uint64

// simulate runs nSteps with deterministic pseudo-random inputs and folds
// the output stream into a signature.
func simulate(t *testing.T, g *Graph, nSteps int, rng *rand.Rand) simBehaviour {
	t.Helper()
	e := NewEvaluator(g)
	state, free := InitialStates(g)
	for _, fi := range free {
		state[fi] = rng.Intn(2) == 1
	}
	var sig uint64
	for step := 0; step < nSteps; step++ {
		in := make([]bool, g.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		next, outs := e.StepBool(in, state)
		for _, o := range outs {
			sig = sig<<1 | 1
			if !o {
				sig ^= 1
			}
		}
		state = next
	}
	return simBehaviour(sig)
}
