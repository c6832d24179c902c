package induction

import (
	"fmt"
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/msl"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// loopySrc has an unreachable good 2-cycle (states 4,5) adjacent to the
// bad state 6: plain induction fails at every depth, the simple-path
// constraint closes the proof.
const loopySrc = `
model loopy
input go;
var s : 3 = 0;
next s = s == 0 ? 1
       : s == 1 ? 2
       : s == 2 ? 0
       : s == 4 ? 5
       : s == 5 ? (go ? 6 : 4)
       : s == 6 ? 6
       : 0;
bad s == 6;
`

// stepFormula is the eager k-induction step case, the reference the
// stepper's answers are checked against:
//
//	path(Z0..Zk+1) ∧ ¬bad(Z0..Zk) ∧ bad(Zk+1) ∧ Z0..Zk pairwise distinct
//
// without the initial-state constraint: k+2 bmc.Frames chained by Step,
// with the bad cone encoded in both polarities at every frame, and all
// k(k+1)/2 simple-path pairs.
func stepFormula(sys *model.System, k int, mode tseitin.Mode) *cnf.Formula {
	f := &cnf.Formula{}
	steps := k + 1 // transitions in the step case
	stateVars := make([][]cnf.Var, steps+1)
	frames := make([]bmc.Frame, steps+1)
	for t := 0; t <= steps; t++ {
		stateVars[t] = f.NewVars(sys.NumStateVars())
		frames[t] = bmc.NewFrame(sys, f, mode, stateVars[t], nil)
	}

	badLits := make([]cnf.Lit, steps+1)
	for t, fr := range frames {
		if t < steps {
			fr.Step(stateVars[t+1], cnf.NoLit)
		}
		badLits[t] = fr.Lit(sys.Bad)
	}
	// Bad-free prefix, bad at the end.
	for t := 0; t < steps; t++ {
		f.AddUnit(badLits[t].Neg())
	}
	f.AddUnit(badLits[steps])

	// States 0..k pairwise distinct.
	for i := 0; i < steps; i++ {
		for j := i + 1; j < steps; j++ {
			addDistinct(f, stateVars[i], stateVars[j])
		}
	}
	return f
}

// eagerStep answers step(k) from stepFormula on a fresh solver.
func eagerStep(sys *model.System, k int, mode tseitin.Mode) sat.Status {
	s := sat.New(sat.Options{})
	s.AddFormula(stepFormula(sys, k, mode))
	return s.Solve()
}

// stepMatrix is the model set the stepper is checked against the eager
// reference on: the pinned families, the random AIGs
// TestFalsifiedAtShortestDepth runs, and loopy and Arbiter(2), whose
// proofs need the simple-path constraint.
func stepMatrix(t *testing.T) []family {
	m := pinnedFamilies(t)
	for seed := int64(600); seed < 624; seed++ {
		sys := circuits.RandomAIG(seed, 1+int(seed%3), 2+int(seed%4), 4+int(seed%17), 2)
		m = append(m, family{fmt.Sprintf("random%d", seed), sys})
	}
	loopy, err := msl.Load(loopySrc)
	if err != nil {
		t.Fatal(err)
	}
	return append(m, family{"loopy", loopy}, family{"arbiter2", circuits.Arbiter(2)})
}

var modes = []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum}

// TestStepMatchesEager runs one warm stepper through step(0)..step(12)
// on every model of the matrix, on the cone as Prove encodes it, and
// compares each answer with a fresh solver's on the eager formula.
func TestStepMatchesEager(t *testing.T) {
	for _, m := range stepMatrix(t) {
		for _, mode := range modes {
			sys := bmc.Prepare(m.sys, bmc.Exact)
			st := newStepper(sys, Options{Mode: mode})
			for k := 0; k <= 12; k++ {
				if got, want := st.check(k), eagerStep(sys, k, mode); got != want {
					t.Errorf("%s mode=%d: step(%d) %v, eager formula %v", m.name, mode, k, got, want)
				}
			}
		}
	}
}

// proveEager is the k-induction loop Prove runs, built from fresh
// solvers: a monolithic at-most-k unrolling for each base case and the
// eager formula for each step case.
func proveEager(sys *model.System, maxK int, mode tseitin.Mode) (Status, int) {
	red := bmc.Prepare(sys, bmc.Exact)
	for k := 0; k <= maxK; k++ {
		switch bmc.SolveUnroll(red, k, bmc.UnrollOptions{Semantics: bmc.AtMost, Mode: mode}).Status {
		case bmc.Reachable:
			return Falsified, k
		case bmc.Unknown:
			return Unknown, k
		}
		switch eagerStep(red, k, mode) {
		case sat.Unsat:
			return Proved, k
		case sat.Unknown:
			return Unknown, k
		}
	}
	return Unknown, maxK
}

// TestProveMatchesEagerLoop checks Prove's Status and K against the
// loop of fresh solvers on the whole matrix.
func TestProveMatchesEagerLoop(t *testing.T) {
	for _, m := range stepMatrix(t) {
		for _, mode := range modes {
			r := Prove(m.sys, 12, Options{Mode: mode})
			if st, k := proveEager(m.sys, 12, mode); r.Status != st || r.K != k {
				t.Errorf("%s mode=%d: Prove %v at %d, eager loop %v at %d", m.name, mode, r.Status, r.K, st, k)
			}
		}
	}
}

// TestStepLoadsFewPairs pins the laziness: on the benchmark's fifo
// model the stepper answers step(0)..step(15) with at most half of the
// 120 simple-path pairs the eager formula carries at k = 15.
func TestStepLoadsFewPairs(t *testing.T) {
	sys := bmc.Prepare(circuits.WithNoise(circuits.FIFO(4), 6), bmc.Exact)
	st := newStepper(sys, Options{})
	for k := 0; k <= 15; k++ {
		if got := st.check(k); got != sat.Sat {
			t.Fatalf("step(%d) %v, want SAT", k, got)
		}
	}
	eager := 15 * 16 / 2
	t.Logf("%d of %d simple-path pairs loaded", st.pairs, eager)
	if st.pairs == 0 || 2*st.pairs > eager {
		t.Fatalf("stepper loaded %d simple-path pairs by k = 15, want 1..%d of %d", st.pairs, eager/2, eager)
	}
}

// TestProveReportsSolverWork checks Result's accounting: Prove's
// conflicts and peak bytes are those of a lone base unroller plus a
// lone stepper asked the bounds Prove asks them, every base(k) up to K
// and every step(k) the base case lets through.
func TestProveReportsSolverWork(t *testing.T) {
	for _, sys := range []*model.System{
		circuits.WithNoise(circuits.FIFO(4), 6),
		circuits.Counter(4, 9),
		circuits.ParityGuard(6),
	} {
		r := Prove(sys, 20, Options{})
		red := bmc.Prepare(sys, bmc.Exact)
		u := bmc.NewIncrementalUnroller(red, bmc.IncrementalOptions{Semantics: bmc.AtMost})
		st := newStepper(red, Options{})
		for k := 0; k <= r.K; k++ {
			u.CheckBound(k)
			if k < r.K || r.Status != Falsified {
				st.check(k)
			}
		}
		base := u.Stats()
		conflicts, peak := base.Conflicts+st.s.Stats.Conflicts, base.PeakBytes+st.peak
		if r.Conflicts != conflicts || r.PeakBytes != peak || st.peak == 0 {
			t.Errorf("%s: %v at %d reports %d conflicts and %d peak bytes, want %d and %d (step solver %d bytes)",
				sys.Name, r.Status, r.K, r.Conflicts, r.PeakBytes, conflicts, peak, st.peak)
		}
	}
}
