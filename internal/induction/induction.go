// Package induction implements k-induction, the bounded-proof
// completion technique the paper's introduction positions against
// (“induction based methods provide another technique for estimating
// whether a bound is sufficient to ensure a full proof”). Together with
// the BMC engines it turns bounded checks into full safety proofs:
//
//   - base(k): a bad state is reachable from an initial state within k
//     steps — decided by BMC; a hit is a real counterexample.
//   - step(k): any path of k+1 bad-free states (initial or not) cannot
//     be extended to a bad state. If this holds — it is an UNSAT check —
//     the property holds at every depth.
//
// Plain induction is incomplete: a loop of unreachable bad-adjacent
// states defeats it at every k. The classical fix, also implemented
// here, is the simple-path (uniqueness) constraint: all states on the
// step-case path must be pairwise distinct, which bounds the induction
// depth by the recurrence diameter.
//
// Both cases run on persistent solvers that grow by one frame per k.
// The step case adds the simple-path constraint lazily, as Eén and
// Sörensson's temporal induction does ("Temporal Induction by
// Incremental SAT Solving", 2003): only a pair of states that a
// satisfying assignment repeats gets its distinctness clauses.
package induction

import (
	"repro/internal/bmc"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// Status is the outcome of an induction proof attempt.
type Status uint8

// Proof outcomes.
const (
	Unknown   Status = iota // budget or depth limit exhausted
	Proved                  // safe at every depth
	Falsified               // counterexample found (see Witness)
)

// String returns "PROVED", "FALSIFIED" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Proved:
		return "PROVED"
	case Falsified:
		return "FALSIFIED"
	}
	return "UNKNOWN"
}

// Options configure the proof loop.
type Options struct {
	// Mode is the CNF transformation.
	Mode tseitin.Mode
	// SAT configures both solvers; a ConflictBudget applies to each
	// Solve call.
	SAT sat.Options
}

// Result reports a proof attempt.
type Result struct {
	Status  Status
	K       int          // depth at which the proof or refutation closed
	Witness *bmc.Witness // populated on Falsified
	// System is the transition system the witness validates against:
	// the cone of influence of the caller's model, self-looped because
	// base cases answer at-most-k (bmc.IncrementalUnroller.System).
	// bmc.Lift carries both back to the caller's model.
	System *model.System
	// Conflicts counts the CDCL conflicts of the base and the step
	// solver together.
	Conflicts int64
	// PeakBytes is the sum of the two solvers' clause-database high
	// waters (sat.Solver.ClauseDBBytes): both are live for the whole
	// attempt.
	PeakBytes int
}

// Prove runs the k-induction loop for k = 0..maxK. Base and step cases
// both encode the cone of influence of the bad predicate (bmc.Prepare):
// whatever lies outside it cannot change whether a bad state is
// reachable, nor whether the property is k-inductive. Every base case
// runs on one warm at-most-k unroller, which has refuted and retired
// the bounds below k by then, so base(k) adds one frame and asks about
// that frame alone. Every step case runs on one warm stepper, which
// adds one frame per k and only the simple-path pairs its models
// repeat; its verdicts are those of the eager step formula, so Status
// and K are too.
func Prove(sys *model.System, maxK int, opts Options) Result {
	red := bmc.Prepare(sys, bmc.Exact)
	base := bmc.NewIncrementalUnroller(red, bmc.IncrementalOptions{
		Semantics: bmc.AtMost,
		Mode:      opts.Mode,
		SAT:       opts.SAT,
	})
	step := newStepper(red, opts)
	result := func(st Status, k int) Result {
		bs := base.Stats()
		return Result{
			Status:    st,
			K:         k,
			Conflicts: bs.Conflicts + step.s.Stats.Conflicts,
			PeakBytes: bs.PeakBytes + step.peak,
		}
	}
	for k := 0; k <= maxK; k++ {
		// Base case: counterexample of length ≤ k?
		b := base.CheckBound(k)
		switch b.Status {
		case bmc.Reachable:
			r := result(Falsified, k)
			r.Witness, r.System = b.Witness, b.System
			return r
		case bmc.Unknown:
			return result(Unknown, k)
		}
		switch step.check(k) {
		case sat.Unsat:
			return result(Proved, k)
		case sat.Unknown:
			return result(Unknown, k)
		}
	}
	return result(Unknown, maxK)
}

// stepper is the k-induction step case on one persistent solver. At
// bound k it holds frames Z0..Zk+1 of the cone, chained by
// bmc.Frame.Step, and the units ¬bad(Zt) for t ≤ k, which stay valid
// at every larger bound; bad(Zk+1) is the query's only assumption.
// Simple-path pairs are loaded lazily: when a model repeats a state
// among Z0..Zk, that pair's distinctness clauses are added and the
// query is solved again. A model whose states are pairwise distinct
// satisfies the eager step formula, and a query refuted under some of
// the pairs is refuted under all of them, so every answer is the eager
// formula's.
type stepper struct {
	sys  *model.System
	mode tseitin.Mode
	s    *sat.Solver
	// f stages the clauses frames and pairs emit until flush loads
	// them into the solver; only its variable counter keeps growing.
	f       *cnf.Formula
	frames  []bmc.Frame
	states  [][]cnf.Var // states[t] is Zt's latch vector
	bads    []cnf.Lit   // bads[t] is bad(Zt), encoded in both polarities
	retired int         // ¬bad(Zt) is a unit for every t ≤ retired
	pairs   int         // simple-path pairs loaded so far
	peak    int         // the solver's ClauseDBBytes high water
	// seen and key are separateRepeats' scratch: the latest frame of
	// each state of the model, keyed by its bits.
	seen map[string]int
	key  []byte
}

// newStepper returns a stepper for sys with no frames yet.
func newStepper(sys *model.System, opts Options) *stepper {
	return &stepper{
		sys:     sys,
		mode:    opts.Mode,
		s:       sat.New(opts.SAT),
		f:       &cnf.Formula{},
		retired: -1,
		seen:    map[string]int{},
		key:     make([]byte, sys.NumStateVars()),
	}
}

// check answers step(k): Unsat means the property is k-inductive. k
// must not decrease from one call to the next; Prove asks 0, 1, 2, …
func (st *stepper) check(k int) sat.Status {
	st.extend(k)
	for {
		st.flush()
		res := st.s.Solve(st.bads[k+1])
		st.peak = max(st.peak, st.s.ClauseDBBytes())
		if res != sat.Sat || !st.separateRepeats(k) {
			return res
		}
	}
}

// extend stages frames up to Zk+1 and the units ¬bad(Zt) for t ≤ k.
func (st *stepper) extend(k int) {
	for t := len(st.frames); t <= k+1; t++ {
		state := st.f.NewVars(st.sys.NumStateVars())
		fr := bmc.NewFrame(st.sys, st.f, st.mode, state, nil)
		if t > 0 {
			st.frames[t-1].Step(state, cnf.NoLit)
		}
		st.frames = append(st.frames, fr)
		st.states = append(st.states, state)
		st.bads = append(st.bads, fr.Lit(st.sys.Bad))
	}
	for ; st.retired < k; st.retired++ {
		st.f.AddUnit(st.bads[st.retired+1].Neg())
	}
}

// flush loads everything staged in f into the solver and drops the
// staged clauses.
func (st *stepper) flush() {
	st.s.AddFormula(st.f)
	clear(st.f.Clauses)
	st.f.Clauses = st.f.Clauses[:0]
	st.peak = max(st.peak, st.s.ClauseDBBytes())
}

// separateRepeats reads states Z0..Zk from the last model and stages
// the distinctness clauses of every state with the latest earlier state
// it repeats. It reports whether it found a repeat; a pair once loaded
// is never repeated again.
func (st *stepper) separateRepeats(k int) bool {
	clear(st.seen)
	found := false
	for t := 0; t <= k; t++ {
		for b, v := range st.states[t] {
			st.key[b] = byte(st.s.Value(v))
		}
		if i, ok := st.seen[string(st.key)]; ok {
			addDistinct(st.f, st.states[i], st.states[t])
			st.pairs++
			found = true
		}
		st.seen[string(st.key)] = t
	}
	return found
}

// addDistinct constrains two state vectors to differ in at least one
// bit: one fresh variable per bit, defined as the bits' inequality,
// and one clause over them.
func addDistinct(f *cnf.Formula, a, b []cnf.Var) {
	diff := make(cnf.Clause, 0, len(a))
	for i := range a {
		d := f.NewVar()
		za, zb := a[i], b[i]
		// (za ≠ zb) → d
		f.Add(cnf.PosLit(d), cnf.NegLit(za), cnf.PosLit(zb))
		f.Add(cnf.PosLit(d), cnf.PosLit(za), cnf.NegLit(zb))
		// d → (za ≠ zb), so d cannot be set spuriously
		f.Add(cnf.NegLit(d), cnf.PosLit(za), cnf.PosLit(zb))
		f.Add(cnf.NegLit(d), cnf.NegLit(za), cnf.NegLit(zb))
		diff = append(diff, cnf.PosLit(d))
	}
	f.AddClause(diff)
}
