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
	// SAT configures every solver call.
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
}

// Prove runs the k-induction loop for k = 0..maxK. Base and step cases
// both encode the cone of influence of the bad predicate (bmc.Prepare):
// whatever lies outside it cannot change whether a bad state is
// reachable, nor whether the property is k-inductive. Every base case
// runs on one warm at-most-k unroller, which has refuted and retired
// the bounds below k by then, so base(k) adds one frame and asks about
// that frame alone.
func Prove(sys *model.System, maxK int, opts Options) Result {
	red := bmc.Prepare(sys, bmc.Exact)
	base := bmc.NewIncrementalUnroller(red, bmc.IncrementalOptions{
		Semantics: bmc.AtMost,
		Mode:      opts.Mode,
		SAT:       opts.SAT,
	})
	for k := 0; k <= maxK; k++ {
		// Base case: counterexample of length ≤ k?
		b := base.CheckBound(k)
		switch b.Status {
		case bmc.Reachable:
			return Result{Status: Falsified, K: k, Witness: b.Witness, System: b.System}
		case bmc.Unknown:
			return Result{Status: Unknown, K: k}
		}
		// Step case.
		switch stepCase(red, k, opts) {
		case sat.Unsat:
			return Result{Status: Proved, K: k}
		case sat.Unknown:
			return Result{Status: Unknown, K: k}
		}
	}
	return Result{Status: Unknown, K: maxK}
}

// stepCase checks satisfiability of stepFormula. Unsat means the
// property is k-inductive.
func stepCase(sys *model.System, k int, opts Options) sat.Status {
	s := sat.New(opts.SAT)
	if !s.AddFormula(stepFormula(sys, k, opts.Mode)) {
		return sat.Unsat
	}
	return s.Solve()
}

// stepFormula builds the k-induction step case
//
//	path(Z0..Zk+1) ∧ ¬bad(Z0..Zk) ∧ bad(Zk+1) ∧ Z0..Zk pairwise distinct
//
// without the initial-state constraint: k+2 bmc.Frames chained by Step,
// with the bad cone encoded in both polarities at every frame.
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

	addSimplePath(f, stateVars[:steps]) // states 0..k pairwise distinct
	return f
}

// addSimplePath constrains every pair of state vectors to differ in at
// least one bit.
func addSimplePath(f *cnf.Formula, states [][]cnf.Var) {
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			diff := make([]cnf.Lit, 0, len(states[i]))
			for b := range states[i] {
				d := f.NewVar()
				zi, zj := states[i][b], states[j][b]
				// (zi ≠ zj) → d
				f.Add(cnf.PosLit(d), cnf.NegLit(zi), cnf.PosLit(zj))
				f.Add(cnf.PosLit(d), cnf.PosLit(zi), cnf.NegLit(zj))
				// d → (zi ≠ zj), so d cannot be set spuriously
				f.Add(cnf.NegLit(d), cnf.PosLit(zi), cnf.PosLit(zj))
				f.Add(cnf.NegLit(d), cnf.NegLit(zi), cnf.NegLit(zj))
				diff = append(diff, cnf.PosLit(d))
			}
			f.AddClause(cnf.Clause(diff))
		}
	}
}
