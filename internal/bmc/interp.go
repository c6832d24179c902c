package bmc

import (
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/tseitin"
)

// InterpEncoding is the partitioned BMC instance the interpolation engine
// refutes: the clause range [0, NumA) is the A partition
//
//	A = R(Z0) ∧ TR(Z0, Z1)
//
// and everything after it the B partition
//
//	B = ⋀_{1≤t<K} TR(Zt, Zt+1) ∧ (Bad(Z1) ∨ … ∨ Bad(ZK)).
//
// The frame layout guarantees the only variables occurring on both sides
// are the frame-1 state variables (StateVars[1]): frame 0's cones and
// R's encoding live entirely in A, and frame 1's own encoding is first
// touched by B (TR(Z0,Z1) encodes the next-state cones in frame 0's
// encoding and merely equates them with frame 1's state variables). A
// McMillan interpolant extracted at that cut is therefore a predicate
// over the latches one step after R — the image operator the fixpoint
// loop iterates.
type InterpEncoding struct {
	F *cnf.Formula
	// StateVars[t][i] / InputVars[t][j] as in UnrollEncoding, t = 0..K.
	StateVars [][]cnf.Var
	InputVars [][]cnf.Var
	// BadLits[t-1] is the CNF literal asserting the bad predicate at
	// frame t, for t = 1..K.
	BadLits []cnf.Lit
	// NumA is the clause count of the A partition: F.Clauses[:NumA] is A,
	// the rest is B.
	NumA int
	K    int
}

// EncodeInterp builds the interpolation query at window k ≥ 1. emitR
// emits the current over-approximation R as clauses over frame 0's state
// variables; nil means R = I (the initial states), which is also the
// iteration whose UNSAT answer proves "no counterexample within k steps"
// and whose SAT answer is a genuine counterexample.
func EncodeInterp(sys *model.System, k int, mode tseitin.Mode, emitR func(f *cnf.Formula, state []cnf.Var)) *InterpEncoding {
	if k < 1 {
		panic("bmc: interpolation window must be >= 1")
	}
	f := &cnf.Formula{}
	e := &InterpEncoding{F: f, K: k}

	frames := make([]Frame, k+1)
	for t := 0; t <= k; t++ {
		frames[t] = NewFrame(sys, f, mode, nil, nil)
		e.StateVars = append(e.StateVars, frames[t].state)
		e.InputVars = append(e.InputVars, frames[t].inputs)
	}

	// A partition. NewFrame emits no clauses, so every clause up to NumA
	// comes from R and the first transition.
	if emitR == nil {
		EmitInit(sys, f, frames[0].state)
	} else {
		emitR(f, frames[0].state)
	}
	frames[0].Step(frames[1].state, cnf.NoLit)
	e.NumA = f.NumClauses()

	// B partition.
	for t := 1; t < k; t++ {
		frames[t].Step(frames[t+1].state, cnf.NoLit)
	}
	bads := make([]cnf.Lit, 0, k)
	for t := 1; t <= k; t++ {
		bads = append(bads, frames[t].Bad())
	}
	e.BadLits = bads
	f.AddClause(bads)
	return e
}

// ReadWitness assembles the trace of frames 0..k from a satisfying
// assignment, for engines that solve an encoding themselves.
func ReadWitness(stateVars, inputVars [][]cnf.Var, k int, s ValueSource) *Witness {
	w := &Witness{K: k}
	for t := 0; t <= k; t++ {
		states := make([]bool, len(stateVars[t]))
		for i, v := range stateVars[t] {
			states[i] = s.Value(v) == cnf.True
		}
		inputs := make([]bool, len(inputVars[t]))
		for j, v := range inputVars[t] {
			inputs[j] = s.Value(v) == cnf.True
		}
		w.States = append(w.States, states)
		w.Inputs = append(w.Inputs, inputs)
	}
	return w
}

// ValueSource is the assignment-reading capability of a SAT solver after
// a satisfiable answer.
type ValueSource interface {
	Value(v cnf.Var) cnf.Value
}
