package bmc

import (
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// UnrollEncoding is the classical BMC instance: formula (1) of the
// paper, with k copies of the transition relation.
type UnrollEncoding struct {
	F *cnf.Formula
	// StateVars[t][i] is the CNF variable of latch i at time t, for
	// t = 0..K.
	StateVars [][]cnf.Var
	// InputVars[t][j] is the CNF variable of input j at time t. Frame K
	// exists because the bad predicate may read inputs.
	InputVars [][]cnf.Var
	K         int
}

// EncodeUnroll builds formula (1):
//
//	I(Z0) ∧ F(Zk) ∧ ⋀_{t<k} TR(Z_t, Z_{t+1})
//
// as a propositional CNF. Each time frame instantiates a fresh copy of
// the transition relation, so the formula grows by |TR| per bound step —
// the memory behaviour the paper sets out to avoid.
func EncodeUnroll(sys *model.System, k int, mode tseitin.Mode) *UnrollEncoding {
	f := &cnf.Formula{}
	u := &UnrollEncoding{F: f, K: k}

	frames := make([]Frame, k+1)
	for t := 0; t <= k; t++ {
		frames[t] = NewFrame(sys, f, mode, nil, nil)
		u.StateVars = append(u.StateVars, frames[t].state)
		u.InputVars = append(u.InputVars, frames[t].inputs)
	}
	EmitInit(sys, f, frames[0].state)
	for t := 0; t < k; t++ {
		frames[t].Step(frames[t+1].state, cnf.NoLit)
	}
	f.AddUnit(frames[k].Bad())
	return u
}

// Stats returns the size of the encoded formula.
func (u *UnrollEncoding) Stats() FormulaStats {
	return FormulaStats{
		Vars:     u.F.NumVars(),
		Clauses:  u.F.NumClauses(),
		Literals: u.F.NumLiterals(),
		Bytes:    u.F.SizeBytes(),
	}
}

// UnrollOptions configure SolveUnroll.
type UnrollOptions struct {
	Semantics Semantics
	Mode      tseitin.Mode
	SAT       sat.Options
}

// SolveUnroll runs classical SAT-based BMC at bound k.
func SolveUnroll(sys *model.System, k int, opts UnrollOptions) Result {
	prepared := Prepare(sys, opts.Semantics)
	enc := EncodeUnroll(prepared, k, opts.Mode)
	s := sat.New(opts.SAT)
	s.AddFormula(enc.F) // a refuted load leaves Solve answering Unsat
	res := Result{K: k, Formula: enc.Stats(), System: prepared}
	switch s.Solve() {
	case sat.Sat:
		res.Status = Reachable
		res.Witness = ReadWitness(enc.StateVars, enc.InputVars, enc.K, s)
	case sat.Unsat:
		res.Status = Unreachable
	default:
		res.Status = Unknown
	}
	res.Conflicts = s.Stats.Conflicts
	res.PeakBytes = s.ClauseDBBytes()
	return res
}
