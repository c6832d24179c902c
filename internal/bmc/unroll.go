package bmc

import (
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// frame is one time step of an unrolling: the leaf (state and input)
// variables of the step plus the Tseitin encoding of the circuit cones
// rooted at that step. Both the monolithic encoder (EncodeUnroll) and
// the persistent-solver path (IncrementalUnroller) are built from the
// same four frame operations below, so the two engines emit literally
// the same clauses per frame.
type frame struct {
	enc    *tseitin.Encoding
	state  []cnf.Var
	inputs []cnf.Var
}

// newFrame allocates the leaf variables of one time step in f and binds
// them into a fresh per-frame encoding of the circuit.
func newFrame(sys *model.System, f *cnf.Formula, mode tseitin.Mode) frame {
	g := sys.Circ
	fr := frame{
		enc:    tseitin.New(g, f, mode),
		state:  f.NewVars(g.NumLatches()),
		inputs: f.NewVars(g.NumInputs()),
	}
	for i := 0; i < g.NumLatches(); i++ {
		fr.enc.BindLit(g.LatchLit(i), fr.state[i])
	}
	for j, il := range g.Inputs() {
		fr.enc.BindLit(il, fr.inputs[j])
	}
	return fr
}

// emitInit emits I(Z0): unit constraints from the latch reset values
// over fr's state variables.
func emitInit(sys *model.System, f *cnf.Formula, fr frame) {
	for i, iv := range sys.InitValues() {
		if iv.Constrained {
			f.AddUnit(cnf.MkLit(fr.state[i], !iv.Value))
		}
	}
}

// emitTransition emits one copy of TR(fr, next): clauses equating each
// of next's state variables with the corresponding next-state function
// evaluated over fr's leaves.
func emitTransition(sys *model.System, f *cnf.Formula, fr, next frame) {
	latches := sys.Circ.Latches()
	for i := range latches {
		nl := fr.enc.Lit(latches[i].Next)
		v := cnf.PosLit(next.state[i])
		f.Add(v.Neg(), nl)
		f.Add(v, nl.Neg())
	}
}

// emitBad encodes the bad cone over fr (assertion polarity) and returns
// the CNF literal that is true iff the bad predicate holds at fr.
func emitBad(sys *model.System, fr frame) cnf.Lit {
	return fr.enc.LitAssert(sys.Bad)
}

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

	frames := make([]frame, k+1)
	for t := 0; t <= k; t++ {
		frames[t] = newFrame(sys, f, mode)
		u.StateVars = append(u.StateVars, frames[t].state)
		u.InputVars = append(u.InputVars, frames[t].inputs)
	}
	emitInit(sys, f, frames[0])
	for t := 0; t < k; t++ {
		emitTransition(sys, f, frames[t], frames[t+1])
	}
	f.AddUnit(emitBad(sys, frames[k]))
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
		res.Witness = readWitness(enc.StateVars, enc.InputVars, enc.K, s)
	case sat.Unsat:
		res.Status = Unreachable
	default:
		res.Status = Unknown
	}
	res.Conflicts = s.Stats.Conflicts
	res.PeakBytes = s.ClauseDBBytes()
	return res
}

// readWitness assembles the trace of frames 0..k from a satisfying
// assignment over the per-frame leaf variables.
func readWitness(stateVars, inputVars [][]cnf.Var, k int, s *sat.Solver) *Witness {
	return ReadWitness(stateVars, inputVars, k, s)
}
