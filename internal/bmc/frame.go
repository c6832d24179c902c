package bmc

import (
	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/tseitin"
)

// Frame is one time step of a transition system inside a formula: one
// CNF variable per latch (the step's state) and one per input, bound as
// the leaves of a per-step Tseitin encoding of the circuit. It is the
// only place a time step is encoded. The paper's formulations differ
// just in how they chain frames: formula (1) links k+1 frames by Step
// (EncodeUnroll, the incremental unroller, EncodeInterp); formulas (2)
// and (3) take one guarded Step from the universal pair (EncodeLinear,
// EncodeSquaring); jSAT's step solver holds a single Step, and the
// k-induction step case and the invariant check chain their own.
type Frame struct {
	sys    *model.System
	enc    *tseitin.Encoding
	state  []cnf.Var
	inputs []cnf.Var
}

// NewFrame binds a time step of sys over the given variables: state
// holds one per latch and inputs one per input. A nil vector is
// allocated fresh in f, state first. NewFrame emits no clauses; the
// cones Step, Bad and Lit ask for are encoded on first use.
func NewFrame(sys *model.System, f *cnf.Formula, mode tseitin.Mode, state, inputs []cnf.Var) Frame {
	g := sys.Circ
	if state == nil {
		state = f.NewVars(g.NumLatches())
	}
	if inputs == nil {
		inputs = f.NewVars(g.NumInputs())
	}
	fr := Frame{sys: sys, enc: tseitin.New(g, f, mode), state: state, inputs: inputs}
	for i := 0; i < g.NumLatches(); i++ {
		fr.enc.BindLit(g.LatchLit(i), state[i])
	}
	for j, il := range g.Inputs() {
		fr.enc.BindLit(il, inputs[j])
	}
	return fr
}

// EmitInit emits I(state): a unit clause per latch of sys with a reset
// value.
func EmitInit(sys *model.System, f *cnf.Formula, state []cnf.Var) {
	for i, iv := range sys.InitValues() {
		if iv.Constrained {
			f.AddUnit(cnf.MkLit(state[i], !iv.Value))
		}
	}
}

// Step emits one copy of the transition relation TR(fr, next): each
// variable of next equals its latch's next-state function over fr's
// leaves. Unless guard is cnf.NoLit, every clause is guarded by it
// (guard → TR), as the QBF formulas need.
func (fr Frame) Step(next []cnf.Var, guard cnf.Lit) {
	f := fr.enc.F
	latches := fr.sys.Circ.Latches()
	for i := range latches {
		nl := fr.enc.Lit(latches[i].Next)
		v := cnf.PosLit(next[i])
		if guard == cnf.NoLit {
			f.Add(v.Neg(), nl)
			f.Add(v, nl.Neg())
		} else {
			f.Add(guard.Neg(), v.Neg(), nl)
			f.Add(guard.Neg(), v, nl.Neg())
		}
	}
}

// Bad encodes the bad cone over fr in assertion polarity and returns
// the literal that is true iff the bad predicate holds at this step.
func (fr Frame) Bad() cnf.Lit { return fr.enc.LitAssert(fr.sys.Bad) }

// Lit encodes the cone of l over fr in both polarities and returns the
// literal equivalent to l at this step.
func (fr Frame) Lit(l aig.Lit) cnf.Lit { return fr.enc.Lit(l) }
