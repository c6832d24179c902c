package bmc

import (
	"repro/internal/aig"
	"repro/internal/model"
)

// Prepare returns the system the engines encode for sys under sem: the
// cone of influence of sys.Bad (model.System.Reduce), self-looped under
// AtMost. Latches and inputs the bad predicate cannot see never reach an
// encoding, so jSAT does not enumerate their values and the unrolling
// does not copy them. When the cone keeps every latch and input, the
// cone is sys itself and no copy is made.
//
// Witnesses of engines that encode Prepare's output replay on it; Lift
// carries them back to the caller's model.
func Prepare(sys *model.System, sem Semantics) *model.System {
	red := sys
	if latches, inputs := coneOf(sys); len(latches) < sys.NumStateVars() || len(inputs) < sys.NumInputs() {
		red = sys.Reduce()
	}
	if sem == AtMost {
		return model.AddSelfLoop(red)
	}
	return red
}

// coneOf returns the indices of sys's latches and inputs inside the cone
// of influence of its bad predicate, in declaration order — the order
// Reduce keeps them in.
func coneOf(sys *model.System) (latches, inputs []int) {
	in := aig.Cone(sys.Circ, sys.Bad)
	for i, l := range sys.Circ.Latches() {
		if in[l.Node] {
			latches = append(latches, i)
		}
	}
	for j, il := range sys.Circ.Inputs() {
		if in[il.Node()] {
			inputs = append(inputs, j)
		}
	}
	return latches, inputs
}

// Lift carries an engine's answer on prepared — Prepare(sys, sem), or
// sys.Reduce() for engines that never self-loop — back to the caller's
// model. It returns sys itself, or AddSelfLoop(sys) when prepared is
// self-looped, and w as a trace of that system:
//
//   - inputs outside the cone are false;
//   - latches outside the cone start at their reset value, or false when
//     free;
//   - the full model is re-simulated from there.
//
// Nothing outside the cone feeds a latch inside it or the bad predicate,
// so the cone's latches take the values w gives them and the trace still
// ends in a bad state. When the cone kept everything, w already is a
// trace of the caller's model and comes back unchanged, with sys itself
// or the self-looped prepared. w may be nil; a nil prepared (an answer
// that names no system) returns nil.
func Lift(sys, prepared *model.System, w *Witness) (*model.System, *Witness) {
	if prepared == nil {
		return nil, w
	}
	latches, inputs := coneOf(sys)
	loop := prepared.NumInputs() > len(inputs)
	if len(latches) == sys.NumStateVars() && len(inputs) == sys.NumInputs() {
		if loop {
			return prepared, w
		}
		return sys, w
	}
	full := sys
	if loop {
		full = model.AddSelfLoop(sys)
	}
	if w == nil {
		return full, nil
	}
	lw := &Witness{K: w.K, States: make([][]bool, w.K+1), Inputs: make([][]bool, w.K+1)}
	for t := 0; t <= w.K; t++ {
		in := make([]bool, full.NumInputs())
		for c, j := range inputs {
			in[j] = w.Inputs[t][c]
		}
		if loop {
			in[len(in)-1] = w.Inputs[t][len(inputs)]
		}
		lw.Inputs[t] = in
	}
	s0 := make([]bool, sys.NumStateVars())
	for i, iv := range sys.InitValues() {
		s0[i] = iv.Constrained && iv.Value
	}
	for c, i := range latches {
		s0[i] = w.States[0][c]
	}
	lw.States[0] = s0
	e := aig.NewEvaluator(full.Circ)
	for t := 0; t < w.K; t++ {
		lw.States[t+1], _ = e.StepBool(lw.Inputs[t], lw.States[t])
	}
	return full, lw
}
