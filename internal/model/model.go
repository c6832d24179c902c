// Package model represents finite-state transition systems M = (S, I, TR)
// over And-Inverter Graph circuits, the objects bounded model checking
// operates on. States are valuations of the latches; the initial-state
// predicate I is given by the latch reset values (uninitialized latches
// are unconstrained); the transition relation TR is
//
//	TR(Z, Z') = ∃W: ⋀ᵢ  z'ᵢ ↔ nextᵢ(Z, W)
//
// with W the primary inputs; and the final-state predicate F is a
// designated "bad" output of the circuit (which may also read inputs).
package model

import (
	"fmt"

	"repro/internal/aig"
)

// System is a transition system with a single failure predicate.
type System struct {
	Name string
	Circ *aig.Graph
	Bad  aig.Lit // characteristic function F of the final states
}

// New wraps a circuit and the output index holding the bad predicate.
func New(name string, g *aig.Graph, badOutput int) *System {
	return &System{Name: name, Circ: g, Bad: g.Output(badOutput).L}
}

// NumStateVars returns n, the number of latches (state encoding variables).
func (s *System) NumStateVars() int { return s.Circ.NumLatches() }

// NumInputs returns the number of primary inputs.
func (s *System) NumInputs() int { return s.Circ.NumInputs() }

// String summarizes the system.
func (s *System) String() string {
	return fmt.Sprintf("%s: %v bad=%v", s.Name, s.Circ, s.Bad)
}

// Reduce returns a copy of the system restricted to the cone of
// influence of the bad predicate, rebuilt in canonical node order with
// the bad predicate as its only output. It only reads s, so systems
// may be reduced concurrently.
func (s *System) Reduce() *System {
	// The output takes the name of the first output carrying Bad, or
	// "__bad" when none does. ModelHash hashes the rebuilt circuit and
	// cluster peers compare those hashes, so these names must not change.
	bad := aig.Output{Name: "__bad", L: s.Bad}
	for _, o := range s.Circ.Outputs() {
		if o.L == s.Bad {
			bad = o
			break
		}
	}
	red, _ := aig.ConeOfInfluence(s.Circ, bad)
	return &System{
		Name: s.Name + "/coi",
		Circ: red,
		Bad:  red.Output(0).L, // COI emits exactly the requested output
	}
}

// AddSelfLoop returns a new system whose transition relation is
// TR'(Z,Z') = TR(Z,Z') ∨ (Z = Z'): every state gains a self-loop,
// selected by a fresh primary input appended after the original inputs.
// Reachability in exactly k steps of the result equals reachability in at
// most k steps of the original — the paper's trick for making iterative
// squaring cover non-power-of-two bounds, and for the ≤k semantics of the
// other encoders.
func AddSelfLoop(s *System) *System {
	g := s.Circ
	out := aig.New()
	newLit := make([]aig.Lit, g.NumNodes())
	mapped := make([]bool, g.NumNodes())
	newLit[0], mapped[0] = aig.False, true

	for _, il := range g.Inputs() {
		newLit[il.Node()] = out.AddInput(g.NameOf(il.Node()))
		mapped[il.Node()] = true
	}
	loop := out.AddInput("__selfloop")
	oldLatches := g.Latches()
	newLatchLits := make([]aig.Lit, len(oldLatches))
	for i, l := range oldLatches {
		newLatchLits[i] = out.AddLatch(l.Name, l.Init)
		newLit[l.Node] = newLatchLits[i]
		mapped[l.Node] = true
	}
	var rebuild func(l aig.Lit) aig.Lit
	rebuild = func(l aig.Lit) aig.Lit {
		n := l.Node()
		if !mapped[n] {
			a, b := g.AndFanins(n)
			newLit[n] = out.And(rebuild(a), rebuild(b))
			mapped[n] = true
		}
		if l.IsNeg() {
			return newLit[n].Not()
		}
		return newLit[n]
	}
	for i, l := range oldLatches {
		next := rebuild(l.Next)
		out.SetNext(newLatchLits[i], out.Ite(loop, newLatchLits[i], next))
	}
	for i := 0; i < g.NumOutputs(); i++ {
		o := g.Output(i)
		out.AddOutput(o.Name, rebuild(o.L))
	}
	return &System{
		Name: s.Name + "/loop",
		Circ: out,
		Bad:  rebuild(s.Bad),
	}
}

// InitValue describes the reset constraint of one latch.
type InitValue struct {
	Constrained bool
	Value       bool
}

// InitValues returns the initial-state constraints per latch.
func (s *System) InitValues() []InitValue {
	latches := s.Circ.Latches()
	out := make([]InitValue, len(latches))
	for i, l := range latches {
		switch l.Init {
		case aig.Init0:
			out[i] = InitValue{Constrained: true, Value: false}
		case aig.Init1:
			out[i] = InitValue{Constrained: true, Value: true}
		case aig.InitX:
			out[i] = InitValue{Constrained: false}
		}
	}
	return out
}

// IsInitial reports whether the given state satisfies I.
func (s *System) IsInitial(state []bool) bool {
	for i, iv := range s.InitValues() {
		if iv.Constrained && state[i] != iv.Value {
			return false
		}
	}
	return true
}
