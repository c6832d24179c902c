// Package tseitin converts And-Inverter Graph cones into CNF. It
// supports the classic Tseitin transformation (one equivalence per AND
// gate) and the polarity-aware Plaisted–Greenbaum variant, which emits
// only the implications required by the context in which a node is used.
// The choice is one of the encoding ablations of experiment E5.
package tseitin

import (
	"repro/internal/aig"
	"repro/internal/cnf"
)

// Mode selects the transformation.
type Mode uint8

// Transformation modes.
const (
	// Full emits node ↔ definition for every gate (both implications).
	Full Mode = iota
	// PlaistedGreenbaum emits only the implication(s) required by the
	// polarity under which each gate is used.
	PlaistedGreenbaum
)

const (
	polPos uint8 = 1 << iota
	polNeg
)

// Encoding instantiates the gates of one graph inside a CNF formula. The
// leaf nodes (inputs and latches) must be bound to CNF variables by the
// caller before any gate above them is requested; BMC binds a distinct
// set of leaf variables per time frame while sharing one Encoding per
// frame.
type Encoding struct {
	G    *aig.Graph
	F    *cnf.Formula
	mode Mode

	vars     []cnf.Var // per node; NoVar = not yet assigned
	emitted  []uint8   // polarity mask of already-emitted gate clauses
	constVar cnf.Var   // variable fixed to false, for constant literals
}

// New returns an encoding of g into f.
func New(g *aig.Graph, f *cnf.Formula, mode Mode) *Encoding {
	return &Encoding{
		G:       g,
		F:       f,
		mode:    mode,
		vars:    make([]cnf.Var, g.NumNodes()),
		emitted: make([]uint8, g.NumNodes()),
	}
}

// Bind associates a leaf node (input or latch) with an existing CNF
// variable. Binding a node twice or binding an AND node panics.
func (e *Encoding) Bind(node uint32, v cnf.Var) {
	if k := e.G.Kind(node); k != aig.KindInput && k != aig.KindLatch {
		panic("tseitin: Bind requires an input or latch node")
	}
	if e.vars[node] != cnf.NoVar {
		panic("tseitin: node bound twice")
	}
	e.vars[node] = v
}

// BindLit is Bind for a positive AIG literal.
func (e *Encoding) BindLit(l aig.Lit, v cnf.Var) {
	if l.IsNeg() {
		panic("tseitin: BindLit requires a positive literal")
	}
	e.Bind(l.Node(), v)
}

// VarOf returns the CNF variable assigned to a node (allocating one for
// gates on demand, but never emitting clauses).
func (e *Encoding) VarOf(node uint32) cnf.Var {
	if e.vars[node] == cnf.NoVar {
		if k := e.G.Kind(node); k == aig.KindInput || k == aig.KindLatch {
			panic("tseitin: leaf node used before Bind")
		}
		e.vars[node] = e.F.NewVar()
	}
	return e.vars[node]
}

// falseLit returns a CNF literal constrained to be false.
func (e *Encoding) falseLit() cnf.Lit {
	if e.constVar == cnf.NoVar {
		e.constVar = e.F.NewVar()
		e.F.AddUnit(cnf.NegLit(e.constVar))
	}
	return cnf.PosLit(e.constVar)
}

// Lit encodes the cone of l with both polarities and returns the CNF
// literal equivalent to l. This is always sound; use LitAssert when the
// literal is only ever asserted true and Plaisted–Greenbaum is wanted.
func (e *Encoding) Lit(l aig.Lit) cnf.Lit {
	return e.encode(l, polPos|polNeg)
}

// LitAssert encodes the cone of l with the polarity needed for asserting
// l to be true. Under Full mode it is identical to Lit.
func (e *Encoding) LitAssert(l aig.Lit) cnf.Lit {
	return e.encode(l, polPos)
}

// encode returns the CNF literal for l, emitting gate clauses for the
// requested polarity mask of l (positive mask bit = contexts where l
// must hold).
func (e *Encoding) encode(l aig.Lit, pol uint8) cnf.Lit {
	if e.mode == Full {
		pol = polPos | polNeg
	}
	node := l.Node()
	if node == 0 {
		fl := e.falseLit()
		if l == aig.True {
			return fl.Neg()
		}
		return fl
	}
	// Polarity of the node itself: negation of the literal swaps it.
	nodePol := pol
	if l.IsNeg() {
		nodePol = swapPol(pol)
	}
	e.encodeNode(node, nodePol)
	v := e.VarOf(node)
	return cnf.MkLit(v, l.IsNeg())
}

func swapPol(p uint8) uint8 {
	out := uint8(0)
	if p&polPos != 0 {
		out |= polNeg
	}
	if p&polNeg != 0 {
		out |= polPos
	}
	return out
}

// encodeNode emits the gate clauses of node (an AND) for the missing
// polarity bits, recursing into fanins.
func (e *Encoding) encodeNode(node uint32, pol uint8) {
	need := pol &^ e.emitted[node]
	if need == 0 {
		return
	}
	if e.G.Kind(node) != aig.KindAnd {
		e.emitted[node] |= need // leaves need no clauses
		return
	}
	e.emitted[node] |= need
	a, b := e.G.AndFanins(node)
	n := cnf.PosLit(e.VarOf(node))

	if need&polPos != 0 {
		// n → a ∧ b, children used with the polarity they appear in.
		la := e.encode(a, polPos)
		lb := e.encode(b, polPos)
		e.F.Add(n.Neg(), la)
		e.F.Add(n.Neg(), lb)
	}
	if need&polNeg != 0 {
		// a ∧ b → n, children used negated.
		la := e.encode(a, polNeg)
		lb := e.encode(b, polNeg)
		e.F.Add(n, la.Neg(), lb.Neg())
	}
}
