package bmc

import (
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/qbf"
	"repro/internal/tseitin"
)

// LinearEncoding is formula (2) of the paper: the QBF formulation of
// bounded reachability with exactly one copy of the transition relation.
//
//	∃Z0..Zk ∀U,V ∃aux:
//	   I(Z0) ∧ F(Zk) ∧ ( ⋁_{t<k} (U↔Z_t ∧ V↔Z_{t+1}) → TR(U,V) )
//
// Increasing the bound adds one state vector and one selector term of
// size O(n) — independent of |TR|.
type LinearEncoding struct {
	P         *cnf.PCNF
	StateVars [][]cnf.Var // Z_0..Z_k
	UVars     []cnf.Var
	VVars     []cnf.Var
	K         int
}

// EncodeLinear builds formula (2) at bound k. For k = 0 the formula
// degenerates to the purely existential I(Z0) ∧ F(Z0).
func EncodeLinear(sys *model.System, k int, mode tseitin.Mode) *LinearEncoding {
	n := sys.NumStateVars()
	p := cnf.NewPCNF()
	f := p.Matrix

	le := &LinearEncoding{P: p, K: k}

	// Outermost existential block: the path Z_0..Z_k.
	var outer []cnf.Var
	le.StateVars = make([][]cnf.Var, k+1)
	for t := 0; t <= k; t++ {
		le.StateVars[t] = f.NewVars(n)
		outer = append(outer, le.StateVars[t]...)
	}

	// Universal block: one pair (U, V) of state vectors.
	var universal []cnf.Var
	if k >= 1 {
		le.UVars = f.NewVars(n)
		le.VVars = f.NewVars(n)
		universal = append(universal, le.UVars...)
		universal = append(universal, le.VVars...)
	}
	innerStart := cnf.Var(f.NumVars() + 1)

	EmitInit(sys, f, le.StateVars[0])
	// F(Zk): bad cone over Z_k with its own (inner-existential) inputs.
	f.AddUnit(NewFrame(sys, f, mode, le.StateVars[k], nil).Bad())

	if k >= 1 {
		// TR(U,V), guarded by trOK: trOK → (v_i ↔ next_i(U,W)).
		trOK := cnf.PosLit(f.NewVar())
		NewFrame(sys, f, mode, le.UVars, nil).Step(le.VVars, trOK)

		// Selector terms: for each t, (U↔Z_t ∧ V↔Z_{t+1}) → trOK.
		for t := 0; t < k; t++ {
			sel := make([]cnf.Lit, 0, 2*n+1)
			for i := 0; i < n; i++ {
				a := matchVar(f, le.UVars[i], le.StateVars[t][i])
				b := matchVar(f, le.VVars[i], le.StateVars[t+1][i])
				sel = append(sel, cnf.NegLit(a), cnf.NegLit(b))
			}
			sel = append(sel, trOK)
			f.AddClause(cnf.Clause(sel))
		}
	}

	// Prefix: ∃ path, ∀ (U,V), ∃ auxiliaries.
	p.AddBlock(cnf.Exists, outer)
	if len(universal) > 0 {
		p.AddBlock(cnf.Forall, universal)
	}
	var inner []cnf.Var
	for v := innerStart; int(v) <= f.NumVars(); v++ {
		inner = append(inner, v)
	}
	p.AddBlock(cnf.Exists, inner)
	return le
}

// matchVar allocates an auxiliary m with (x ↔ y) → m, so that ¬m can
// appear in a selector clause: whenever the two bits are equal, m is
// forced true.
func matchVar(f *cnf.Formula, x, y cnf.Var) cnf.Var {
	m := f.NewVar()
	f.Add(cnf.PosLit(m), cnf.PosLit(x), cnf.PosLit(y))
	f.Add(cnf.PosLit(m), cnf.NegLit(x), cnf.NegLit(y))
	return m
}

// Stats returns the size of the encoded formula.
func (le *LinearEncoding) Stats() FormulaStats {
	return FormulaStats{
		Vars:         le.P.Matrix.NumVars(),
		Clauses:      le.P.Matrix.NumClauses(),
		Literals:     le.P.Matrix.NumLiterals(),
		Bytes:        le.P.SizeBytes(),
		Universals:   le.P.NumUniversals(),
		Alternations: le.P.Alternations(),
	}
}

// LinearOptions configure SolveLinear.
type LinearOptions struct {
	Semantics Semantics
	Mode      tseitin.Mode
	QBF       qbf.Options
}

// SolveLinear runs BMC at bound k through formula (2) and a
// general-purpose QBF solver. It reports reachability only; QBF search
// does not produce a witness trace.
func SolveLinear(sys *model.System, k int, opts LinearOptions) Result {
	prepared := Prepare(sys, opts.Semantics)
	enc := EncodeLinear(prepared, k, opts.Mode)
	s := qbf.New(enc.P, opts.QBF)
	res := Result{K: k, Formula: enc.Stats(), System: prepared}
	switch s.Solve() {
	case qbf.True:
		res.Status = Reachable
	case qbf.False:
		res.Status = Unreachable
	default:
		res.Status = Unknown
	}
	res.Nodes = s.Stats.Nodes
	return res
}
