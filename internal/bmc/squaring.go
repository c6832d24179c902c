package bmc

import (
	"fmt"
	"math/bits"

	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/qbf"
	"repro/internal/tseitin"
)

// SquaringEncoding is formula (3) of the paper: iterative squaring.
// R_k is defined from R_{k/2} by universally choosing one of the two
// half-segments:
//
//	R_k(S,T) = ∃M ∀A,B ( (A↔S ∧ B↔M) ∨ (A↔M ∧ B↔T) → R_{k/2}(A,B) )
//
// After prenexing, each squaring level contributes an existential
// midpoint block followed by a universal pair block, so the number of
// quantifier alternations grows by two per level while the transition
// relation still appears exactly once, at the innermost level.
type SquaringEncoding struct {
	P      *cnf.PCNF
	Z0Vars []cnf.Var
	ZkVars []cnf.Var
	Levels int // log2 k
	K      int
}

// EncodeSquaring builds formula (3) at bound k, which must be a power of
// two (or zero). Use the AtMost semantics (self-loop) to cover other
// bounds, as the paper prescribes.
func EncodeSquaring(sys *model.System, k int, mode tseitin.Mode) (*SquaringEncoding, error) {
	if k < 0 || (k != 0 && k&(k-1) != 0) {
		return nil, fmt.Errorf("bmc: squaring bound %d is not a power of two", k)
	}
	n := sys.NumStateVars()
	p := cnf.NewPCNF()
	f := p.Matrix
	se := &SquaringEncoding{P: p, K: k}

	se.Z0Vars = f.NewVars(n)
	se.ZkVars = f.NewVars(n)
	type level struct {
		mid, a, b []cnf.Var
	}
	var levels []level
	if k >= 2 {
		se.Levels = bits.Len(uint(k)) - 1
		for l := 0; l < se.Levels; l++ {
			levels = append(levels, level{mid: f.NewVars(n), a: f.NewVars(n), b: f.NewVars(n)})
		}
	}
	prefixEnd := cnf.Var(f.NumVars())

	EmitInit(sys, f, se.Z0Vars)
	// F(Zk) — for k=0 the endpoint coincides with Z0.
	end := se.ZkVars
	if k == 0 {
		end = se.Z0Vars
	}
	f.AddUnit(NewFrame(sys, f, mode, end, nil).Bad())

	if k >= 1 {
		// Innermost endpoints of the recursion: the segment whose
		// transition is directly constrained by TR.
		var trFrom, trTo []cnf.Var
		if k == 1 {
			trFrom, trTo = se.Z0Vars, se.ZkVars
		} else {
			last := levels[len(levels)-1]
			trFrom, trTo = last.a, last.b
		}

		// TR(trFrom, trTo), guarded by trOK (top-level asserted when k=1).
		trOK := cnf.PosLit(f.NewVar())
		NewFrame(sys, f, mode, trFrom, nil).Step(trTo, trOK)

		if k == 1 {
			f.AddUnit(trOK)
		} else {
			// Selection chain: for each level, c_l is forced true when
			// (A_l,B_l) matches one of the two half-segments of level l.
			// The matrix then contains ¬c_1 ∨ … ∨ ¬c_m ∨ trOK.
			chain := make([]cnf.Lit, 0, len(levels)+1)
			from, to := se.Z0Vars, se.ZkVars
			for _, lv := range levels {
				c := f.NewVar()
				addSegmentChoice(f, c, lv.a, lv.b, from, lv.mid, to)
				chain = append(chain, cnf.NegLit(c))
				from, to = lv.a, lv.b
			}
			chain = append(chain, trOK)
			f.AddClause(cnf.Clause(chain))
		}
	}

	// Prefix: ∃(Z0,Zk,M1) ∀(A1,B1) ∃M2 ∀(A2,B2) … ∃aux.
	outer := append(append([]cnf.Var{}, se.Z0Vars...), se.ZkVars...)
	if len(levels) > 0 {
		outer = append(outer, levels[0].mid...)
	}
	p.AddBlock(cnf.Exists, outer)
	for li, lv := range levels {
		uni := append(append([]cnf.Var{}, lv.a...), lv.b...)
		p.AddBlock(cnf.Forall, uni)
		if li+1 < len(levels) {
			p.AddBlock(cnf.Exists, levels[li+1].mid)
		}
	}
	var inner []cnf.Var
	for v := prefixEnd + 1; int(v) <= f.NumVars(); v++ {
		inner = append(inner, v)
	}
	p.AddBlock(cnf.Exists, inner)
	return se, nil
}

// addSegmentChoice emits clauses forcing c true whenever
// (A↔from ∧ B↔mid) or (A↔mid ∧ B↔to) holds.
func addSegmentChoice(f *cnf.Formula, c cnf.Var, a, b, from, mid, to []cnf.Var) {
	n := len(a)
	// First disjunct: A=from ∧ B=mid.
	first := make([]cnf.Lit, 0, 2*n+1)
	for i := 0; i < n; i++ {
		first = append(first,
			cnf.NegLit(matchVar(f, a[i], from[i])),
			cnf.NegLit(matchVar(f, b[i], mid[i])))
	}
	first = append(first, cnf.PosLit(c))
	f.AddClause(cnf.Clause(first))
	// Second disjunct: A=mid ∧ B=to.
	second := make([]cnf.Lit, 0, 2*n+1)
	for i := 0; i < n; i++ {
		second = append(second,
			cnf.NegLit(matchVar(f, a[i], mid[i])),
			cnf.NegLit(matchVar(f, b[i], to[i])))
	}
	second = append(second, cnf.PosLit(c))
	f.AddClause(cnf.Clause(second))
}

// Stats returns the size of the encoded formula.
func (se *SquaringEncoding) Stats() FormulaStats {
	return FormulaStats{
		Vars:         se.P.Matrix.NumVars(),
		Clauses:      se.P.Matrix.NumClauses(),
		Literals:     se.P.Matrix.NumLiterals(),
		Bytes:        se.P.SizeBytes(),
		Universals:   se.P.NumUniversals(),
		Alternations: se.P.Alternations(),
	}
}

// SquaringOptions configure SolveSquaring.
type SquaringOptions struct {
	Semantics Semantics
	Mode      tseitin.Mode
	QBF       qbf.Options
}

// SolveSquaring runs BMC at bound k through formula (3). The encoding
// only expresses power-of-two bounds, so a non-power-of-two k is
// answered at the next power of two under at-most-k semantics — the
// paper's self-loop trick, which makes the rounded-up query cover every
// bound ≤ the rounded bound, k included. Result.K reports the bound
// actually checked; note that a Reachable answer then means "within
// Result.K steps", not "within k".
func SolveSquaring(sys *model.System, k int, opts SquaringOptions) (Result, error) {
	if k > 0 && k&(k-1) != 0 {
		opts.Semantics = AtMost
		k = 1 << bits.Len(uint(k))
	}
	prepared := Prepare(sys, opts.Semantics)
	enc, err := EncodeSquaring(prepared, k, opts.Mode)
	if err != nil {
		return Result{}, err
	}
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
	return res, nil
}
