package jsat

import (
	"repro/internal/bmc"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// Check decides whether a bad state is reachable at bound k under the
// solver's semantics, by depth-first search over concrete states with
// one incremental transition-relation copy.
//
// The DFS inner loop is allocation-free: assumption vectors, state and
// input readbacks live in per-depth pooled buffers (frames), blocking
// clauses go through one scratch buffer, and the underlying solver
// reuses the assumption-prefix trail between the queries of a frame —
// witness material is copied out only on the rare Reachable unwind.
func (s *Solver) Check(k int) (res bmc.Result) {
	s.retireActPool()
	s.maybeSimplify()
	res = bmc.Result{K: k, System: s.sys, Formula: s.formulaStats()}
	// res is a named return: the deferred updates apply to every exit.
	defer func() { res.Conflicts = s.step.Stats.Conflicts + s.init.Stats.Conflicts }()
	defer func() { res.PeakBytes = s.Stats.PeakBytes }()
	defer func() {
		s.Stats.AssumptionsGiven = s.step.Stats.AssumptionsGiven + s.init.Stats.AssumptionsGiven
		s.Stats.AssumptionsReused = s.step.Stats.AssumptionsReused + s.init.Stats.AssumptionsReused
	}()

	if k == 0 {
		s.Stats.Queries++
		switch s.init.Solve(cnf.PosLit(s.actBad)) {
		case sat.Sat:
			w := &bmc.Witness{K: 0}
			w.States = [][]bool{s.readVars(s.init, s.zVars)}
			w.Inputs = [][]bool{s.readVars(s.init, s.izVars)}
			res.Status = bmc.Reachable
			res.Witness = w
		case sat.Unsat:
			res.Status = bmc.Unreachable
		default:
			res.Status = bmc.Unknown
		}
		s.noteMem()
		return res
	}

	// Enumerate initial states; DFS from each.
	s.ensureFrames(k)
	root := &s.frames[k]
	if s.rootActPool == 0 {
		s.rootActPool = s.init.NewVar()
	}
	rootAct := s.rootActPool
	blockedInit := false
	defer func() {
		// Retiring an unused guard would force a pointless Simplify
		// sweep at the next Check — a deterministic system never blocks
		// an initial state, so its guard is simply reused.
		if blockedInit {
			s.init.AddClause(cnf.NegLit(rootAct))
			s.rootActPool = 0
			s.initRetired = true
		}
	}()
	for {
		if s.budgetExceeded() {
			res.Status = bmc.Unknown
			return res
		}
		s.Stats.Queries++
		st := s.init.Solve(cnf.NegLit(s.actBad), cnf.PosLit(rootAct))
		s.noteMem()
		switch st {
		case sat.Unsat:
			res.Status = bmc.Unreachable
			return res
		case sat.Unknown:
			res.Status = bmc.Unknown
			return res
		}
		readVarsInto(root.state, s.init, s.zVars)

		path := s.pathBuf[:0]
		sub := s.dfs(k, &path)
		s.pathBuf = path[:0]
		switch sub {
		case bmc.Reachable:
			res.Status = bmc.Reachable
			res.Witness = assembleWitness(k, path)
			return res
		case bmc.Unknown:
			res.Status = bmc.Unknown
			return res
		}
		// This initial state is hopeless; block it and continue.
		blockedInit = true
		s.init.AddClause(s.blockClause(rootAct, s.zVars, root.state)...)
	}
}

// dfs explores from the state in frames[remaining] with `remaining`
// transitions left. On Reachable, path holds the trace from the bad
// state back to this state — pop order; assembleWitness reverses it
// once (the old prepend-per-frame assembly was O(depth²) in copies).
func (s *Solver) dfs(remaining int, path *[]frameRec) bmc.Status {
	fr := &s.frames[remaining]
	if s.budgetExceeded() {
		return bmc.Unknown
	}
	if s.isHopeless(fr.state, remaining) {
		return bmc.Unreachable
	}

	if remaining == 1 {
		// Final step: successor must satisfy F. The bad state lands in
		// slot 0, which no other frame uses.
		bad := &s.frames[0]
		s.Stats.Queries++
		fr.assume = append(assumeInto(fr.assume, s.uVars, fr.state), cnf.PosLit(s.actF))
		st := s.step.Solve(fr.assume...)
		s.noteMem()
		switch st {
		case sat.Sat:
			readVarsInto(fr.inputs, s.step, s.wVars)
			readVarsInto(bad.state, s.step, s.vVars)
			readVarsInto(bad.inputs, s.step, s.fwVars)
			*path = append(*path,
				frameRec{state: cloneBools(bad.state), inputs: cloneBools(bad.inputs)},
				frameRec{state: cloneBools(fr.state), inputs: cloneBools(fr.inputs)})
			return bmc.Reachable
		case sat.Unknown:
			return bmc.Unknown
		}
		s.markHopeless(fr.state, 1)
		return bmc.Unreachable
	}

	// Interior step: enumerate successors.
	act, pooled := s.frameAct(remaining)
	if !pooled {
		defer func() {
			s.step.AddClause(cnf.NegLit(act))
			s.stepRetired = true
		}()
	}
	fr.assume = append(assumeInto(fr.assume, s.uVars, fr.state), cnf.NegLit(s.actF), cnf.PosLit(act))
	child := &s.frames[remaining-1]
	for {
		if s.budgetExceeded() {
			return bmc.Unknown
		}
		s.Stats.Queries++
		st := s.step.Solve(fr.assume...)
		s.noteMem()
		switch st {
		case sat.Unsat:
			s.markHopeless(fr.state, remaining)
			return bmc.Unreachable
		case sat.Unknown:
			return bmc.Unknown
		}
		readVarsInto(child.state, s.step, s.vVars)
		readVarsInto(fr.inputs, s.step, s.wVars)

		switch s.dfs(remaining-1, path) {
		case bmc.Reachable:
			*path = append(*path, frameRec{state: cloneBools(fr.state), inputs: cloneBools(fr.inputs)})
			return bmc.Reachable
		case bmc.Unknown:
			return bmc.Unknown
		}
		// Successor exhausted: block it within this remaining-count.
		if pooled {
			s.actDirty[remaining] = true
		}
		s.step.AddClause(s.blockClause(act, s.vVars, child.state)...)
	}
}

// assembleWitness reverses the pop-order path into execution order.
func assembleWitness(k int, path []frameRec) *bmc.Witness {
	w := &bmc.Witness{K: k}
	w.States = make([][]bool, len(path))
	w.Inputs = make([][]bool, len(path))
	for i, fr := range path {
		j := len(path) - 1 - i
		w.States[j] = fr.state
		w.Inputs[j] = fr.inputs
	}
	return w
}

func (s *Solver) formulaStats() bmc.FormulaStats {
	return bmc.FormulaStats{
		Vars:    s.step.NumVars() + s.init.NumVars(),
		Clauses: s.step.NumClauses() + s.init.NumClauses(),
		Bytes:   s.step.ClauseDBBytes() + s.init.ClauseDBBytes(),
	}
}
