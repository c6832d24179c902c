package sat

import "repro/internal/cnf"

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first), the backtrack level, and the clause's
// LBD (number of distinct decision levels). The returned slice is the
// solver's reusable analysis buffer: record consumes it before the next
// conflict, so no per-conflict copy is made.
func (s *Solver) analyze(confl ClauseRef) ([]cnf.Lit, int, uint32) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, cnf.NoLit) // placeholder for the UIP

	logging := s.proof != nil
	if logging {
		s.proofChain = s.proofChain[:0]
	}

	pathC := 0
	p := cnf.NoLit
	idx := len(s.trail) - 1

	for {
		// Materialize the conflict/reason literals. Arena clauses are a
		// slab view; binary reasons are reconstructed from the ref.
		var cl []cnf.Lit
		switch {
		case confl == crefBinConfl:
			cl = s.binConfl[:]
		case isBinReason(confl):
			s.binScratch[0], s.binScratch[1] = p, binOther(confl)
			cl = s.binScratch[:]
		default:
			s.bumpClause(confl)
			cl = s.arena.lits(confl)
		}
		start := 0
		if p != cnf.NoLit {
			start = 1 // cl[0] is the propagated literal p itself
		}
		if logging {
			// One chain entry per resolution step, plus a unit-fact
			// resolution for every level-0 literal the loop below skips
			// (they vanish from the learnt clause but the proof must say
			// why).
			pivot := cnf.NoVar
			if p != cnf.NoLit {
				pivot = p.Var()
			}
			s.proofChain = append(s.proofChain, ProofAnt{ID: s.clauseIDOf(confl, p), Pivot: pivot})
			for _, q := range cl[start:] {
				if s.level[q.Var()] == 0 {
					s.proofChain = append(s.proofChain, ProofAnt{ID: s.unitIDOf(q.Neg()), Pivot: q.Var()})
				}
			}
		}
		for _, q := range cl[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.bumpVar(v)
				s.seen[v] = 1
				s.toClear = append(s.toClear, v)
				if int(s.level[v]) >= s.decisionLevel() {
					pathC++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Next literal on the trail that is part of the conflict.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = 0
		pathC--
		if pathC == 0 {
			break
		}
	}
	learnt[0] = p.Neg()
	// seen[] remains set exactly for the literals kept in the clause
	// (lower-level ones); resolved current-level variables were cleared
	// in the loop. That is the state minimization relies on.

	// Minimization performs resolutions the proof chain would not
	// record, so proof logging turns it off.
	if !logging {
		learnt = s.minimize(learnt)
	}

	// Compute LBD and the backtrack level (second-highest level).
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = int(s.level[learnt[1].Var()])
	}
	lbd := s.computeLBD(learnt)

	for _, v := range s.toClear {
		s.seen[v] = 0
	}
	s.toClear = s.toClear[:0]

	s.analyzeBuf = learnt
	return learnt, btLevel, lbd
}

// minimize removes literals implied by the rest of the clause via their
// reason clauses (recursive / "deep" minimization à la MiniSat ccmin=2).
func (s *Solver) minimize(learnt []cnf.Lit) []cnf.Lit {
	// Abstraction of the decision levels present, to prune the search.
	var levels uint32
	for _, l := range learnt[1:] {
		levels |= abstractLevel(s.level[l.Var()])
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		if s.reason[l.Var()] == crefUndef || !s.litRedundant(l, levels) {
			out = append(out, l)
		}
	}
	return out
}

func abstractLevel(lvl int32) uint32 { return 1 << (uint32(lvl) & 31) }

// litRedundant reports whether p is implied by seen literals, searching
// the implication graph through reason clauses.
func (s *Solver) litRedundant(p cnf.Lit, abstractLevels uint32) bool {
	stack := append(s.minStack[:0], p)
	defer func() { s.minStack = stack[:0] }()
	top := len(s.toClear)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Tail literals of q's reason (everything but the implied
		// literal itself).
		var tail []cnf.Lit
		if r := s.reason[q.Var()]; isBinReason(r) {
			s.redScratch[0] = binOther(r)
			tail = s.redScratch[:]
		} else {
			tail = s.arena.lits(r)[1:]
		}
		for _, l := range tail {
			v := l.Var()
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			if s.reason[v] != crefUndef && abstractLevel(s.level[v])&abstractLevels != 0 {
				s.seen[v] = 1
				s.toClear = append(s.toClear, v)
				stack = append(stack, l)
				continue
			}
			// Cannot be shown redundant: undo the speculative marks.
			for len(s.toClear) > top {
				s.seen[s.toClear[len(s.toClear)-1]] = 0
				s.toClear = s.toClear[:len(s.toClear)-1]
			}
			return false
		}
	}
	return true
}

// computeLBD counts the distinct decision levels among lits using
// per-level generation stamps — no per-conflict map allocation.
func (s *Solver) computeLBD(lits []cnf.Lit) uint32 {
	s.lbdGen++
	n := uint32(0)
	for _, l := range lits {
		lvl := s.level[l.Var()]
		for int(lvl) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lvl] != s.lbdGen {
			s.lbdStamp[lvl] = s.lbdGen
			n++
		}
	}
	return n
}

// analyzeFinal computes the failed-assumption set after an assumption
// literal was found false: the subset of assumptions sufficient for the
// conflict, expressed as in MiniSat (negation of the implied literal plus
// contributing assumption negations).
func (s *Solver) analyzeFinal(p cnf.Lit) {
	s.conflict = s.conflict[:0]
	s.conflict = append(s.conflict, p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		switch r := s.reason[v]; {
		case r == crefUndef:
			// A decision: under assumption solving all decisions at
			// these levels are assumptions.
			s.conflict = append(s.conflict, s.trail[i].Neg())
		case isBinReason(r):
			if o := binOther(r); s.level[o.Var()] > 0 {
				s.seen[o.Var()] = 1
			}
		default:
			for _, l := range s.arena.lits(r)[1:] {
				if s.level[l.Var()] > 0 {
					s.seen[l.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.update(v)
}

// bumpClause bumps a learnt arena clause's activity. Binary clauses
// carry no activity: they are never candidates for deletion.
func (s *Solver) bumpClause(c ClauseRef) {
	if !s.arena.learnt(c) {
		return
	}
	act := s.arena.act(c) + float32(s.claInc)
	s.arena.setAct(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.arena.setAct(lc, s.arena.act(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}
