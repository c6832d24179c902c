package sat

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/faultpoint"
)

// deadlineExpired polls the wall clock against the configured deadline.
func (s *Solver) deadlineExpired() bool {
	return !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline)
}

// canceled polls the cooperative cancel flag.
func (s *Solver) canceled() bool { return s.opts.Cancel.Canceled() }

// Solve determines satisfiability of the clause set under the given
// assumption literals. It returns Sat, Unsat, or Unknown when a budget
// from Options was exhausted. After Sat, Model holds a satisfying
// assignment; after Unsat under assumptions, FailedAssumptions holds a
// conflicting subset.
//
// Unless Options.DisableTrailReuse is set, the trail survives between
// calls: Solve backtracks only to the longest prefix the new assumption
// vector shares with the previous one (decision level i+1 is always
// assumption i's level, decided or dummy), so an incremental client
// re-querying under a fixed prefix re-propagates nothing for the
// unchanged part. Stats.AssumptionsReused counts the levels kept.
func (s *Solver) Solve(assumptions ...cnf.Lit) Status {
	if !s.ok {
		s.conflict = nil
		return Unsat
	}
	if s.canceled() || s.deadlineExpired() {
		// Immediate poll, mirroring the QBF solver: a deadline that
		// expired before the call (or between incremental calls) must
		// not let even a propagation-only query slip through.
		return Unknown
	}
	keep := 0
	if !s.opts.DisableTrailReuse {
		for keep < len(assumptions) && keep < len(s.assumptions) &&
			keep < s.decisionLevel() && assumptions[keep] == s.assumptions[keep] {
			keep++
		}
	}
	s.cancelUntil(keep)
	s.Stats.AssumptionsGiven += int64(len(assumptions))
	s.Stats.AssumptionsReused += int64(keep)
	s.assumptions = append(s.assumptions[:0], assumptions...)
	s.conflict = nil
	s.model = s.model[:0]
	s.lubyIndex = 0
	s.conflictsCur = 0

	if s.maxLearnts == 0 {
		s.maxLearnts = float64(s.NumClauses()) / 3
		if s.maxLearnts < 1000 {
			s.maxLearnts = 1000
		}
	}

	startConflicts := s.Stats.Conflicts
	deadlineCheck := int64(0)
	decisionCheck := int64(0)

	// No cancelUntil(0) on exit: the trail is left in place for the next
	// call's prefix reuse (the next Solve backtracks exactly as far as
	// its own assumptions require).

	for {
		// Fault-injection site: fires once per propagation round when
		// armed (error/cancel behave like a cooperative cancellation —
		// the trail is consistent, so Unknown is always a sound answer);
		// one atomic load otherwise.
		if faultpoint.Hit("sat.propagate") != nil {
			return Unknown
		}
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			s.conflictsCur++
			if s.decisionLevel() == 0 {
				s.logRootConflict(confl)
				s.ok = false
				return Unsat
			}
			// Fault-injection site: once per conflict analysis. Bailing
			// out before analyze loses the learned clause, never
			// soundness.
			if faultpoint.Hit("sat.analyze") != nil {
				return Unknown
			}
			learnt, btLevel, lbd := s.analyze(confl)
			s.cancelUntil(btLevel)
			s.record(learnt, lbd)
			s.decayActivities()

			// Budgets.
			if s.opts.ConflictBudget > 0 && s.Stats.Conflicts-startConflicts >= s.opts.ConflictBudget {
				return Unknown
			}
			if s.canceled() {
				return Unknown
			}
			deadlineCheck++
			if deadlineCheck%64 == 0 && s.deadlineExpired() {
				return Unknown
			}
			continue
		}

		// No conflict: restart, reduce, or extend the assignment.
		if s.conflictsCur >= int64(s.restartBase*luby(s.lubyIndex)) {
			s.lubyIndex++
			s.conflictsCur = 0
			s.Stats.Restarts++
			// Restart to the assumption level, not to 0: the assumption
			// prefix and its propagations are sound in every restart and
			// re-deciding them is pure waste (a no-op when the conflict
			// already backjumped below the assumptions).
			s.cancelUntil(len(s.assumptions))
			if s.canceled() || s.deadlineExpired() {
				return Unknown
			}
			continue
		}
		// Proof logging pins every learnt clause: deletion (and the
		// arena compaction it triggers) would orphan recorded
		// derivations, so the reduce policy is suspended entirely.
		if s.proof == nil && float64(len(s.learnts)) >= s.maxLearnts+float64(len(s.trail)) {
			s.reduceDB()
		}

		next := cnf.NoLit
		for s.decisionLevel() < len(s.assumptions) {
			p := s.assumptions[s.decisionLevel()]
			switch s.value(p) {
			case cnf.True:
				s.newDecisionLevel() // already satisfied: dummy level
			case cnf.False:
				s.analyzeFinal(p.Neg())
				return Unsat
			default:
				next = p
			}
			if next != cnf.NoLit {
				break
			}
		}
		if next == cnf.NoLit {
			next = s.pickBranchLit()
			if next == cnf.NoLit {
				// All variables assigned: a model, snapshotted into the
				// reusable buffer — one Sat query per successor is jSAT's
				// steady state, so this must not allocate per call.
				s.model = append(s.model[:0], s.assigns...)
				return Sat
			}
			s.Stats.Decisions++
			// A conflict-free run never reaches the per-conflict poll
			// above, so easy satisfiable instances must re-check the
			// cancel flag and deadline on the decision path too.
			if s.canceled() {
				return Unknown
			}
			decisionCheck++
			if decisionCheck%256 == 0 && s.deadlineExpired() {
				return Unknown
			}
		}
		s.newDecisionLevel()
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// luby returns the x-th element (0-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
func luby(x int) int {
	size, seq := 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return 1 << uint(seq)
}

func (s *Solver) pickBranchLit() cnf.Lit {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assigns[v] == cnf.Undef {
			return s.phasedLit(v)
		}
	}
	return cnf.NoLit
}

func (s *Solver) phasedLit(v cnf.Var) cnf.Lit {
	if s.polarity[v] {
		return cnf.PosLit(v)
	}
	return cnf.NegLit(v)
}

// propagate performs unit propagation over the two-watch scheme,
// returning the conflicting clause reference or crefUndef. Binary
// clauses take a dedicated fast path: their implied literal sits inline
// in the watch list, so propagating them touches no arena memory at all.
func (s *Solver) propagate() ClauseRef {
	// Hot-loop locals: vals and the arena slab are only written
	// element-wise during propagation (never grown), so caching the
	// slice headers here saves a reload through s on every access.
	vals := s.vals
	data := s.arena.data
	props := int64(0)
	defer func() { s.Stats.Propagations += props }()

	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		props++

		// Binary fast path: the implied literal is inline in the watch
		// list, so no clause memory is touched at all.
		for _, other := range s.binWatches[p] {
			switch vals[other] {
			case cnf.False:
				s.binConfl[0], s.binConfl[1] = p.Neg(), other
				s.qhead = len(s.trail)
				return crefBinConfl
			case cnf.Undef:
				s.uncheckedEnqueue(other, binReason(p.Neg()))
			}
		}

		ws := s.watches[p]
		kept := ws[:0]
		confl := crefUndef
	watchLoop:
		for wi := 0; wi < len(ws); wi++ {
			w := ws[wi]
			if vals[w.blocker] == cnf.True {
				kept = append(kept, w)
				continue
			}
			hdr := uint32(data[w.ref])
			base := int(w.ref) + 1
			if hdr&hdrLearnt != 0 {
				base += 2
			}
			lits := data[base : base+int(hdr>>hdrSizeShift)]
			// Make sure the false literal (¬p) is at position 1.
			if lits[0] == p.Neg() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == cnf.True {
				kept = append(kept, watcher{w.ref, first})
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != cnf.False {
					lits[1], lits[k] = lits[k], lits[1]
					s.pushWatch(lits[1].Neg(), watcher{w.ref, first})
					continue watchLoop
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, watcher{w.ref, first})
			if vals[first] == cnf.False {
				confl = w.ref
				s.qhead = len(s.trail)
				// Copy the remaining watchers back before bailing out.
				for wi++; wi < len(ws); wi++ {
					kept = append(kept, ws[wi])
				}
				break
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = kept
		if confl != crefUndef {
			return confl
		}
	}
	return crefUndef
}

// record attaches a learnt clause and enqueues its asserting literal.
// The learnt slice is consumed immediately (copied into the arena or the
// binary lists), so callers may reuse its backing array.
func (s *Solver) record(learnt []cnf.Lit, lbd uint32) {
	s.Stats.Learned++
	// Register the proof id before any enqueue below: an enqueue at
	// level 0 logs a root-unit derivation that must be able to look the
	// clause up.
	var id int32 = -1
	if s.proof != nil {
		id = s.proof.add(learnt, s.proofChain, -1)
	}
	switch len(learnt) {
	case 1:
		if s.proof != nil {
			s.proofUnit[learnt[0]] = id
		}
		s.uncheckedEnqueue(learnt[0], crefUndef)
		return
	case 2:
		if s.proof != nil {
			s.proofBin[normPair(learnt[0], learnt[1])] = id
		}
		s.addBinary(learnt[0], learnt[1], true)
		s.uncheckedEnqueue(learnt[0], binReason(learnt[1]))
	default:
		c := s.arena.alloc(learnt, true)
		if s.proof != nil {
			s.proofRef[c] = id
		}
		s.arena.setAct(c, float32(s.claInc))
		s.arena.setLBD(c, lbd)
		s.learnts = append(s.learnts, c)
		s.attach(c)
		s.uncheckedEnqueue(learnt[0], c)
	}
	if n := int64(s.NumLearnts()); n > s.Stats.MaxLearnts {
		s.Stats.MaxLearnts = n
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}
