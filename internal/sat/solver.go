// Package sat implements a CDCL (conflict-driven clause-learning) SAT
// solver in the MiniSat tradition: two-literal watching, VSIDS decision
// heuristic with phase saving, first-UIP conflict analysis with recursive
// clause minimization, Luby restarts, activity/LBD-based learnt-clause
// deletion, and incremental solving under assumptions.
//
// Clause storage is arena-backed: every clause of length ≥ 3 lives in
// one contiguous slab of 32-bit words (header, then for learnt clauses
// an activity and an LBD word, then the literals) and is identified by a
// ClauseRef — the word offset of its header — instead of a pointer.
// Length-2 clauses are specialized away entirely: they are inlined into
// dedicated binary watch lists, propagated without touching the arena,
// and encoded directly into the ClauseRef when they act as reasons.
// Learnt-clause deletion marks clauses dead and then compacts the slab
// in a single garbage-collection pass that relocates the live clauses
// and rewrites every watch, reason, and clause-list reference. See
// arena.go for the exact layout. The flat store is both the speed and
// the honesty of the reproduction's space story: propagation chases no
// pointers, and ClauseDBBytes reports the clause database's true
// footprint for the E3 memory experiments rather than a Go-heap guess.
//
// The solver is the workhorse of the reproduction: classical BMC solves
// the unrolled formula (1) with it directly, and the paper's
// special-purpose jSAT procedure (internal/jsat) drives it incrementally,
// one transition-relation copy at a time.
package sat

import (
	"time"

	"repro/internal/cancel"
	"repro/internal/cnf"
)

// Status is the outcome of a Solve call.
type Status uint8

// Solve outcomes.
const (
	Unknown Status = iota // budget exhausted
	Sat
	Unsat
)

// String returns "SAT", "UNSAT" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	}
	return "UNKNOWN"
}

// Options configure a Solver. The zero value runs every feature with
// library defaults.
type Options struct {
	// ConflictBudget, when positive, bounds the number of conflicts of a
	// single Solve call; exceeding it yields Unknown.
	ConflictBudget int64
	// Deadline, when non-zero, aborts the solve with Unknown once passed.
	// It is polled every few dozen conflicts, every few hundred
	// decisions, and at every restart, so conflict-free runs stop too.
	Deadline time.Time
	// Cancel, when non-nil, aborts the solve with Unknown as soon as the
	// flag is set. It is polled on every conflict, every decision, and
	// every restart — an atomic load, cheaper than the Deadline's clock
	// read — so a solver racing in a portfolio stops within a handful of
	// conflicts of losing instead of running to completion.
	Cancel *cancel.Flag

	// DisableTrailReuse makes every Solve call restart from decision
	// level 0, as classical MiniSat does. By default the solver keeps
	// its trail between calls and, when a new assumption vector shares
	// a prefix with the previous one, backtracks only to the first
	// mismatch — incremental clients that enumerate under a fixed
	// prefix (jSAT's successor enumeration) then re-propagate nothing
	// for the unchanged part. The switch exists for the reuse
	// differential tests.
	DisableTrailReuse bool

	// LogProof records a resolution derivation for every learnt clause
	// and the final empty clause, so an Unsat answer comes with a
	// replayable refutation (see Proof). Logging is meant for one-shot
	// refutations — fresh solver, AddClause everything, one Solve with no
	// assumptions — and internally forces minimization and trail reuse
	// off and suspends learnt-clause deletion (the memory the deletion
	// would have reclaimed is instead bounded by ProofBudgetBytes).
	LogProof bool
	// ProofBudgetBytes bounds the proof log's memory (see Proof.Bytes).
	// Exceeding it marks the proof broken — Solve still answers, but the
	// refutation cannot be replayed. 0 means unbounded.
	ProofBudgetBytes int
}

// Stats are cumulative solver statistics.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learned      int64
	Removed      int64
	MaxLearnts   int64 // high-water mark of the learnt database
	// AssumptionsGiven counts assumption literals passed to Solve;
	// AssumptionsReused counts those whose decision level survived from
	// the previous call via trail reuse (never re-decided, never
	// re-propagated). Their ratio is the trail-reuse rate the
	// benchmark reports (jsat.trail_reuse_rate).
	AssumptionsGiven  int64
	AssumptionsReused int64
}

// watcher is one entry of a ≥3-literal watch list.
type watcher struct {
	ref     ClauseRef
	blocker cnf.Lit // cached literal; if true the clause is satisfied
}

// Solver is a CDCL SAT solver. Create one with New, add variables with
// NewVar and clauses with AddClause, then call Solve (optionally under
// assumptions). Between Solve calls more variables and clauses may be
// added, enabling incremental use.
type Solver struct {
	opts  Options
	Stats Stats

	arena   arena
	clauses []ClauseRef // problem clauses of length ≥ 3
	learnts []ClauseRef // learnt clauses of length ≥ 3

	// Binary clauses are not in the arena: they live inline in
	// binWatches and are additionally listed here for enumeration and
	// accounting. Binary learnts are glue and are never deleted.
	binClauses [][2]cnf.Lit
	binLearnts [][2]cnf.Lit

	watches    [][]watcher // indexed by literal: ≥3-literal clauses
	binWatches [][]cnf.Lit // indexed by literal: other literal per binary clause

	// watchCapBytes is the summed capacity of all inner watch lists, in
	// bytes, maintained at every growing append so ClauseDBBytes is O(1)
	// instead of a walk over every list — incremental clients (jSAT)
	// sample it once per query.
	watchCapBytes int

	assigns  []cnf.Value // per variable
	vals     []cnf.Value // per literal: vals[l] is l's truth value
	level    []int32
	reason   []ClauseRef
	trail    []cnf.Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    varHeap
	polarity []bool // saved phases: true = last value was true

	claInc float64

	// conflict-analysis scratch
	seen       []uint8
	toClear    []cnf.Var
	analyzeBuf []cnf.Lit
	binConfl   [2]cnf.Lit // conflicting pair behind a crefBinConfl
	binScratch [2]cnf.Lit // materialized binary reason during analyze
	redScratch [1]cnf.Lit // materialized binary reason during minimization
	minStack   []cnf.Lit  // litRedundant work list
	lbdStamp   []uint32   // per-level generation marks for computeLBD
	lbdGen     uint32
	addBuf     []cnf.Lit // AddClause normalization scratch

	assumptions []cnf.Lit
	conflict    []cnf.Lit // failed-assumption clause after Unsat-under-assumptions

	// Resolution-proof logging state (Options.LogProof; see proof.go).
	// The id maps key every stored clause form back to its proof node:
	// arena clauses by ClauseRef (valid because deletion is suspended, so
	// the arena never relocates), binary clauses by canonical literal
	// pair, and root-level unit facts by literal.
	proof          *Proof
	proofRef       map[ClauseRef]int32
	proofBin       map[[2]cnf.Lit]int32
	proofUnit      map[cnf.Lit]int32
	proofChain     []ProofAnt // analyze's derivation scratch
	proofUnitChain []ProofAnt // root-unit / final-conflict scratch
	proofDropped   []cnf.Lit  // AddClause root-simplification scratch

	ok           bool
	model        cnf.Assignment
	maxLearnts   float64
	restartBase  int
	lubyIndex    int
	conflictsCur int64 // conflicts since last restart
}

// New returns an empty solver.
func New(opts Options) *Solver {
	s := &Solver{
		opts:        opts,
		varInc:      1,
		claInc:      1,
		ok:          true,
		restartBase: 100,
	}
	// Variable 0 is unused; keep arrays aligned with cnf.Var numbering.
	s.assigns = append(s.assigns, cnf.Undef)
	s.vals = append(s.vals, cnf.Undef, cnf.Undef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.order.solver = s
	if opts.LogProof {
		// A retained trail would leave root facts underived. (analyze
		// also skips minimization while logging: see proof.go.)
		s.opts.DisableTrailReuse = true
		s.proof = &Proof{EmptyID: -1, budget: opts.ProofBudgetBytes}
		s.proofRef = make(map[ClauseRef]int32)
		s.proofBin = make(map[[2]cnf.Lit]int32)
		s.proofUnit = make(map[cnf.Lit]int32)
	}
	return s
}

// NewVar introduces a fresh variable.
func (s *Solver) NewVar() cnf.Var {
	v := cnf.Var(len(s.assigns))
	s.assigns = append(s.assigns, cnf.Undef)
	s.vals = append(s.vals, cnf.Undef, cnf.Undef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, false)
	s.seen = append(s.seen, 0)
	s.watches = append(s.watches, nil, nil)
	s.binWatches = append(s.binWatches, nil, nil)
	s.order.insert(v)
	return v
}

// SetDeadline replaces the solve deadline, letting incremental clients
// that keep one solver alive across many queries re-arm a per-query
// timeout. A zero time removes the deadline.
func (s *Solver) SetDeadline(t time.Time) { s.opts.Deadline = t }

// SetCancel replaces the cooperative cancellation flag, letting
// long-lived incremental clients (one persistent solver serving many
// requests) hand each request its own flag: a flag is one-shot, so a
// cancelled request must not poison the solver for the next one. A nil
// flag removes the signal.
func (s *Solver) SetCancel(c *cancel.Flag) { s.opts.Cancel = c }

// NumVars returns the number of variables created.
func (s *Solver) NumVars() int { return len(s.assigns) - 1 }

// NumClauses returns the number of problem clauses currently stored.
func (s *Solver) NumClauses() int { return len(s.clauses) + len(s.binClauses) }

// NumLearnts returns the number of learnt clauses currently stored.
func (s *Solver) NumLearnts() int { return len(s.learnts) + len(s.binLearnts) }

// Okay reports whether the clause set is not yet known to be
// unsatisfiable at the top level.
func (s *Solver) Okay() bool { return s.ok }

// ClauseDBBytes reports the exact clause-database footprint: the arena
// slab, the inlined binary clauses, and the watch lists. This is the
// measure used by experiment E3 — it counts the solver's own structures,
// so peak-bytes-vs-bound curves reflect the algorithm, not Go-heap
// noise. Between garbage collections the slab holds no dead space, so
// the arena term equals the analytic clause-storage size (one header
// word per clause, plus activity and LBD words for learnts, plus one
// word per literal). The watch-list term is maintained incrementally at
// every growing append, so the whole call is O(1) — cheap enough for
// per-query peak sampling.
func (s *Solver) ClauseDBBytes() int {
	n := s.arena.bytes()
	n += (len(s.binClauses) + len(s.binLearnts)) * 8
	n += s.watchCapBytes
	n += (len(s.watches) + len(s.binWatches)) * 24 // slice headers
	return n
}

// value returns l's truth value from the literal-indexed table: a
// single load, no sign branch — the innermost operation of propagate.
func (s *Solver) value(l cnf.Lit) cnf.Value { return s.vals[l] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a clause at the top level. It returns false when the
// clause set has become trivially unsatisfiable. Literals over variables
// not yet created are rejected with a panic (a programming error).
//
// The clause may be added while a trail from a previous Solve call is
// retained (trail reuse): only root-level assignments simplify the
// clause away, and when the new clause is unit or falsified under the
// retained partial assignment the solver backtracks just far enough to
// attach it with a sound watch pair, enqueueing the implication if one
// remains — the incremental client keeps its reusable prefix instead of
// being thrown back to level 0.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok {
		return false
	}
	// Normalize in a reusable scratch buffer: the literals end up copied
	// into the arena or the binary lists, never retained from here. The
	// sort is a hand-rolled insertion sort — clauses are short and this
	// is the hottest loading path, so no sort.Slice machinery.
	buf := append(s.addBuf[:0], lits...)
	s.addBuf = buf
	for _, l := range buf {
		if int(l.Var()) >= len(s.assigns) || l.Var() == cnf.NoVar {
			panic("sat: clause mentions unknown variable")
		}
	}
	// Every AddClause call registers an input node under its call
	// ordinal, even when the clause is later dropped, so a proof consumer
	// can partition inputs by the order the clauses were loaded in.
	inID := int32(-1)
	if s.proof != nil {
		inID = s.proof.add(lits, nil, s.proof.numInputs)
		s.proof.numInputs++
		s.proofDropped = s.proofDropped[:0]
	}
	for i := 1; i < len(buf); i++ {
		x := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > x {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = x
	}
	// One sweep over the sorted literals: drop duplicates, detect
	// tautologies (a literal next to its own negation), and apply
	// root-level assignments — drop literals permanently false, drop
	// the clause when one is permanently true. Assignments above level
	// 0 belong to the retained trail and are NOT permanent: those
	// literals stay in the clause.
	out := buf[:0]
	prev := cnf.NoLit // literal 0 never occurs in a valid clause
	for _, l := range buf {
		if l == prev {
			continue
		}
		if prev != cnf.NoLit && l == prev.Neg() {
			return true
		}
		prev = l
		switch v := s.value(l); {
		case v == cnf.True && s.level[l.Var()] == 0:
			return true
		case v == cnf.False && s.level[l.Var()] == 0:
			if s.proof != nil {
				s.proofDropped = append(s.proofDropped, l)
			}
		default:
			out = append(out, l)
		}
	}
	// The clause the solver stores is the input resolved against the unit
	// fact of every root-false literal dropped above; register that
	// derived form, because it is what later conflicts resolve with.
	clsID := inID
	if s.proof != nil && len(s.proofDropped) > 0 {
		chain := append(s.proofUnitChain[:0], ProofAnt{ID: inID, Pivot: cnf.NoVar})
		for _, l := range s.proofDropped {
			chain = append(chain, ProofAnt{ID: s.unitIDOf(l.Neg()), Pivot: l.Var()})
		}
		s.proofUnitChain = chain
		clsID = s.proof.add(out, chain, -1)
	}
	switch len(out) {
	case 0:
		if s.proof != nil {
			s.proof.EmptyID = clsID
		}
		s.ok = false
		return false
	case 1:
		// A unit is a root-level fact: it must be asserted at level 0,
		// whatever trail is currently retained.
		s.cancelUntil(0)
		switch s.value(out[0]) {
		case cnf.True:
			return true
		case cnf.False:
			if s.proof != nil {
				chain := append(s.proofUnitChain[:0],
					ProofAnt{ID: clsID, Pivot: cnf.NoVar},
					ProofAnt{ID: s.unitIDOf(out[0].Neg()), Pivot: out[0].Var()})
				s.proofUnitChain = chain
				s.proof.EmptyID = s.proof.add(nil, chain, -1)
			}
			s.ok = false
			return false
		}
		if s.proof != nil {
			s.proofUnit[out[0]] = clsID
		}
		s.uncheckedEnqueue(out[0], crefUndef)
		if confl := s.propagate(); confl != crefUndef {
			s.logRootConflict(confl)
			s.ok = false
		}
		return s.ok
	}

	// With a retained trail the clause may be falsified by non-permanent
	// assignments. Back off one level below the deepest falsification
	// until at least one literal is free again — the minimal repair, so
	// jSAT's blocking clause (falsified by the very model it blocks)
	// costs a backjump to the deepest input decision, not a level-0
	// restart.
	for {
		nonFalse, maxLvl := 0, 0
		for _, l := range out {
			if s.value(l) == cnf.False {
				if lvl := int(s.level[l.Var()]); lvl > maxLvl {
					maxLvl = lvl
				}
			} else {
				nonFalse++
			}
		}
		if nonFalse > 0 {
			break
		}
		s.cancelUntil(maxLvl - 1)
	}
	// Watch order: a non-false literal first, then the best second watch
	// — another non-false literal if one exists, else the deepest false
	// one (so any backtrack that could make the clause propagate again
	// unassigns a watch and restores the classical invariant).
	for i, l := range out {
		if s.value(l) != cnf.False {
			out[0], out[i] = out[i], out[0]
			break
		}
	}
	rank := func(l cnf.Lit) int {
		if s.value(l) != cnf.False {
			return int(^uint(0) >> 1)
		}
		return int(s.level[l.Var()])
	}
	best := 1
	for i := 2; i < len(out); i++ {
		if rank(out[i]) > rank(out[best]) {
			best = i
		}
	}
	out[1], out[best] = out[best], out[1]

	// Unit under the retained trail: enqueue the implication with the
	// new clause as its reason (at the current level — chronological
	// style; the reason is valid because every other literal is false).
	implied := cnf.NoLit
	if s.value(out[0]) == cnf.Undef && s.value(out[1]) == cnf.False {
		implied = out[0]
	}
	if len(out) == 2 {
		if s.proof != nil {
			s.proofBin[normPair(out[0], out[1])] = clsID
		}
		s.addBinary(out[0], out[1], false)
		if implied != cnf.NoLit {
			s.uncheckedEnqueue(implied, binReason(out[1]))
		}
		return true
	}
	ref := s.arena.alloc(out, false)
	if s.proof != nil {
		s.proofRef[ref] = clsID
	}
	s.clauses = append(s.clauses, ref)
	s.attach(ref)
	if implied != cnf.NoLit {
		s.uncheckedEnqueue(implied, ref)
	}
	return true
}

// AddFormula creates f's variables and adds its clauses in order. Like
// AddClause it returns false once the clause set is trivially
// unsatisfiable, and it stops loading at that clause: a later Solve
// answers Unsat without searching.
func (s *Solver) AddFormula(f *cnf.Formula) bool {
	for s.NumVars() < f.NumVars() {
		s.NewVar()
	}
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	return true
}

// pushWatch appends to a ≥3-literal watch list, keeping watchCapBytes
// current when the append grows the backing array.
func (s *Solver) pushWatch(li cnf.Lit, w watcher) {
	ws := s.watches[li]
	if len(ws) == cap(ws) {
		s.watchCapBytes -= cap(ws) * 8
		ws = append(ws, w)
		s.watchCapBytes += cap(ws) * 8
	} else {
		ws = append(ws, w)
	}
	s.watches[li] = ws
}

// pushBinWatch appends to a binary watch list, keeping watchCapBytes
// current when the append grows the backing array.
func (s *Solver) pushBinWatch(li cnf.Lit, other cnf.Lit) {
	bs := s.binWatches[li]
	if len(bs) == cap(bs) {
		s.watchCapBytes -= cap(bs) * 4
		bs = append(bs, other)
		s.watchCapBytes += cap(bs) * 4
	} else {
		bs = append(bs, other)
	}
	s.binWatches[li] = bs
}

// addBinary inlines a two-literal clause into the binary watch lists.
func (s *Solver) addBinary(a, b cnf.Lit, learnt bool) {
	s.pushBinWatch(a.Neg(), b)
	s.pushBinWatch(b.Neg(), a)
	if learnt {
		s.binLearnts = append(s.binLearnts, [2]cnf.Lit{a, b})
	} else {
		s.binClauses = append(s.binClauses, [2]cnf.Lit{a, b})
	}
}

func (s *Solver) attach(c ClauseRef) {
	lits := s.arena.lits(c)
	s.pushWatch(lits[0].Neg(), watcher{c, lits[1]})
	s.pushWatch(lits[1].Neg(), watcher{c, lits[0]})
}

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from ClauseRef) {
	v := l.Var()
	s.assigns[v] = cnf.BoolValue(!l.IsNeg())
	s.vals[l] = cnf.True
	s.vals[l.Neg()] = cnf.False
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
	if s.proof != nil && from != crefUndef && len(s.trailLim) == 0 {
		s.logRootUnit(l, from)
	}
}

func (s *Solver) newDecisionLevel() { s.trailLim = append(s.trailLim, len(s.trail)) }

// cancelUntil undoes all assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = s.assigns[v] == cnf.True
		s.assigns[v] = cnf.Undef
		s.vals[l] = cnf.Undef
		s.vals[l.Neg()] = cnf.Undef
		s.reason[v] = crefUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	if s.qhead > bound {
		s.qhead = bound
	}
}

// Value returns the model value of v after a Sat result.
func (s *Solver) Value(v cnf.Var) cnf.Value {
	if int(v) >= len(s.model) {
		return cnf.Undef
	}
	return s.model[v]
}

// LitValue returns the model value of l after a Sat result.
func (s *Solver) LitValue(l cnf.Lit) cnf.Value {
	v := s.Value(l.Var())
	if l.IsNeg() {
		return v.Not()
	}
	return v
}

// Model returns the satisfying assignment found by the last Sat solve.
// The assignment shares the solver's reusable snapshot buffer: it is
// valid until the next Solve call, which overwrites it.
func (s *Solver) Model() cnf.Assignment { return s.model }

// FailedAssumptions returns, after an Unsat result under assumptions, a
// subset of the assumptions whose conjunction is already unsatisfiable
// (negated clause form, as in MiniSat's conflict vector).
func (s *Solver) FailedAssumptions() []cnf.Lit { return s.conflict }
