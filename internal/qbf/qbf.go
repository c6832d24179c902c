// Package qbf implements a search-based decision procedure for quantified
// Boolean formulas in prenex CNF (QDPLL), in the style of the
// general-purpose QBF solvers of the early 2000s: prefix-ordered
// branching, QBF unit propagation with universal reduction, and the pure
// literal rule.
//
// Its role in the reproduction is to be the "general-purpose QBF solver"
// column of the paper's evaluation: a correct solver that nevertheless
// collapses on the BMC formulations (2) and (3), motivating the
// special-purpose procedure in internal/jsat.
package qbf

import (
	"time"

	"repro/internal/cancel"
	"repro/internal/cnf"
	"repro/internal/faultpoint"
)

// Result is the outcome of evaluating a QBF.
type Result uint8

// Evaluation outcomes.
const (
	Unknown Result = iota // budget exhausted
	True                  // the formula is valid
	False                 // the formula is invalid
)

// String returns "TRUE", "FALSE" or "UNKNOWN".
func (r Result) String() string {
	switch r {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	}
	return "UNKNOWN"
}

// Options bound a solve.
type Options struct {
	// NodeBudget, when positive, limits the number of search nodes.
	NodeBudget int64
	// Deadline, when non-zero, aborts the search once passed.
	Deadline time.Time
	// Cancel, when non-nil, aborts the search with Unknown as soon as
	// the flag is set. Polled at every search node, like NodeBudget.
	Cancel *cancel.Flag
}

// Stats are cumulative search statistics.
type Stats struct {
	Nodes        int64
	Propagations int64
	MaxDepth     int
}

// Solver decides one PCNF. Build with New and call Solve once; the
// solver is not incremental (the general-purpose solvers of the era were
// not either).
type Solver struct {
	opts  Options
	Stats Stats

	clauses []cnf.Clause
	nVars   int
	quant   []cnf.Quant // per var
	qdepth  []int32     // per var: block index in prefix order
	order   []cnf.Var   // variables in prefix order (outermost first)
	assign  cnf.Assignment
	trail   []cnf.Var

	deadlineHit bool
	checkCount  int64
}

// New prepares a solver for p. Free matrix variables are treated as
// outermost existentials, the QDIMACS convention.
func New(p *cnf.PCNF, opts Options) *Solver {
	n := p.Matrix.NumVars()
	s := &Solver{
		opts:   opts,
		nVars:  n,
		quant:  make([]cnf.Quant, n+1),
		qdepth: make([]int32, n+1),
		assign: cnf.NewAssignment(n),
	}
	inPrefix := make([]bool, n+1)
	// Free variables first (outermost existential block, depth 0).
	for _, b := range p.Prefix {
		for _, v := range b.Vars {
			if int(v) <= n {
				inPrefix[v] = true
			}
		}
	}
	for v := cnf.Var(1); int(v) <= n; v++ {
		if !inPrefix[v] {
			s.quant[v] = cnf.Exists
			s.qdepth[v] = 0
			s.order = append(s.order, v)
		}
	}
	for bi, b := range p.Prefix {
		for _, v := range b.Vars {
			s.quant[v] = b.Quant
			s.qdepth[v] = int32(bi + 1)
			s.order = append(s.order, v)
		}
	}
	// Normalize clauses: drop tautologies, dedupe.
	for _, c := range p.Matrix.Clauses {
		nc, taut := c.Clone().Normalize()
		if taut {
			continue
		}
		s.clauses = append(s.clauses, nc)
	}
	return s
}

// Solve decides the formula.
func (s *Solver) Solve() Result {
	s.Stats.Nodes++ // the root counts as a node
	// A clause that is empty after universal reduction at the root makes
	// the formula false outright.
	for _, c := range s.clauses {
		if len(s.reduceUniversal(c)) == 0 {
			return False
		}
	}
	return s.search(0)
}

func (s *Solver) budgetExceeded() bool {
	// Fault-injection site: polled once per QDPLL search node. A fired
	// error/cancel latches deadlineHit, the same sound Unknown unwind
	// an expired deadline takes.
	if faultpoint.Hit("qbf.node") != nil {
		s.deadlineHit = true
		return true
	}
	if s.opts.NodeBudget > 0 && s.Stats.Nodes >= s.opts.NodeBudget {
		return true
	}
	if s.opts.Cancel.Canceled() {
		return true
	}
	s.checkCount++
	if !s.opts.Deadline.IsZero() && s.checkCount%256 == 0 {
		if time.Now().After(s.opts.Deadline) {
			s.deadlineHit = true
		}
	}
	return s.deadlineHit
}

// expired is the immediate stop poll — one clock read plus one atomic
// load, no call-count gating. Propagation calls it once per fixpoint
// round: a round sweeps every clause, so on large matrices a single
// propagate() would otherwise outlive the deadline by seconds before
// the per-node poll in search ever ran again.
func (s *Solver) expired() bool {
	if s.deadlineHit {
		return true
	}
	if s.opts.Cancel.Canceled() {
		s.deadlineHit = true
		return true
	}
	if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
		s.deadlineHit = true
	}
	return s.deadlineHit
}

// reduceUniversal returns the unassigned literals of c after removing
// false literals and universally reducing: a universal literal is dropped
// when no existential literal in the clause is quantified inside it
// (deeper). Returns nil when the clause is satisfied.
func (s *Solver) reduceUniversal(c cnf.Clause) []cnf.Lit {
	out := make([]cnf.Lit, 0, len(c))
	maxExistDepth := int32(-1)
	for _, l := range c {
		switch s.assign.Lit(l) {
		case cnf.True:
			return nil
		case cnf.False:
			continue
		}
		out = append(out, l)
		if s.quant[l.Var()] == cnf.Exists && s.qdepth[l.Var()] > maxExistDepth {
			maxExistDepth = s.qdepth[l.Var()]
		}
	}
	reduced := out[:0]
	for _, l := range out {
		if s.quant[l.Var()] == cnf.Forall && s.qdepth[l.Var()] > maxExistDepth {
			continue // universal literal deeper than every existential: drop
		}
		reduced = append(reduced, l)
	}
	return reduced
}

type clauseState uint8

const (
	stateOpen clauseState = iota
	stateSat
	stateConflict
	stateUnit
)

// examine classifies c under the current assignment, returning the unit
// literal when the clause is unit on an existential.
func (s *Solver) examine(c cnf.Clause) (clauseState, cnf.Lit) {
	anyTrue := false
	for _, l := range c {
		if s.assign.Lit(l) == cnf.True {
			anyTrue = true
			break
		}
	}
	if anyTrue {
		return stateSat, cnf.NoLit
	}
	rem := s.reduceUniversal(c)
	switch {
	case len(rem) == 0:
		return stateConflict, cnf.NoLit
	case len(rem) == 1:
		l := rem[0]
		if s.quant[l.Var()] == cnf.Exists {
			return stateUnit, l
		}
		// A lone universal literal after reduction cannot happen (it
		// would have been reduced), but guard anyway.
		return stateConflict, cnf.NoLit
	}
	return stateOpen, cnf.NoLit
}

func (s *Solver) set(v cnf.Var, val cnf.Value) {
	s.assign.Set(v, val)
	s.trail = append(s.trail, v)
}

func (s *Solver) undoTo(mark int) {
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.assign.Set(v, cnf.Undef)
	}
}

// propagate applies QBF unit propagation and the pure-literal rule to
// fixpoint. It reports conflict=true when some clause is falsified, and
// allSat=true when every clause is satisfied.
func (s *Solver) propagate() (conflict, allSat bool) {
	for {
		if s.expired() {
			// Neither conflict nor allSat: the caller's next budget
			// poll turns this into Unknown.
			return false, false
		}
		changed := false
		allSat = true
		for _, c := range s.clauses {
			st, unit := s.examine(c)
			switch st {
			case stateConflict:
				return true, false
			case stateUnit:
				s.Stats.Propagations++
				s.set(unit.Var(), cnf.BoolValue(!unit.IsNeg()))
				changed = true
				allSat = false
			case stateOpen:
				allSat = false
			}
		}
		if allSat {
			return false, true
		}
		if s.assignPure() {
			changed = true
		}
		if !changed {
			return false, false
		}
	}
}

// assignPure finds variables occurring with a single polarity among the
// not-yet-satisfied clauses and assigns them: existentials to satisfy,
// universals to falsify (their occurrences vanish either way for the
// opponent). Returns whether anything was assigned.
func (s *Solver) assignPure() bool {
	const (
		occPos = 1
		occNeg = 2
	)
	occ := make([]uint8, s.nVars+1)
	for _, c := range s.clauses {
		sat := false
		for _, l := range c {
			if s.assign.Lit(l) == cnf.True {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		for _, l := range c {
			if s.assign.Get(l.Var()) != cnf.Undef {
				continue
			}
			if l.IsNeg() {
				occ[l.Var()] |= occNeg
			} else {
				occ[l.Var()] |= occPos
			}
		}
	}
	changed := false
	for v := cnf.Var(1); int(v) <= s.nVars; v++ {
		if s.assign.Get(v) != cnf.Undef || occ[v] == 0 || occ[v] == occPos|occNeg {
			continue
		}
		pos := occ[v] == occPos
		if s.quant[v] == cnf.Exists {
			s.set(v, cnf.BoolValue(pos))
		} else {
			s.set(v, cnf.BoolValue(!pos))
		}
		changed = true
	}
	return changed
}

// search evaluates the formula under the current partial assignment.
func (s *Solver) search(depth int) Result {
	s.Stats.Nodes++
	if depth > s.Stats.MaxDepth {
		s.Stats.MaxDepth = depth
	}
	if s.budgetExceeded() {
		return Unknown
	}
	mark := len(s.trail)
	conflict, allSat := s.propagate()
	if conflict {
		s.undoTo(mark)
		return False
	}
	if allSat {
		s.undoTo(mark)
		return True
	}
	if s.deadlineHit {
		// propagate bailed out without sweeping the clauses; its
		// (false, false) is not a verdict. Returning Unknown here
		// matters because a Forall ancestor short-circuits on False
		// without re-polling the budget — an unverified False from the
		// all-assigned case below could otherwise reach the root.
		s.undoTo(mark)
		return Unknown
	}

	// Branch on the outermost unassigned variable.
	var v cnf.Var
	for _, ov := range s.order {
		if s.assign.Get(ov) == cnf.Undef {
			v = ov
			break
		}
	}
	if v == cnf.NoVar {
		// Everything assigned, no conflict, not all satisfied — cannot
		// happen, since fully assigned clauses are either sat or false.
		s.undoTo(mark)
		return False
	}

	res := s.branch(v, depth)
	s.undoTo(mark)
	return res
}

func (s *Solver) branch(v cnf.Var, depth int) Result {
	first, second := cnf.True, cnf.False
	sawUnknown := false

	for i, val := range []cnf.Value{first, second} {
		_ = i
		mark := len(s.trail)
		s.set(v, val)
		r := s.search(depth + 1)
		s.undoTo(mark)
		switch {
		case s.quant[v] == cnf.Exists && r == True:
			return True
		case s.quant[v] == cnf.Forall && r == False:
			return False
		case r == Unknown:
			sawUnknown = true
		}
	}
	if sawUnknown {
		return Unknown
	}
	if s.quant[v] == cnf.Exists {
		return False // both branches false
	}
	return True // both branches true
}
