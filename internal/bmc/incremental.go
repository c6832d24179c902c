package bmc

import (
	"slices"
	"time"

	"repro/internal/cancel"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// IncrementalOptions configure an IncrementalUnroller.
type IncrementalOptions struct {
	Semantics Semantics
	Mode      tseitin.Mode
	// SAT configures the persistent solver. Its ConflictBudget applies
	// to each CheckBound query individually; the Deadline, when set,
	// caps the whole run.
	SAT sat.Options
	// QueryTimeout, when positive, re-arms the solver deadline before
	// each CheckBound query — the same per-check timeout contract the
	// non-incremental engines get from a fresh solver per bound.
	QueryTimeout time.Duration
}

// IncrStats are cumulative counters over the lifetime of an
// IncrementalUnroller — the quantities the incremental-vs-monolithic
// deepening test and benchmarks (TestIncrementalDeepenVsMonolithic,
// BenchmarkDeepen_*_d64) compare.
type IncrStats struct {
	Bounds       int   // CheckBound queries answered
	ClausesAdded int   // problem clauses pushed into the solver, total
	Conflicts    int64 // CDCL conflicts, total
	PeakBytes    int   // solver clause-database high water (ClauseDBBytes)
}

// IncrementalUnroller is the persistent-solver BMC engine: one
// sat.Solver lives for the whole deepening run, the unrolling is
// extended one time frame at a time (emitting only frame k's transition
// clauses on top of frames 0..k-1), and the query at bound k is asserted
// through a per-bound activation literal passed to the solver as an
// assumption. Learned clauses therefore survive across bounds, and a
// query retired after an Unreachable answer is switched off by a unit
// clause on its activation literal — never deleted. Classical
// deepening re-unrolls from scratch and does O(k²) total encoding work
// to reach depth k; this engine does O(k).
//
// Both semantics unroll the plain cone of influence. An exact-k query
// activates bad at frame k alone. An at-most-k query activates "bad at
// some frame ≤ k" as one clause act → bad_{r+1} ∨ … ∨ bad_k, where r
// is the deepest bound whose at-most query this solver has itself
// refuted, retiring it by fixing bad_0..bad_r false. A deterministic
// model stays deterministic, where the paper's self-loop would let
// every frame stutter; the self-loop stays with the formulas that hold
// a single transition-relation copy (jSAT, formulas (2) and (3)).
type IncrementalUnroller struct {
	sys *model.System // the cone of influence every frame encodes
	// loop is sys self-looped under AtMost, nil under Exact: at-most
	// answers name it and their witnesses replay on it.
	loop *model.System
	mode tseitin.Mode
	s    *sat.Solver
	// f stages the clauses frames emit until flush loads them into the
	// solver and drops them; only its variable counter keeps growing.
	f *cnf.Formula

	queryTimeout time.Duration
	runDeadline  time.Time // the construction-time SAT.Deadline, if any

	literals int     // literal occurrences of every clause flushed so far
	frames   []Frame // frames[t] is time step t
	bads     []cnf.Lit
	acts     []cnf.Lit
	// retired is the deepest bound an at-most query of this solver
	// refuted: bad literals 0..retired are fixed false (-1: none).
	retired int
	stats   IncrStats
}

// NewIncrementalUnroller builds an empty unroller for sys. Frames are
// created on demand by CheckBound.
func NewIncrementalUnroller(sys *model.System, opts IncrementalOptions) *IncrementalUnroller {
	u := &IncrementalUnroller{
		sys:          Prepare(sys, Exact),
		mode:         opts.Mode,
		s:            sat.New(opts.SAT),
		f:            &cnf.Formula{},
		queryTimeout: opts.QueryTimeout,
		runDeadline:  opts.SAT.Deadline,
		retired:      -1,
	}
	if opts.Semantics == AtMost {
		u.loop = model.AddSelfLoop(u.sys)
	}
	return u
}

// System returns the system the answers name: the cone of influence,
// self-looped under AtMost (Prepare). Witnesses validate against it,
// though an at-most unroller encodes the cone without the self-loop.
func (u *IncrementalUnroller) System() *model.System {
	if u.loop != nil {
		return u.loop
	}
	return u.sys
}

// SetCancel replaces the persistent solver's cooperative cancellation
// flag. Flags are one-shot; a long-lived unroller serving many requests
// hands each request its own flag so that cancelling one does not
// poison the solver for the next. A nil flag removes the signal.
func (u *IncrementalUnroller) SetCancel(c *cancel.Flag) { u.s.SetCancel(c) }

// SetDeadline replaces the whole-run deadline: the persistent solver
// aborts with Unknown once it passes, and a configured QueryTimeout is
// clipped to it. A long-lived unroller serving many requests re-arms it
// per request; a zero time removes the deadline.
func (u *IncrementalUnroller) SetDeadline(t time.Time) {
	u.runDeadline = t
	u.s.SetDeadline(t)
}

// Stats returns the cumulative counters of the run so far.
func (u *IncrementalUnroller) Stats() IncrStats { return u.stats }

// NumFrames returns the number of time frames currently encoded.
func (u *IncrementalUnroller) NumFrames() int { return len(u.frames) }

// flush loads everything newly emitted into f — variables first, then
// clauses — into the persistent solver, which copies each clause, and
// drops the staged clauses: the solver's copy is the only one kept.
func (u *IncrementalUnroller) flush() {
	for u.s.NumVars() < u.f.NumVars() {
		u.s.NewVar()
	}
	for _, c := range u.f.Clauses {
		u.stats.ClausesAdded++
		u.literals += len(c)
		u.s.AddClause(c...)
	}
	clear(u.f.Clauses)
	u.f.Clauses = u.f.Clauses[:0]
	if b := u.s.ClauseDBBytes(); b > u.stats.PeakBytes {
		u.stats.PeakBytes = b
	}
}

// extendTo ensures frames 0..k exist, emitting I(Z0) for frame 0 and one
// transition-relation copy per new frame — the only encoding work this
// engine ever repeats is the single new frame per bound step.
func (u *IncrementalUnroller) extendTo(k int) {
	for len(u.frames) <= k {
		t := len(u.frames)
		fr := NewFrame(u.sys, u.f, u.mode, nil, nil)
		if t == 0 {
			EmitInit(u.sys, u.f, fr.state)
		} else {
			u.frames[t-1].Step(fr.state, cnf.NoLit)
		}
		u.frames = append(u.frames, fr)
	}
}

// bad returns the literal of the bad predicate at frame t, encoding the
// bad cone on first use.
func (u *IncrementalUnroller) bad(t int) cnf.Lit {
	for len(u.bads) <= t {
		u.bads = append(u.bads, cnf.NoLit)
	}
	if u.bads[t] == cnf.NoLit {
		u.bads[t] = u.frames[t].Bad()
	}
	return u.bads[t]
}

// activation returns the assumption literal that switches on the query
// at bound k, encoding its guarded clause on first use: act → bad_k
// under Exact, act → bad_{r+1} ∨ … ∨ bad_k under AtMost with r the
// deepest retired bound. A later retirement leaves the clause sound:
// the literals it then fixes false only shorten what the clause asks.
func (u *IncrementalUnroller) activation(k int) cnf.Lit {
	for len(u.acts) <= k {
		u.acts = append(u.acts, cnf.NoLit)
	}
	if u.acts[k] == cnf.NoLit {
		first := k
		if u.loop != nil {
			first = u.retired + 1
		}
		c := cnf.Clause{cnf.NoLit} // the guard, once its variable exists
		for t := first; t <= k; t++ {
			c = append(c, u.bad(t))
		}
		act := cnf.PosLit(u.f.NewVar())
		c[0] = act.Neg()
		u.f.AddClause(c)
		u.acts[k] = act
	}
	return u.acts[k]
}

// CheckBound answers "is a bad state reachable in exactly (at most) k
// steps?" under the configured semantics, reusing every clause —
// problem and learnt — from all previous queries. Bounds may be checked
// in any order. After an Unreachable answer the query is retired with
// unit clauses, so later queries propagate it away for free.
func (u *IncrementalUnroller) CheckBound(k int) Result {
	u.extendTo(k)
	act := u.activation(k)
	u.flush()
	u.stats.Bounds++

	if u.queryTimeout > 0 {
		// Per-query deadline, clipped to the whole-run deadline if one
		// was configured.
		d := time.Now().Add(u.queryTimeout)
		if !u.runDeadline.IsZero() && u.runDeadline.Before(d) {
			d = u.runDeadline
		}
		u.s.SetDeadline(d)
	}

	startConflicts := u.s.Stats.Conflicts
	res := Result{K: k, Formula: u.formulaStats(), System: u.System()}
	switch u.s.Solve(act) {
	case sat.Sat:
		res.Status = Reachable
		res.Witness = u.witness(k)
	case sat.Unsat:
		res.Status = Unreachable
		u.retire(k, act)
	default:
		res.Status = Unknown
	}
	res.Conflicts = u.s.Stats.Conflicts - startConflicts
	u.stats.Conflicts = u.s.Stats.Conflicts
	if b := u.s.ClauseDBBytes(); b > u.stats.PeakBytes {
		u.stats.PeakBytes = b
	}
	res.PeakBytes = u.stats.PeakBytes
	return res
}

// retire switches off the query at bound k after an Unreachable answer:
// the unit ¬act permanently satisfies its guard clause, never deleted.
// Under AtMost the refuted frames' bad literals become false units as
// well — the solver proved them false, so the units only strengthen
// later queries, which then ask about deeper frames alone.
func (u *IncrementalUnroller) retire(k int, act cnf.Lit) {
	u.s.AddClause(act.Neg())
	if u.loop == nil {
		return
	}
	for t := u.retired + 1; t <= k; t++ {
		u.s.AddClause(u.bads[t].Neg())
	}
	u.retired = max(u.retired, k)
}

// formulaStats sizes the cumulative formula pushed so far, from the
// running counts flush keeps.
func (u *IncrementalUnroller) formulaStats() FormulaStats {
	return FormulaStats{
		Vars:     u.f.NumVars(),
		Clauses:  u.stats.ClausesAdded,
		Literals: u.literals,
		Bytes:    cnf.SizeBytes(u.stats.ClausesAdded, u.literals),
	}
}

// witness reads the counterexample out of the satisfying assignment:
// the trace of frames 0..k under Exact. Under AtMost it reads frames up
// to the first one whose bad literal is true and pads that trace to K = k
// with stutter steps of the self-looped system.
func (u *IncrementalUnroller) witness(k int) *Witness {
	j := k
	if u.loop != nil {
		// Bad literals up to retired are false units; the guard clause
		// makes one in (retired, k] true.
		j = u.retired + 1
		for j < k && u.s.LitValue(u.bads[j]) != cnf.True {
			j++
		}
	}
	stateVars := make([][]cnf.Var, j+1)
	inputVars := make([][]cnf.Var, j+1)
	for t := 0; t <= j; t++ {
		stateVars[t] = u.frames[t].state
		inputVars[t] = u.frames[t].inputs
	}
	w := ReadWitness(stateVars, inputVars, j, u.s)
	if u.loop != nil {
		w = stutter(w, k)
	}
	return w
}

// stutter turns w, a trace of a plain system ending in a bad state,
// into a k-step trace (k ≥ w.K) of its self-loop transform
// (model.AddSelfLoop): w's steps take self-loop input 0, and k − w.K
// stutter steps (self-loop input 1) hold its last state and input frame
// up to step k, where the bad predicate still holds.
func stutter(w *Witness, k int) *Witness {
	out := &Witness{K: k, States: make([][]bool, k+1), Inputs: make([][]bool, k+1)}
	for t := 0; t <= k; t++ {
		src := min(t, w.K)
		out.States[t] = slices.Clone(w.States[src])
		out.Inputs[t] = append(slices.Clone(w.Inputs[src]), t >= w.K)
	}
	return out
}

// SolveIncremental runs one bounded check through a fresh incremental
// unroller — the one-shot entry point used by Check and the bench
// runner. A single bound gains nothing over SolveUnroll; the engine
// pays off when one unroller serves a whole deepening run.
func SolveIncremental(sys *model.System, k int, opts IncrementalOptions) Result {
	return NewIncrementalUnroller(sys, opts).CheckBound(k)
}

// Deepen runs the deepening loop on this unroller: bounds 0..maxBound
// in order, stopping at the first counterexample. Each step adds a
// single transition-relation copy and keeps all learned clauses; Stats
// afterwards holds the cumulative cost of the whole run.
func (u *IncrementalUnroller) Deepen(maxBound int) DeepenResult {
	return DeepenLinearFrom(-1, maxBound, u.CheckBound)
}

// DeepenGeometric runs the geometric deepening schedule on this
// unroller: bounds grow by ratio (≤ 1 = DefaultGeometricRatio) up to
// maxBound, with binary-search refinement of the last growth interval,
// all through the one persistent solver — learned clauses and retired
// bounds carry across the jumps (CheckBound accepts bounds in any
// order). The unroller must have been built with AtMost semantics;
// skipping bounds is unsound under Exact. Each probe asks for bad at
// one of the frames no earlier probe refuted, so on a deterministic
// model every probe decides by propagation.
func (u *IncrementalUnroller) DeepenGeometric(maxBound int, ratio float64) DeepenResult {
	return DeepenGeometricFrom(-1, maxBound, ratio, u.CheckBound)
}

// DeepenIncremental is the persistent-solver counterpart of
// DeepenLinear: one IncrementalUnroller serves every bound 0..maxBound.
func DeepenIncremental(sys *model.System, maxBound int, opts IncrementalOptions) DeepenResult {
	return NewIncrementalUnroller(sys, opts).Deepen(maxBound)
}

// DeepenGeometricIncremental is the persistent-solver entry point for
// the geometric schedule: one IncrementalUnroller, built with AtMost
// semantics regardless of opts (the schedule requires it), serves the
// doubling run and the refinement probes. The witness is FoundAt steps
// of the self-looped cone.
func DeepenGeometricIncremental(sys *model.System, maxBound int, ratio float64, opts IncrementalOptions) DeepenResult {
	opts.Semantics = AtMost
	return NewIncrementalUnroller(sys, opts).DeepenGeometric(maxBound, ratio)
}
