// Package jsat implements the paper's special-purpose decision procedure
// for the QBF bounded-reachability formulation (2). Instead of handing a
// general-purpose QBF solver the formula
//
//	∃Z0..Zk ∀U,V: I(Z0) ∧ F(Zk) ∧ ((⋁ U↔Zᵢ ∧ V↔Zᵢ₊₁) → TR(U,V)),
//
// jSAT keeps in memory only the propositional part the paper calls
// formula (4) — I(Z0) ∧ TR(U,V) ∧ F(Zk) — and maintains the binding of
// (U,V) to consecutive state pairs implicitly, by sliding a current/next
// window along the path: a depth-first search in the state graph of the
// system from the initial states toward the final states.
//
// Realization: one incremental CDCL solver holds a single copy of
// TR(U,V) plus F(V) behind an activation literal; a second small solver
// holds I(Z) plus F(Z) for enumerating initial states (and for the k=0
// corner). Both formulas are built from bmc.Frame, the time-step
// encoder every engine shares. Successor candidates of the current
// state are enumerated by solving under assumptions U = s; blocking
// clauses are guarded by per-frame activation literals that are retired
// when a frame is popped. States proven unable to reach F within their
// remaining budget are cached ("hopeless states"), pruning
// re-exploration across the search — the cache is the subject of
// ablation E5.
package jsat

import (
	"time"

	"repro/internal/bmc"
	"repro/internal/cancel"
	"repro/internal/cnf"
	"repro/internal/faultpoint"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// Options configure a jSAT run.
type Options struct {
	// Semantics selects exactly-k or at-most-k reachability. The
	// hopeless-state cache is considerably stronger under AtMost,
	// because hopelessness for r remaining steps then subsumes all
	// r' ≤ r.
	Semantics bmc.Semantics
	// Mode is the CNF transformation for the circuit cones.
	Mode tseitin.Mode
	// SAT configures the step solver (per-query budgets apply to each
	// incremental query).
	SAT sat.Options
	// DisableCache turns off the hopeless-state cache (ablation E5).
	DisableCache bool
	// QueryBudget, when positive, bounds the total number of SAT
	// queries across the whole search.
	QueryBudget int64
	// Deadline, when non-zero, aborts the search once passed.
	Deadline time.Time
	// Cancel, when non-nil, aborts the search with Unknown as soon as
	// the flag is set. It is polled before every SAT query, and is also
	// handed to the step and init solvers (unless SAT.Cancel is already
	// set), so an in-flight query aborts mid-search too.
	Cancel *cancel.Flag
}

// Stats summarize a run.
type Stats struct {
	Queries   int64 // incremental SAT calls
	CacheHits int64
	PeakBytes int // high-water estimate of solver memory
	// AssumptionsGiven / AssumptionsReused mirror the underlying CDCL
	// solvers' trail-reuse counters (step + init), refreshed after every
	// Check: the fraction reused is the share of assumption levels the
	// successor enumeration got back for free.
	AssumptionsGiven  int64
	AssumptionsReused int64
}

// Solver is a reusable jSAT instance for one system. Create with New;
// Check may be called for several bounds, reusing the learned clauses
// and the hopeless-state cache where sound.
type Solver struct {
	opts  Options
	Stats Stats

	sys *model.System // prepared: the cone of influence, self-looped under AtMost

	// step solver: TR(U,V) ∧ (actF → F(V)).
	step   *sat.Solver
	uVars  []cnf.Var
	vVars  []cnf.Var
	wVars  []cnf.Var // TR inputs
	fwVars []cnf.Var // F-cone inputs
	actF   cnf.Var

	// init solver: I(Z) ∧ (actBad → F(Z)) over state vars zVars.
	init   *sat.Solver
	zVars  []cnf.Var
	izVars []cnf.Var // F-cone inputs in the init solver
	actBad cnf.Var

	// hopeless cache: interned packed states with per-semantics payload
	// (see cache.go). Probes allocate nothing.
	cache *stateCache

	// frames[r] holds the reusable per-depth buffers of the DFS frame
	// with r transitions remaining: the concrete state, the inputs of
	// the step taken from it, and its assumption vector. The recursion
	// at depth r only ever touches slots ≤ r, so the buffers live for
	// the whole search and the inner loop allocates nothing.
	frames []frameSlot
	// actPool[r] is the pooled activation variable guarding blocking
	// clauses of frames with r remaining (cache-enabled mode; see
	// frameAct). 0 = not yet allocated. actDirty[r] records whether any
	// blocking clause was added under it — clean variables are reused
	// across Checks instead of being retired.
	actPool  []cnf.Var
	actDirty []bool
	// rootActPool is the pooled init-solver guard for initial-state
	// blocking, reused across Checks while clean (0 = not allocated);
	// retired and reallocated only when a Check actually blocked under
	// it — blocked initial states are k-specific and must not leak into
	// the next bound.
	rootActPool cnf.Var
	// clauseBuf is the blocking-clause scratch (consumed by AddClause).
	clauseBuf []cnf.Lit
	// pathBuf backs the witness path across Check calls.
	pathBuf []frameRec

	pollTick    int64 // budget-poll counter: queries AND frame pushes
	stepRetired bool  // step-solver guards retired since last Simplify
	initRetired bool  // init-solver guards retired since last Simplify
	deadlineHit bool
}

// frameSlot is the reusable buffer set of one DFS depth.
type frameSlot struct {
	state  []bool
	inputs []bool
	assume []cnf.Lit
}

// frameRec captures one decided step of the path for witness assembly.
type frameRec struct {
	state  []bool
	inputs []bool
}

// New builds a jSAT solver for sys.
func New(sys *model.System, opts Options) *Solver {
	if opts.SAT.Cancel == nil {
		opts.SAT.Cancel = opts.Cancel
	}
	prepared := bmc.Prepare(sys, opts.Semantics)
	s := &Solver{
		opts: opts,
		sys:  prepared,
	}
	s.cache = newStateCache(prepared.Circ.NumLatches())
	s.step = sat.New(opts.SAT)
	s.step.AddFormula(s.stepFormula())
	s.init = sat.New(opts.SAT)
	s.init.AddFormula(s.initFormula())
	return s
}

// SetDeadline replaces the search deadline (and the per-query deadline
// of both underlying solvers), letting clients that keep one jSAT
// instance alive across bounds re-arm a timeout. A zero time removes
// the deadline.
func (s *Solver) SetDeadline(t time.Time) {
	s.opts.Deadline = t
	s.deadlineHit = false
	s.step.SetDeadline(t)
	s.init.SetDeadline(t)
}

// SetCancel replaces the cooperative cancellation flag of the search
// and of both underlying solvers. Flags are one-shot, so a client that
// keeps one jSAT instance alive across many requests hands each request
// its own flag; a cancelled request then aborts with Unknown without
// poisoning the instance for the next one. A nil flag removes the
// signal.
func (s *Solver) SetCancel(c *cancel.Flag) {
	s.opts.Cancel = c
	s.step.SetCancel(c)
	s.init.SetCancel(c)
}

// System returns the system actually searched: the cone of influence,
// self-looped under AtMost (bmc.Prepare). Witnesses validate against it.
func (s *Solver) System() *model.System { return s.sys }

// stepFormula builds the step solver's formula TR(U,V) ∧ (actF → F(V)):
// one bmc.Frame over (U, W) takes the single transition step to V, and
// a second frame over V, with its own inputs, encodes the bad cone.
func (s *Solver) stepFormula() *cnf.Formula {
	sys, mode := s.sys, s.opts.Mode
	f := &cnf.Formula{}
	s.uVars = f.NewVars(sys.NumStateVars())
	s.vVars = f.NewVars(sys.NumStateVars())
	s.wVars = f.NewVars(sys.NumInputs())
	bmc.NewFrame(sys, f, mode, s.uVars, s.wVars).Step(s.vVars, cnf.NoLit)

	s.actF = f.NewVar()
	s.fwVars = f.NewVars(sys.NumInputs())
	f.Add(cnf.NegLit(s.actF), bmc.NewFrame(sys, f, mode, s.vVars, s.fwVars).Bad())
	return f
}

// initFormula builds the init solver's formula I(Z) ∧ (actBad → F(Z))
// over one bmc.Frame.
func (s *Solver) initFormula() *cnf.Formula {
	sys := s.sys
	f := &cnf.Formula{}
	s.zVars = f.NewVars(sys.NumStateVars())
	bmc.EmitInit(sys, f, s.zVars)
	s.actBad = f.NewVar()
	s.izVars = f.NewVars(sys.NumInputs())
	f.Add(cnf.NegLit(s.actBad), bmc.NewFrame(sys, f, s.opts.Mode, s.zVars, s.izVars).Bad())
	return f
}

// MemBytes reports the solver's live formula memory: the single TR
// copy, the init/bad cones, and the hopeless cache. This is the paper's
// space claim made measurable (experiment E3). Every term is maintained
// incrementally — ClauseDBBytes tracks watch capacity as it grows and
// the cache counts bytes on insert — so the per-query peak sampling in
// noteMem is O(1) instead of the old walk over the whole cache.
func (s *Solver) MemBytes() int {
	return s.step.ClauseDBBytes() + s.init.ClauseDBBytes() + s.cache.bytes
}

func (s *Solver) noteMem() {
	if m := s.MemBytes(); m > s.Stats.PeakBytes {
		s.Stats.PeakBytes = m
	}
}

func (s *Solver) isHopeless(state []bool, remaining int) bool {
	if s.opts.DisableCache {
		return false
	}
	var hit bool
	if s.opts.Semantics == bmc.AtMost {
		hit = s.cache.hopelessAtMost(state, remaining)
	} else {
		hit = s.cache.hopelessExact(state, remaining)
	}
	if hit {
		s.Stats.CacheHits++
	}
	return hit
}

func (s *Solver) markHopeless(state []bool, remaining int) {
	if s.opts.DisableCache {
		return
	}
	if s.opts.Semantics == bmc.AtMost {
		s.cache.markAtMost(state, remaining)
	} else {
		s.cache.markExact(state, remaining)
	}
}

// budgetExceeded polls every search budget. It is called before every
// SAT query AND on every frame push: the deadline is checked every 32nd
// call, so a stretch of the search dominated by cache hits and frame
// pushes (no queries at all) can no longer starve the clock poll — the
// old schedule only counted queries.
func (s *Solver) budgetExceeded() bool {
	if s.deadlineHit {
		return true
	}
	// Fault-injection site: polled before every SAT query and frame
	// push. A fired error/cancel latches deadlineHit, so the whole
	// Check unwinds with Unknown exactly like an expired deadline.
	if faultpoint.Hit("jsat.query") != nil {
		s.deadlineHit = true
		return true
	}
	if s.opts.QueryBudget > 0 && s.Stats.Queries >= s.opts.QueryBudget {
		return true
	}
	if s.opts.Cancel.Canceled() {
		return true
	}
	s.pollTick++
	if !s.opts.Deadline.IsZero() && s.pollTick%32 == 0 && time.Now().After(s.opts.Deadline) {
		s.deadlineHit = true
	}
	return s.deadlineHit
}

// ensureFrames grows the per-depth buffer pool to cover remaining
// counts 0..k. Slot widths are fixed by the system, so this allocates
// only on the first Check of a new high bound.
func (s *Solver) ensureFrames(k int) {
	n := s.sys.Circ.NumLatches()
	in := s.sys.Circ.NumInputs()
	for len(s.frames) <= k {
		s.frames = append(s.frames, frameSlot{
			state:  make([]bool, n),
			inputs: make([]bool, in),
			assume: make([]cnf.Lit, 0, n+2),
		})
	}
}

// frameAct returns the activation variable guarding the blocking
// clauses of a frame with `remaining` transitions left.
//
// With the cache enabled the variable is pooled per remaining-count for
// the duration of one Check, not retired on frame pop: a blocked
// successor is precisely a state proven hopeless with remaining-1 steps
// left — a fact that depends only on (state, remaining-1), like the
// hopeless cache itself — so clauses guarded by the pooled variable
// stay sound across frames at the same depth, acting as a SAT-level
// mirror of the cache while keeping the step solver's variable table
// from growing with every frame push (pushes can dwarf k). The
// pool is retired wholesale at the next Check's entry: still-active
// blocking clauses would keep shuffling watch lists on every later
// query, so bounding their lifetime to one Check keeps propagation
// O(live clauses) — the hopeless cache already carries the pruning
// across bounds.
//
// With the cache disabled (ablation E5) every frame gets a fresh
// variable, retired by a unit clause on pop — the pre-pooling
// semantics, so the ablation still measures a search without
// cross-frame pruning.
func (s *Solver) frameAct(remaining int) (act cnf.Var, pooled bool) {
	if s.opts.DisableCache {
		return s.step.NewVar(), false
	}
	for len(s.actPool) <= remaining {
		s.actPool = append(s.actPool, 0)
		s.actDirty = append(s.actDirty, false)
	}
	if s.actPool[remaining] == 0 {
		s.actPool[remaining] = s.step.NewVar()
	}
	return s.actPool[remaining], true
}

// retireActPool switches off every pooled activation variable that
// guards blocking clauses — called at Check entry, so each Check starts
// with no foreign blocking clauses in its propagation hot path. Clean
// variables (a deterministic walk blocks nothing) stay in the pool and
// are reused, so such runs neither grow the variable table across
// bounds nor pay a Simplify sweep.
func (s *Solver) retireActPool() {
	for i, v := range s.actPool {
		if v != 0 && s.actDirty[i] {
			s.step.AddClause(cnf.NegLit(v))
			s.actPool[i] = 0
			s.actDirty[i] = false
			s.stepRetired = true
		}
	}
}

// maybeSimplify reclaims clauses guarded by retired activation
// literals (root-satisfied garbage) — their arena space, watchers, and
// propagation cost all return to zero. Each solver is swept only when
// one of its own guards was retired.
func (s *Solver) maybeSimplify() {
	if s.stepRetired {
		s.stepRetired = false
		s.step.Simplify()
	}
	if s.initRetired {
		s.initRetired = false
		s.init.Simplify()
	}
}

// assumeInto writes the assumption literals binding vars to state into
// dst, reusing its backing array.
func assumeInto(dst []cnf.Lit, vars []cnf.Var, state []bool) []cnf.Lit {
	dst = dst[:0]
	for i, v := range vars {
		dst = append(dst, cnf.MkLit(v, !state[i]))
	}
	return dst
}

// blockClause builds "vars differ from state, unless act is off" in the
// solver's scratch buffer (AddClause consumes it before returning).
func (s *Solver) blockClause(act cnf.Var, vars []cnf.Var, state []bool) []cnf.Lit {
	out := append(s.clauseBuf[:0], cnf.NegLit(act))
	for i, v := range vars {
		out = append(out, cnf.MkLit(v, state[i]))
	}
	s.clauseBuf = out
	return out
}

// readVarsInto decodes the model values of vars into dst.
func readVarsInto(dst []bool, solver *sat.Solver, vars []cnf.Var) {
	for i, v := range vars {
		dst[i] = solver.Value(v) == cnf.True
	}
}

// readVars is the allocating variant, for the rare witness paths.
func (s *Solver) readVars(solver *sat.Solver, vars []cnf.Var) []bool {
	out := make([]bool, len(vars))
	readVarsInto(out, solver, vars)
	return out
}

// cloneBools copies a pooled buffer for retention in a witness.
func cloneBools(b []bool) []bool {
	out := make([]bool, len(b))
	copy(out, b)
	return out
}
