package interp

import (
	"repro/internal/aig"
	"repro/internal/bmc"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// Options configure the interpolation engine.
type Options struct {
	// Mode is the Tseitin transformation used for the frame encodings.
	Mode tseitin.Mode
	// SAT carries budgets, deadline, and the cancel flag into every
	// solver call (the fixpoint queries and the certificate checks).
	SAT sat.Options
	// MaxWindow caps the unrolling window the loop will widen to
	// (default 64). An exhausted cap returns the deepest bound proven,
	// never UNKNOWN-with-nothing.
	MaxWindow int
}

const (
	// maxIterations caps image iterations per window.
	maxIterations = 64
	// proofBudgetBytes bounds each query's resolution log; an overrun
	// degrades that query to "no interpolant".
	proofBudgetBytes = 64 << 20
)

func (o Options) maxWindow() int {
	if o.MaxWindow > 0 {
		return o.MaxWindow
	}
	return 64
}

// Result is the outcome of an unbounded proving attempt.
type Result struct {
	// Status is Safe (with Invariant), Reachable (with Witness),
	// Unreachable (no counterexample within K steps, but no proof
	// beyond), or Unknown.
	Status  bmc.Status
	K       int
	Witness *bmc.Witness
	// Invariant is the checked certificate on Safe.
	Invariant *Invariant
	// System is the system the run operated on — the COI-reduced plain
	// model. Witnesses and invariants validate against it.
	System     *model.System
	Conflicts  int64
	PeakBytes  int
	Iterations int
	Window     int
}

// Solve runs the interpolation fixpoint loop on sys until it either
// converges to a checked inductive invariant (Safe), finds a genuine
// counterexample (Reachable), or exhausts its windows/budgets
// (Unreachable at the deepest proven bound, else Unknown).
//
// The loop operates on the COI-reduced plain system so certificates are
// portable: any party that reduces the same model gets the same latch
// vector, and an invariant inductive for the plain transition relation
// also covers the self-loop (at-most-k) transform.
func Solve(sys *model.System, opts Options) Result {
	red := sys.Reduce()
	res := Result{Status: bmc.Unknown, System: red}

	// Depth 0: I ∧ Bad(Z0), outside the windowed loop (the partitioned
	// instance checks bad from frame 1 on).
	enc0 := bmc.EncodeUnroll(red, 0, opts.Mode)
	s := newSolver(opts.SAT, enc0.F)
	st := sat.Unsat
	if s != nil {
		st = s.Solve()
		res.Conflicts += s.Stats.Conflicts
		res.note(s)
	}
	switch st {
	case sat.Sat:
		res.Status = bmc.Reachable
		res.Witness = bmc.ReadWitness(enc0.StateVars, enc0.InputVars, 0, s)
		return res
	case sat.Unknown:
		return res
	}

	// R-graph: one shared builder for the initial-state predicate and
	// every interpolant, with one input per latch. Strashing keeps the
	// union of iterates compact.
	rG := aig.New()
	latchIn := make([]aig.Lit, red.NumStateVars())
	for i, l := range red.Circ.Latches() {
		latchIn[i] = rG.AddInput(l.Name)
	}
	initLit := aig.True
	for i, iv := range red.InitValues() {
		if iv.Constrained {
			l := latchIn[i]
			if !iv.Value {
				l = l.Not()
			}
			initLit = rG.And(initLit, l)
		}
	}

	if red.NumStateVars() == 0 {
		// No state: depth 0 already covered every reachable valuation.
		res.Status = bmc.Safe
		res.Invariant = &Invariant{G: snapshot(rG, aig.True, len(latchIn))}
		return res
	}

	r := initLit
	epochStart := true // R is exactly I: SAT is a genuine counterexample
	provenDepth := 0
	w := 1
	iters := 0

	for {
		if opts.SAT.Cancel.Canceled() {
			return res.conclude(provenDepth)
		}
		res.Iterations++
		res.Window = w
		iters++

		emitR := func(f *cnf.Formula, state []cnf.Var) {
			f.AddUnit(bindR(rG, r, f, state))
		}
		enc := bmc.EncodeInterp(red, w, opts.Mode, emitR)
		satOpts := opts.SAT
		satOpts.LogProof = true
		satOpts.ProofBudgetBytes = proofBudgetBytes
		s := sat.New(satOpts)
		st := sat.Unsat
		if s.AddFormula(enc.F) {
			st = s.Solve()
		}
		res.Conflicts += s.Stats.Conflicts
		res.note(s)

		switch st {
		case sat.Unknown:
			return res.conclude(provenDepth)

		case sat.Sat:
			if epochStart {
				// R = I: the model is a real execution; truncate it at
				// its first bad frame and double-check by replay.
				wit := truncateAtBad(enc, s)
				if wit == nil || wit.Validate(red) != nil {
					return res.conclude(provenDepth)
				}
				if wit.K > provenDepth+1 {
					wit = res.shortest(red, provenDepth, wit, opts)
				}
				res.Status = bmc.Reachable
				res.K = wit.K
				res.Witness = wit
				return res
			}
			// Spurious: the over-approximation reaches bad within the
			// window. Widen and restart the image sequence from I.
			if w >= opts.maxWindow() {
				return res.conclude(provenDepth)
			}
			w *= 2
			if w > opts.maxWindow() {
				w = opts.maxWindow()
			}
			r = initLit
			epochStart = true
			iters = 0

		case sat.Unsat:
			if epochStart {
				provenDepth = w
			}
			proof := s.Proof()
			shared := make(map[cnf.Var]aig.Lit, len(enc.StateVars[1]))
			for i, v := range enc.StateVars[1] {
				shared[v] = latchIn[i]
			}
			itp, err := extract(proof, int32(enc.NumA), shared, rG)
			if err != nil {
				return res.conclude(provenDepth)
			}

			switch contained(rG, itp, r, opts.SAT) {
			case sat.Unsat:
				// itp ⊆ R: R is closed under the image — candidate
				// invariant. Only a successful independent replay turns
				// that into Safe.
				cand := &Invariant{G: snapshot(rG, r, len(latchIn))}
				if cand.Check(red, opts.SAT) == nil {
					res.Status = bmc.Safe
					res.K = provenDepth
					res.Invariant = cand
					return res
				}
				// The prover lied somewhere. Fail toward a wider window
				// (a fresh image sequence), never toward SAFE.
				if w >= opts.maxWindow() {
					return res.conclude(provenDepth)
				}
				w *= 2
				if w > opts.maxWindow() {
					w = opts.maxWindow()
				}
				r = initLit
				epochStart = true
				iters = 0
			case sat.Sat:
				if iters >= maxIterations {
					return res.conclude(provenDepth)
				}
				r = rG.Or(r, itp)
				epochStart = false
			default:
				return res.conclude(provenDepth)
			}
		}
	}
}

// conclude downgrades an inconclusive exit to the strongest sound
// answer: the deepest bound the R=I iterations refuted, if any.
func (r Result) conclude(provenDepth int) Result {
	if provenDepth > 0 {
		r.Status = bmc.Unreachable
		r.K = provenDepth
	} else {
		r.Status = bmc.Unknown
	}
	return r
}

// shortest returns the shallowest counterexample of red, given wit, a
// validated one, and that no bad state lies within provenDepth steps.
// wit's first bad frame need not be the shallowest of any trace, so an
// exact incremental unroller walks the bounds in between. If the walk
// decides nothing, wit stands: a genuine counterexample, if not the
// shortest.
func (r *Result) shortest(red *model.System, provenDepth int, wit *bmc.Witness, opts Options) *bmc.Witness {
	u := bmc.NewIncrementalUnroller(red, bmc.IncrementalOptions{Mode: opts.Mode, SAT: opts.SAT})
	d := bmc.DeepenLinearFrom(provenDepth, wit.K-1, u.CheckBound)
	st := u.Stats()
	r.Conflicts += st.Conflicts
	r.PeakBytes = max(r.PeakBytes, st.PeakBytes)
	if d.Status == bmc.Reachable {
		return d.Witness
	}
	return wit
}

// note folds one solver's memory high-water into the result.
func (r *Result) note(s *sat.Solver) {
	if b := s.ClauseDBBytes() + s.ProofBytes(); b > r.PeakBytes {
		r.PeakBytes = b
	}
}

// newSolver loads f into a fresh solver, returning nil when the formula
// was refuted during loading.
func newSolver(opts sat.Options, f *cnf.Formula) *sat.Solver {
	s := sat.New(opts)
	if !s.AddFormula(f) {
		return nil
	}
	return s
}

// bindR encodes predicate root of rG — the R iterate, an interpolant or
// a certificate — over the given state variables. It is the one encoder
// of latch predicates; time steps go through bmc.Frame.
func bindR(rG *aig.Graph, root aig.Lit, f *cnf.Formula, state []cnf.Var) cnf.Lit {
	e := tseitin.New(rG, f, tseitin.Full)
	for i, il := range rG.Inputs() {
		e.BindLit(il, state[i])
	}
	return e.Lit(root)
}

// contained asks whether itp ⊆ r over the latch space: Unsat means
// contained (fixpoint), Sat means itp adds states.
func contained(rG *aig.Graph, itp, r aig.Lit, opts sat.Options) sat.Status {
	f := &cnf.Formula{}
	state := f.NewVars(rG.NumInputs())
	f.AddUnit(bindR(rG, itp, f, state))
	f.AddUnit(bindR(rG, r, f, state).Neg())
	s := newSolver(opts, f)
	if s == nil {
		return sat.Unsat
	}
	return s.Solve()
}

// truncateAtBad reads the model's trace and cuts it at the first frame
// whose bad literal is true, so the witness ends in a bad state.
func truncateAtBad(enc *bmc.InterpEncoding, s *sat.Solver) *bmc.Witness {
	wit := bmc.ReadWitness(enc.StateVars, enc.InputVars, enc.K, s)
	for t := 1; t <= enc.K; t++ {
		l := enc.BadLits[t-1]
		if (s.Value(l.Var()) == cnf.True) != l.IsNeg() {
			wit.K = t
			wit.States = wit.States[:t+1]
			wit.Inputs = wit.Inputs[:t+1]
			return wit
		}
	}
	return nil
}

// snapshot copies the cone of root out of the shared builder graph into
// a standalone certificate graph with exactly numInputs inputs (all of
// them, used or not — the input vector is the latch vector) and one
// output.
func snapshot(rG *aig.Graph, root aig.Lit, numInputs int) *aig.Graph {
	out := aig.New()
	mapped := make(map[uint32]aig.Lit, rG.NumNodes())
	mapped[0] = aig.False
	for i, il := range rG.Inputs() {
		if i >= numInputs {
			break
		}
		mapped[il.Node()] = out.AddInput(rG.NameOf(il.Node()))
	}
	var rebuild func(l aig.Lit) aig.Lit
	rebuild = func(l aig.Lit) aig.Lit {
		nl, ok := mapped[l.Node()]
		if !ok {
			a, b := rG.AndFanins(l.Node())
			nl = out.And(rebuild(a), rebuild(b))
			mapped[l.Node()] = nl
		}
		if l.IsNeg() {
			return nl.Not()
		}
		return nl
	}
	out.AddOutput("inv", rebuild(root))
	return out
}
