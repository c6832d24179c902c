package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	sebmc "repro"
	"repro/internal/bench"
	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/interp"
	"repro/internal/jsat"
	"repro/internal/model"
	"repro/internal/qbf"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// Count budgets, not timeouts, so every run does the same work. Every
// operation in the pool decides well inside them.
const (
	conflictBudget = 200000
	queryBudget    = 200000
	nodeBudget     = 200000
)

type opKind uint8

const (
	opCheck  opKind = iota // one bounded check
	opDeepen               // a deepening run to maxDeepen
	opQBF                  // a QBF check; QBF answers carry no witness
	opProve                // sebmc.Prove
)

var opKindNames = []string{"check", "deepen", "qbf", "prove"}

const maxDeepen = 64

// engineOp is one member of the engines pool.
type engineOp struct {
	label  string
	kind   opKind
	model  string // key into the pool's models
	engine sebmc.Engine
	k      int
	sem    sebmc.Semantics
	sched  sebmc.Schedule
	// depth is the model's shortest counterexample depth, -1 when safe:
	// from the explicit-state oracle or known by construction.
	depth int
}

// want is the status a bounded check must answer.
func (op *engineOp) want() sebmc.Status {
	if op.depth >= 0 && op.k >= op.depth {
		return sebmc.Reachable
	}
	return sebmc.Unreachable
}

// engineModel is a pool model: how to build it and its expected depth.
type engineModel struct {
	build func() *model.System
	depth int
}

// checkBounds are the Table-1 bounds each family is checked at, plus
// the family's own shortest depth. Bounds past that depth run under
// at-most semantics, where the answer follows from the depth alone.
var checkBounds = []int{3, 8, 14}

// engines is the library workload: one caller, a pool of operations
// shuffled afresh by the seeded generator for every round, so each
// round does the same work in a different order.
type engines struct {
	ops    []engineOp
	models map[string]engineModel
	texts  map[string]string // AAG text per model, built by setup
	// iterations is the interpolation loop's iteration count per prove
	// model.
	iterations map[string]int

	rng   *rand.Rand
	order []int
	next  int

	peak  int
	check checker
	ctr   engineCounters
}

// engineCounters are the layer counters the traced window attaches to
// its spans.
type engineCounters struct {
	encClauses                        int64
	satProps, satConflicts            int64
	satPeak                           int
	incrClauses                       int64
	deepenRuns, deepenInvocations     int64
	jsatQueries, jsatHits             int64
	jsatAssumGiven, jsatAssumReused   int64
	jsatPeak                          int
	qbfNodes                          int64
	proves, inductionWins, interpIter int64
}

// safeByConstruction are Table-1 families whose safety the circuit
// documents (an inductive invariant guards the property) and whose
// explicit-state check would dominate the run: 2^10-wide successor
// fan-out over 11 and 20 latches.
var safeByConstruction = map[string]bool{"parityguard": true, "arbiter": true}

func newEngines(seed int64) (*engines, error) {
	e := &engines{models: map[string]engineModel{}, rng: rand.New(rand.NewSource(seed))}
	addModel := func(name string, build func() *model.System, depth int) {
		e.models[name] = engineModel{build, depth}
	}
	oracle := func(name string, build func() *model.System) int {
		if safeByConstruction[name] {
			return -1
		}
		return sebmc.ShortestCounterexample(build())
	}

	// Bounded checks on the Table-1 families that decide within budget.
	// factor and prime time out on every engine, so they would time the
	// budget, not the program. jSAT skips the two 2^10-fan-out families,
	// where it exhausts the budget: the paper's own result.
	for _, f := range bench.Families() {
		if f.Name == "factor" || f.Name == "prime" {
			continue
		}
		depth := oracle(f.Name, f.Build)
		addModel(f.Name, f.Build, depth)
		bounds := checkBounds
		if depth >= 0 {
			bounds = append(append([]int(nil), checkBounds...), depth)
		}
		for _, eng := range []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineSATIncr, sebmc.EngineJSAT} {
			if eng == sebmc.EngineJSAT && safeByConstruction[f.Name] {
				continue
			}
			for _, k := range bounds {
				sem := sebmc.Exact
				if depth >= 0 && k > depth {
					sem = sebmc.AtMost
				}
				e.ops = append(e.ops, engineOp{
					label: fmt.Sprintf("check/%s/%s/k%d", f.Name, eng, k),
					kind:  opCheck, model: f.Name, engine: eng, k: k, sem: sem, depth: depth,
				})
			}
		}
	}

	// Factorizer UNSAT proofs: prime targets have no factorization, so
	// every bound is unreachable by construction. Real CDCL search.
	for _, f := range []struct {
		w      int
		target uint64
	}{{9, 65521}, {9, 131071}, {10, 249989}, {10, 131071}} {
		name := fmt.Sprintf("factor%d-%d", f.w, f.target)
		w, t := f.w, f.target
		addModel(name, func() *model.System { return circuits.Factorizer(w, t) }, -1)
		for _, eng := range []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineSATIncr} {
			e.ops = append(e.ops, engineOp{
				label: fmt.Sprintf("check/%s/%s/k1", name, eng),
				kind:  opCheck, model: name, engine: eng, k: 1, depth: -1,
			})
		}
	}

	// Deepening runs. DeepLFSR and DeepCounter first reach their bad
	// state at exactly the given depth, by construction.
	addModel("deeplfsr64", func() *model.System { return circuits.DeepLFSR(12, 0x1053, maxDeepen) }, maxDeepen)
	addModel("deepcounter64", func() *model.System { return circuits.DeepCounter(maxDeepen) }, maxDeepen)
	for _, eng := range []sebmc.Engine{sebmc.EngineSATIncr, sebmc.EngineJSAT} {
		e.ops = append(e.ops, engineOp{label: "deepen/deeplfsr64/" + eng.String() + "/linear",
			kind: opDeepen, model: "deeplfsr64", engine: eng, depth: maxDeepen})
	}
	e.ops = append(e.ops, engineOp{label: "deepen/deepcounter64/sat-incr/geometric",
		kind: opDeepen, model: "deepcounter64", engine: sebmc.EngineSATIncr, sched: sebmc.ScheduleGeometric, depth: maxDeepen})

	// QBF engines on tiny models they decide at k ≤ 4. Squaring checks
	// powers of two only: other bounds round up under at-most-k.
	for _, q := range []struct {
		name string
		n    int
		t    uint64
		j    bool
	}{{"counter2-t3", 2, 3, false}, {"counter3-t5", 3, 5, false}, {"johnson3-t5", 3, 5, true}} {
		n, t, j := q.n, q.t, q.j
		build := func() *model.System {
			if j {
				return circuits.Johnson(n, t)
			}
			return circuits.Counter(n, t)
		}
		depth := sebmc.ShortestCounterexample(build())
		addModel(q.name, build, depth)
		for _, eng := range []sebmc.Engine{sebmc.EngineQBFLinear, sebmc.EngineQBFSquaring} {
			for _, k := range []int{1, 2, 3, 4} {
				if eng == sebmc.EngineQBFSquaring && k == 3 {
					continue
				}
				sem := sebmc.Exact
				if depth >= 0 && k > depth {
					sem = sebmc.AtMost
				}
				e.ops = append(e.ops, engineOp{
					label: fmt.Sprintf("qbf/%s/%s/k%d", q.name, eng, k),
					kind:  opQBF, model: q.name, engine: eng, k: k, sem: sem, depth: depth,
				})
			}
		}
	}

	// Prove races interpolation against k-induction. The interpolation
	// loop's iteration count is read here, on the model as the operation
	// loads it, by running that arm alone.
	e.iterations = map[string]int{}
	for _, name := range []string{"parityguard", "arbiter", "traffic", "handshake", "counter", "fifo"} {
		e.ops = append(e.ops, engineOp{label: "prove/" + name, kind: opProve, model: name, depth: e.models[name].depth})
		var b strings.Builder
		if err := sebmc.WriteAIGER(e.models[name].build(), &b); err != nil {
			return nil, err
		}
		sys, err := sebmc.LoadAIGER(strings.NewReader(b.String()), 0)
		if err != nil {
			return nil, err
		}
		e.iterations[name] = interp.Solve(sys, interp.Options{SAT: sat.Options{ConflictBudget: conflictBudget}}).Iterations
	}
	return e, nil
}

func (e *engines) callers() int       { return 1 }
func (e *engines) checker() *checker  { return &e.check }
func (e *engines) probe() probe       { return nil }
func (e *engines) peakBytes() float64 { return float64(e.peak) }
func (e *engines) teardown()          {}
func (e *engines) gate(probe)         {}
func (e *engines) roundDone(int) bool { return e.next == len(e.order) }
func (e *engines) slices() (int, int) { return 1, 1 }
func (e *engines) options() sebmc.Options {
	return sebmc.Options{ConflictBudget: conflictBudget, QueryBudget: queryBudget, NodeBudget: nodeBudget}
}

// setup builds every model and its AAG text, then warms up with one
// untimed pass over the pool (checked like any other).
func (e *engines) setup() error {
	e.texts = map[string]string{}
	for name, m := range e.models {
		var b strings.Builder
		if err := sebmc.WriteAIGER(m.build(), &b); err != nil {
			return fmt.Errorf("model %s: %w", name, err)
		}
		e.texts[name] = b.String()
	}
	for i := range e.ops {
		e.run(&e.ops[i], nil)
	}
	e.order, e.next = nil, 0
	return nil
}

// step runs the next operation of the seeded shuffle; each round is one
// pass over the whole pool.
func (e *engines) step(_ int, tr *tracer) sample {
	if e.next == len(e.order) {
		e.order = e.rng.Perm(len(e.ops))
		e.next = 0
	}
	op := &e.ops[e.order[e.next]]
	e.next++
	t0 := time.Now()
	decided := e.run(op, tr)
	s := sample{lat: time.Since(t0), verdicts: 1, path: opKindNames[op.kind], server: -1}
	if decided {
		s.decided = 1
	}
	return s
}

// run executes one operation the way a library user would: load the
// model from AAG text, hash it, run the engine, replay the witness or
// certificate. Untraced it calls the facade; traced it calls the
// public entry points the facade is made of, with a span around each.
func (e *engines) run(op *engineOp, tr *tracer) (decided bool) {
	root := tr.root()
	defer func() {
		if root >= 0 {
			tr.end(root)
		}
	}()
	sp := tr.begin(layerLoad, root)
	sys, err := sebmc.LoadAIGER(strings.NewReader(e.texts[op.model]), 0)
	tr.end(sp)
	if err != nil {
		e.check.failf("%s: load: %v", op.label, err)
		return false
	}
	sp = tr.begin(layerHash, root)
	_ = sebmc.ModelHash(sys)
	tr.end(sp)
	if tr != nil {
		sp = tr.begin(layerReduce, root)
		_ = sys.Reduce()
		tr.end(sp)
	}

	opts := e.options()
	opts.Semantics = op.sem
	opts.Schedule = op.sched
	switch op.kind {
	case opCheck, opQBF:
		var r sebmc.Result
		if tr == nil {
			r = sebmc.Check(sys, op.k, op.engine, opts)
		} else {
			r = e.checkTraced(sys, op, opts, tr, root)
		}
		e.notePeak(r.PeakBytes)
		if r.Status == sebmc.Unknown {
			return false
		}
		if r.Status != op.want() {
			e.check.failf("%s: answered %s, want %s", op.label, r.Status, op.want())
			return true
		}
		if r.Status == sebmc.Reachable && op.kind == opCheck {
			e.validate(op, tr, root, func() error {
				if r.Witness == nil {
					return fmt.Errorf("no witness")
				}
				return r.Witness.Validate(r.System)
			})
		}
		return true
	case opDeepen:
		var d sebmc.DeepenResult
		if tr == nil {
			d = sebmc.Deepen(sys, maxDeepen, op.engine, opts)
		} else {
			d = e.deepenTraced(sys, op, opts, tr, root)
		}
		if d.Status == sebmc.Unknown {
			return false
		}
		if d.Status != sebmc.Reachable || d.FoundAt != op.depth {
			e.check.failf("%s: answered %s at %d, want REACHABLE at exactly %d", op.label, d.Status, d.FoundAt, op.depth)
			return true
		}
		e.validate(op, tr, root, func() error {
			if d.Witness == nil {
				return fmt.Errorf("no witness")
			}
			return d.Witness.Validate(d.System)
		})
		return true
	default: // opProve
		sp := tr.begin(layerProve, root)
		v := sebmc.Prove(sys, 0, opts)
		tr.end(sp)
		e.notePeak(v.PeakBytes)
		if tr != nil {
			e.ctr.proves++
			if v.DecidedBy == "induction" {
				e.ctr.inductionWins++
			}
			e.ctr.interpIter += int64(e.iterations[op.model])
		}
		switch {
		case v.Status == sebmc.Unknown || v.Status == sebmc.Unreachable:
			return false
		case op.depth < 0 && v.Status != sebmc.Safe:
			e.check.failf("%s: answered %s, want SAFE", op.label, v.Status)
			return true
		case op.depth >= 0 && (v.Status != sebmc.Reachable || v.K < op.depth):
			e.check.failf("%s: answered %s at %d, want REACHABLE at depth ≥ %d", op.label, v.Status, v.K, op.depth)
			return true
		}
		// A k-induction SAFE carries no certificate; Validate accepts nil.
		e.validate(op, tr, root, func() error { return v.Certificate.Validate(v.System) })
		return true
	}
}

func (e *engines) validate(op *engineOp, tr *tracer, root int32, f func() error) {
	sp := tr.begin(layerValidate, root)
	err := f()
	tr.end(sp)
	if err != nil {
		e.check.failf("%s: replay failed: %v", op.label, err)
	}
}

func (e *engines) notePeak(b int) {
	if b > e.peak {
		e.peak = b
	}
}

// checkTraced answers a bounded check through the engine's own public
// entry point, recording its span and Stats counters. Monolithic SAT is
// split into the two calls bmc.SolveUnroll is made of: encoding, then
// loading a sat.Solver and solving.
func (e *engines) checkTraced(sys *sebmc.System, op *engineOp, opts sebmc.Options, tr *tracer, root int32) sebmc.Result {
	satOpts := sat.Options{ConflictBudget: opts.ConflictBudget}
	switch op.engine {
	case sebmc.EngineSAT:
		sp := tr.begin(layerEncode, root)
		prepared := bmc.Prepare(sys, op.sem)
		enc := bmc.EncodeUnroll(prepared, op.k, tseitin.Full)
		tr.end(sp)
		e.ctr.encClauses += int64(enc.F.NumClauses())
		sp = tr.begin(layerSATLoad, root)
		s := sat.New(satOpts)
		for s.NumVars() < enc.F.NumVars() {
			s.NewVar()
		}
		for _, c := range enc.F.Clauses {
			if !s.AddClause(c...) {
				break
			}
		}
		tr.end(sp)
		sp = tr.begin(layerSATSolve, root)
		st := s.Solve()
		tr.end(sp)
		e.ctr.satProps += s.Stats.Propagations
		e.ctr.satConflicts += s.Stats.Conflicts
		r := sebmc.Result{K: op.k, System: prepared, Conflicts: s.Stats.Conflicts, PeakBytes: s.ClauseDBBytes()}
		e.ctr.satPeak = max(e.ctr.satPeak, r.PeakBytes)
		switch st {
		case sat.Sat:
			r.Status = sebmc.Reachable
			r.Witness = bmc.ReadWitness(enc.StateVars, enc.InputVars, op.k, s)
		case sat.Unsat:
			r.Status = sebmc.Unreachable
		}
		return r
	case sebmc.EngineSATIncr:
		sp := tr.begin(layerIncr, root)
		u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{Semantics: op.sem, Mode: tseitin.Full, SAT: satOpts})
		r := u.CheckBound(op.k)
		tr.end(sp)
		st := u.Stats()
		e.ctr.incrClauses += int64(st.ClausesAdded)
		e.ctr.satConflicts += st.Conflicts
		e.ctr.satPeak = max(e.ctr.satPeak, st.PeakBytes)
		return r
	case sebmc.EngineJSAT:
		return e.jsatCheck(sys, op.sem, op.k, opts, tr, root)
	case sebmc.EngineQBFLinear:
		sp := tr.begin(layerQBF, root)
		r := bmc.SolveLinear(sys, op.k, bmc.LinearOptions{Semantics: op.sem, Mode: tseitin.Full, QBF: qbf.Options{NodeBudget: opts.NodeBudget}})
		tr.end(sp)
		e.ctr.qbfNodes += r.Nodes
		return r
	default: // EngineQBFSquaring
		sp := tr.begin(layerQBF, root)
		r, err := bmc.SolveSquaring(sys, op.k, bmc.SquaringOptions{Semantics: op.sem, Mode: tseitin.Full, QBF: qbf.Options{NodeBudget: opts.NodeBudget}})
		tr.end(sp)
		if err != nil {
			return sebmc.Result{Status: sebmc.Unknown, K: op.k}
		}
		e.ctr.qbfNodes += r.Nodes
		return r
	}
}

// jsatCheck runs one jSAT query on a fresh solver, as the facade does.
func (e *engines) jsatCheck(sys *sebmc.System, sem sebmc.Semantics, k int, opts sebmc.Options, tr *tracer, root int32) sebmc.Result {
	sp := tr.begin(layerJSAT, root)
	s := jsat.New(sys, jsat.Options{Semantics: sem, Mode: tseitin.Full, QueryBudget: opts.QueryBudget,
		SAT: sat.Options{ConflictBudget: opts.ConflictBudget}})
	r := s.Check(k)
	tr.end(sp)
	e.ctr.jsatQueries += s.Stats.Queries
	e.ctr.jsatHits += s.Stats.CacheHits
	e.ctr.jsatAssumGiven += s.Stats.AssumptionsGiven
	e.ctr.jsatAssumReused += s.Stats.AssumptionsReused
	e.ctr.jsatPeak = max(e.ctr.jsatPeak, s.Stats.PeakBytes)
	return r
}

// deepenTraced runs a deepening operation through the same library
// calls sebmc.Deepen makes, timing the engine entry points.
func (e *engines) deepenTraced(sys *sebmc.System, op *engineOp, opts sebmc.Options, tr *tracer, root int32) sebmc.DeepenResult {
	var d sebmc.DeepenResult
	satOpts := sat.Options{ConflictBudget: opts.ConflictBudget}
	switch {
	case op.engine == sebmc.EngineSATIncr:
		sem := op.sem
		if op.sched == sebmc.ScheduleGeometric {
			sem = sebmc.AtMost
		}
		sp := tr.begin(layerIncr, root)
		u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{Semantics: sem, Mode: tseitin.Full, SAT: satOpts})
		if op.sched == sebmc.ScheduleGeometric {
			d = u.DeepenGeometric(maxDeepen, opts.GeometricRatio)
		} else {
			d = u.Deepen(maxDeepen)
		}
		tr.end(sp)
		st := u.Stats()
		e.ctr.incrClauses += int64(st.ClausesAdded)
		e.ctr.satConflicts += st.Conflicts
		e.ctr.satPeak = max(e.ctr.satPeak, st.PeakBytes)
	default: // jSAT, linear: a fresh solver per bound, as the facade does
		d = bmc.DeepenLinear(sys, maxDeepen, func(m *model.System, k int) bmc.Result {
			return e.jsatCheck(m, op.sem, k, opts, tr, root)
		})
	}
	e.ctr.deepenRuns++
	e.ctr.deepenInvocations += int64(d.Iterations)
	return d
}

// layers reports the engine-layer counters of a traced window. Totals
// are per round: a window holds whole rounds, each the same work, and
// a faster program completes more of them.
func (e *engines) layers(m metrics, w *window, lt *layerTimes, _ probe) {
	c := e.ctr
	rounds := float64(len(w.samples)) / float64(len(e.ops))
	if rounds == 0 {
		return
	}
	perRound := func(name string, total float64) { m.set(name, total/rounds) }
	encMS := lt.totalMS(layerEncode)
	perRound("bmc.encode_ms", encMS)
	perRound("bmc.clauses", float64(c.encClauses))
	if encMS > 0 {
		m.set("bmc.clauses_per_s", float64(c.encClauses)/(encMS/1000))
	}
	perRound("bmc.incr.clauses_added", float64(c.incrClauses))
	if c.deepenRuns > 0 {
		m.set("bmc.deepen.invocations", float64(c.deepenInvocations)/float64(c.deepenRuns))
	}
	solveMS := lt.totalMS(layerSATSolve)
	perRound("sat.solve_ms", solveMS)
	if solveMS > 0 {
		m.set("sat.props_per_s", float64(c.satProps)/(solveMS/1000))
	}
	perRound("sat.conflicts", float64(c.satConflicts))
	m.set("sat.peak_bytes", float64(c.satPeak))
	jsMS := lt.totalMS(layerJSAT)
	perRound("jsat.check_ms", jsMS)
	perRound("jsat.queries", float64(c.jsatQueries))
	if jsMS > 0 {
		m.set("jsat.queries_per_s", float64(c.jsatQueries)/(jsMS/1000))
	}
	if probes := c.jsatQueries + c.jsatHits; probes > 0 {
		m.set("jsat.cache_hit_rate", float64(c.jsatHits)/float64(probes))
	}
	if c.jsatAssumGiven > 0 {
		m.set("jsat.trail_reuse_rate", float64(c.jsatAssumReused)/float64(c.jsatAssumGiven))
	}
	m.set("jsat.peak_bytes", float64(c.jsatPeak))
	qMS := lt.totalMS(layerQBF)
	perRound("qbf.solve_ms", qMS)
	perRound("qbf.nodes", float64(c.qbfNodes))
	if qMS > 0 {
		m.set("qbf.nodes_per_s", float64(c.qbfNodes)/(qMS/1000))
	}
	m.set("interp.prove_ms.p50", lt.p50(layerProve, time.Millisecond))
	if c.proves > 0 {
		m.set("interp.iterations", float64(c.interpIter)/float64(c.proves))
		m.set("induction.win_frac", float64(c.inductionWins)/float64(c.proves))
	}
}
