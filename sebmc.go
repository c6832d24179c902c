// Package sebmc is the public face of the Space-Efficient Bounded Model
// Checking library, a from-scratch Go reproduction of Katz, Hanna and
// Dershowitz, "Space-Efficient Bounded Model Checking" (DATE 2005).
//
// The library answers bounded reachability questions — "can this
// sequential circuit reach a bad state in (exactly / at most) k steps?" —
// with five interchangeable engines plus a concurrent portfolio:
//
//   - EngineSAT: classical BMC; unrolls the transition relation k times
//     into one propositional formula (the paper's formula (1)) and hands
//     it to the built-in CDCL solver.
//   - EngineSATIncr: incremental BMC over the same formula (1), in the
//     assumption-based style MiniSat introduced and Biere et al.,
//     "Linear Encodings of Bounded LTL Model Checking", build on: one
//     persistent CDCL solver holds the unrolling for a whole deepening
//     run, each bound adds only frame k's transition clauses on top of
//     frames 0..k-1, the bad property at each frame is switched on by an
//     activation literal passed as an assumption, and learned clauses
//     survive across bounds. Same answers as EngineSAT; O(k) instead of
//     O(k²) total encoding work under Deepen.
//   - EngineJSAT: the paper's contribution; holds a single copy of the
//     transition relation and walks the state graph depth-first,
//     deciding one time frame at a time (formula (4) plus an implicit
//     sliding (U,V) window).
//   - EngineQBFLinear: the paper's formula (2); one transition-relation
//     copy under a universally quantified state pair, decided by the
//     built-in search-based QBF solver.
//   - EngineQBFSquaring: the paper's formula (3); iterative squaring,
//     with quantifier alternation depth growing as log k.
//   - EnginePortfolio: races sat, sat-incr and jsat concurrently on one
//     query, each on its own solver. The first decisive answer wins, the result is
//     tagged with the winning engine (Result.DecidedBy), and the losing
//     solvers are stopped through a cooperative cancellation flag they
//     poll alongside their deadlines. Because the competitors have
//     complementary space/time profiles, the portfolio is within
//     scheduling noise of the best single engine on every instance
//     without knowing which one that is up front.
//
// Batches of independent queries go through CheckMany / DeepenMany: a
// bounded work-stealing worker pool runs one Job per queue slot (each
// with its own engine and Options) and returns results in job order.
// Long-running checks are aborted early either by Options.Timeout or
// cooperatively via Options.Cancel, which may be shared — cancelling a
// parent flag stops every check derived from it.
//
// Long-lived clients keep a warm engine across requests with a Session
// (NewSession): one persistent sat-incr or jsat solver per model whose
// learned state and proven-unreachable prefix carry over, so deepening
// to a larger bound resumes instead of restarting. ModelHash provides
// the content address used to key verdict caches; the bmcd service
// (internal/service, cmd/bmcd) builds its job queue, verdict cache and
// session pool on exactly these two primitives.
//
// Models come from the MSL hardware description language (LoadMSL), from
// ASCII AIGER files (LoadAIGER), or are built programmatically against
// the internal circuit packages.
//
// Quick start:
//
//	sys, _ := sebmc.LoadMSL(src)
//	res := sebmc.Check(sys, 12, sebmc.EngineJSAT, sebmc.Options{})
//	if res.Status == sebmc.Reachable {
//	    fmt.Print(res.Witness)
//	}
package sebmc

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/aig"
	"repro/internal/bmc"
	"repro/internal/explicit"
	"repro/internal/interp"
	"repro/internal/jsat"
	"repro/internal/model"
	"repro/internal/msl"
	"repro/internal/qbf"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// System is a finite-state transition system with a bad-state predicate.
type System = model.System

// Result is the outcome of a bounded check; see Status and Witness.
type Result = bmc.Result

// Witness is a counterexample trace.
type Witness = bmc.Witness

// ParseWitness reads a Witness.String rendering back into a Witness,
// so a serialized trace can be replay-validated (Witness.Validate) on
// another process — the cluster's verdict replication depends on it.
func ParseWitness(s string) (*Witness, error) { return bmc.ParseWitness(s) }

// Status is the outcome classification of a check.
type Status = bmc.Status

// Check outcomes.
const (
	Unknown     = bmc.Unknown
	Reachable   = bmc.Reachable
	Unreachable = bmc.Unreachable
	// Safe is the terminal outcome: no bad state is reachable at ANY
	// bound, not just the one asked about. Only the unbounded engines
	// (EngineInterp, k-induction via Prove) produce it; it always
	// implies Unreachable at every k under both semantics.
	Safe = bmc.Safe
)

// Semantics selects exactly-k or at-most-k reachability.
type Semantics = bmc.Semantics

// Reachability semantics.
const (
	Exact  = bmc.Exact
	AtMost = bmc.AtMost
)

// AddSelfLoop returns the paper's self-loop transform of the system: a
// fresh primary input appended after the originals selects a stutter
// step, so reachability in exactly k steps of the result equals
// reachability in at most k steps of the original. Witnesses produced
// under AtMost semantics — and by the deepening schedules that force it
// internally — replay against this transform of the caller's model,
// not the plain system.
func AddSelfLoop(sys *System) *System { return model.AddSelfLoop(sys) }

// Engine selects the decision procedure.
type Engine uint8

// The single engines, plus the concurrent portfolio.
const (
	EngineSAT Engine = iota
	EngineJSAT
	EngineQBFLinear
	EngineQBFSquaring
	EngineSATIncr
	EnginePortfolio
	// EngineInterp is the unbounded interpolation engine: it ignores
	// the exact/at-most distinction (its answers are bound-independent
	// or carry their own depth) and can return the terminal Safe. Check
	// maps its result onto the requested bound; Prove uses it directly.
	EngineInterp
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineSAT:
		return "sat"
	case EngineJSAT:
		return "jsat"
	case EngineQBFLinear:
		return "qbf-linear"
	case EngineQBFSquaring:
		return "qbf-squaring"
	case EngineSATIncr:
		return "sat-incr"
	case EnginePortfolio:
		return "portfolio"
	case EngineInterp:
		return "interp"
	}
	return "unknown"
}

// ParseEngine converts a name ("sat", "sat-incr", "jsat", "qbf-linear",
// "qbf-squaring", "portfolio", "interp") to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "sat":
		return EngineSAT, nil
	case "sat-incr":
		return EngineSATIncr, nil
	case "jsat":
		return EngineJSAT, nil
	case "qbf-linear":
		return EngineQBFLinear, nil
	case "qbf-squaring":
		return EngineQBFSquaring, nil
	case "portfolio":
		return EnginePortfolio, nil
	case "interp":
		return EngineInterp, nil
	}
	return 0, fmt.Errorf("sebmc: unknown engine %q", s)
}

// Schedule selects the bound schedule an iterative-deepening run
// follows. Single bounded checks ignore it.
type Schedule uint8

// Deepening schedules.
const (
	// ScheduleLinear steps k → k+1: one solver invocation per bound,
	// O(maxBound) invocations total. The default.
	ScheduleLinear Schedule = iota
	// ScheduleGeometric grows the bound geometrically (k → 2k by
	// default, Options.GeometricRatio to change it) under at-most-k
	// semantics, then binary-searches the last growth interval, so
	// FoundAt is still the exact shortest counterexample depth in
	// O(log maxBound) invocations. Deepen forces at-most-k semantics
	// for it: skipping bounds is unsound under exact-k.
	ScheduleGeometric
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case ScheduleLinear:
		return "linear"
	case ScheduleGeometric:
		return "geometric"
	}
	return "unknown"
}

// ParseSchedule converts a name ("linear", "geometric"; "" defaults to
// linear) to a Schedule.
func ParseSchedule(s string) (Schedule, error) {
	switch s {
	case "", "linear":
		return ScheduleLinear, nil
	case "geometric":
		return ScheduleGeometric, nil
	}
	return 0, fmt.Errorf("sebmc: unknown schedule %q (want linear or geometric)", s)
}

// Options bound a check. The zero value runs unbounded with exact-k
// semantics and the full Tseitin transformation.
type Options struct {
	// Semantics selects exact-k (default) or at-most-k reachability.
	Semantics Semantics
	// Timeout aborts the check (Status Unknown) when exceeded.
	Timeout time.Duration
	// ConflictBudget bounds CDCL conflicts (EngineSAT and, per query,
	// EngineJSAT).
	ConflictBudget int64
	// QueryBudget bounds the total incremental SAT calls of EngineJSAT.
	QueryBudget int64
	// NodeBudget bounds QDPLL search nodes of the QBF engines.
	NodeBudget int64
	// PlaistedGreenbaum selects the polarity-aware CNF transformation
	// instead of full Tseitin.
	PlaistedGreenbaum bool
	// Cancel, when non-nil, aborts the check cooperatively: the flag is
	// polled by every solver loop on the same schedule as its deadline,
	// so a cancelled check returns Unknown within a few conflicts. The
	// portfolio engine derives per-competitor flags from it, and batch
	// jobs may share one parent flag to cancel a whole run.
	Cancel *CancelFlag
	// Schedule selects the deepening bound schedule (Deepen, Session
	// deepening, DeepenMany). ScheduleGeometric implies at-most-k
	// semantics. EngineQBFSquaring ignores it and always follows its
	// power-of-two squaring schedule.
	Schedule Schedule
	// GeometricRatio is ScheduleGeometric's bound-growth factor; values
	// ≤ 1 mean the default doubling (k → 2k).
	GeometricRatio float64
}

func (o Options) mode() tseitin.Mode {
	if o.PlaistedGreenbaum {
		return tseitin.PlaistedGreenbaum
	}
	return tseitin.Full
}

func (o Options) deadline() time.Time {
	if o.Timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(o.Timeout)
}

func (o Options) incremental() bmc.IncrementalOptions {
	// Timeout becomes a per-query deadline, re-armed at every bound —
	// the same per-check contract the other engines get from a fresh
	// solver per bound.
	return bmc.IncrementalOptions{
		Semantics:    o.Semantics,
		Mode:         o.mode(),
		SAT:          sat.Options{ConflictBudget: o.ConflictBudget, Cancel: o.Cancel},
		QueryTimeout: o.Timeout,
	}
}

// Check runs one bounded reachability query. The result is tagged with
// the engine that decided it (Result.DecidedBy) — under EnginePortfolio,
// the race winner. The engine encodes only the bad predicate's cone of
// influence, but Result.System is sys itself (self-looped under AtMost)
// and a witness replays on it.
func Check(sys *System, k int, engine Engine, opts Options) Result {
	if engine == EnginePortfolio {
		return checkPortfolio(sys, k, opts)
	}
	r := checkSingle(sys, k, engine, opts)
	r.System, r.Witness = bmc.Lift(sys, r.System, r.Witness)
	r.DecidedBy = engine.String()
	return r
}

func checkSingle(sys *System, k int, engine Engine, opts Options) Result {
	switch engine {
	case EngineSAT:
		return bmc.SolveUnroll(sys, k, bmc.UnrollOptions{
			Semantics: opts.Semantics,
			Mode:      opts.mode(),
			SAT:       sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: opts.deadline(), Cancel: opts.Cancel},
		})
	case EngineSATIncr:
		return bmc.SolveIncremental(sys, k, opts.incremental())
	case EngineJSAT:
		// One deadline for the whole query: computing it per solver
		// would hand the search and step solvers two slightly different
		// cutoffs for the same check.
		d := opts.deadline()
		s := jsat.New(sys, jsat.Options{
			Semantics:   opts.Semantics,
			Mode:        opts.mode(),
			QueryBudget: opts.QueryBudget,
			Deadline:    d,
			Cancel:      opts.Cancel,
			SAT:         sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: d},
		})
		return s.Check(k)
	case EngineQBFLinear:
		return bmc.SolveLinear(sys, k, bmc.LinearOptions{
			Semantics: opts.Semantics,
			Mode:      opts.mode(),
			QBF:       qbf.Options{NodeBudget: opts.NodeBudget, Deadline: opts.deadline(), Cancel: opts.Cancel},
		})
	case EngineQBFSquaring:
		// SolveSquaring answers non-power-of-two bounds itself by
		// rounding up to the next power of two under at-most-k
		// semantics (Result.K reports the bound actually checked), so
		// the only error left here is a negative bound.
		r, err := bmc.SolveSquaring(sys, k, bmc.SquaringOptions{
			Semantics: opts.Semantics,
			Mode:      opts.mode(),
			QBF:       qbf.Options{NodeBudget: opts.NodeBudget, Deadline: opts.deadline(), Cancel: opts.Cancel},
		})
		if err != nil {
			return Result{Status: bmc.Unknown, K: k}
		}
		return r
	case EngineInterp:
		return checkInterp(sys, k, opts)
	}
	return Result{Status: bmc.Unknown, K: k}
}

// checkInterp answers a bounded query with the unbounded interpolation
// engine, mapping its bound-independent verdicts onto the requested k.
// The engine works with at-most-k meaning throughout (a counterexample
// at depth d answers every bound ≥ d, a refutation of depths ≤ d every
// bound ≤ d); Options.Semantics is ignored — see the Engine doc.
func checkInterp(sys *System, k int, opts Options) Result {
	maxW := k
	if maxW < 64 {
		maxW = 64
	}
	ir := interp.Solve(sys, interp.Options{
		Mode:      opts.mode(),
		SAT:       sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: opts.deadline(), Cancel: opts.Cancel},
		MaxWindow: maxW,
	})
	res := Result{
		Status:    bmc.Unknown,
		K:         k,
		System:    ir.System,
		Conflicts: ir.Conflicts,
		PeakBytes: ir.PeakBytes,
	}
	switch ir.Status {
	case bmc.Safe:
		res.Status = bmc.Safe
	case bmc.Reachable:
		if ir.K <= k {
			res.Status = bmc.Reachable
			res.K = ir.K
			res.Witness = ir.Witness
		}
	case bmc.Unreachable:
		if ir.K >= k {
			res.Status = bmc.Unreachable
		}
	}
	return res
}

// DeepenResult reports an iterative-deepening run.
type DeepenResult = bmc.DeepenResult

// Deepen searches bounds 0..maxBound for the shortest counterexample
// using the given engine. Options.Schedule selects the bound schedule:
// linear (k → k+1, the default) or geometric (k → 2k under at-most-k
// semantics — forced for the run — with binary-search refinement of the
// last doubling interval, so FoundAt is still the exact shortest depth
// in O(log maxBound) solver invocations). With EngineQBFSquaring the
// schedule is always 0,1,2,4,8,… under at-most-k semantics (the paper's
// self-loop trick) and FoundAt is the first power-of-two bound covering
// the counterexample — the squaring encoding cannot answer the
// in-between bounds a refinement would probe. A non-power-of-two
// maxBound gets one extra probe at the next power of two up, so
// Unreachable always certifies the full 0..maxBound range; if the
// counterexample first appears in that rounded-up probe it cannot be
// localized relative to maxBound and the run reports Unknown (use
// another engine for an exact answer there). EngineSATIncr takes a
// fast path: one persistent solver serves every bound, so each step
// encodes only the newest time frame and keeps all learned clauses —
// under the geometric schedule the same solver also serves the jumps
// and the refinement probes. EnginePortfolio races whole deepening runs
// and keeps the first that completes. As with Check, the run encodes
// only the cone of influence, and DeepenResult.System and Witness name
// sys itself (self-looped under at-most-k).
func Deepen(sys *System, maxBound int, engine Engine, opts Options) DeepenResult {
	if engine == EnginePortfolio {
		return deepenPortfolio(sys, maxBound, opts)
	}
	d := deepenSingle(sys, maxBound, engine, opts)
	d.DecidedBy = engine.String()
	return d
}

func deepenSingle(sys *System, maxBound int, engine Engine, opts Options) DeepenResult {
	if engine == EngineQBFSquaring || opts.Schedule == ScheduleGeometric {
		opts.Semantics = AtMost
	}
	// The run answers on the engine's cone of influence; the result is
	// lifted back to sys once, at the end.
	check := func(m *System, k int) Result { return checkSingle(m, k, engine, opts) }
	var d DeepenResult
	switch {
	case engine == EngineQBFSquaring:
		d = bmc.DeepenSquaring(sys, maxBound, check)
	case opts.Schedule == ScheduleGeometric && engine == EngineSATIncr:
		d = bmc.DeepenGeometricIncremental(sys, maxBound, opts.GeometricRatio, opts.incremental())
	case opts.Schedule == ScheduleGeometric:
		d = bmc.DeepenGeometric(sys, maxBound, opts.GeometricRatio, check)
	case engine == EngineSATIncr:
		d = bmc.DeepenIncremental(sys, maxBound, opts.incremental())
	default:
		d = bmc.DeepenLinear(sys, maxBound, check)
	}
	d.System, d.Witness = bmc.Lift(sys, d.System, d.Witness)
	return d
}

// LoadMSL elaborates a Model Specification Language source text.
func LoadMSL(src string) (*System, error) { return msl.Load(src) }

// LoadMSLFile elaborates an MSL file.
func LoadMSLFile(path string) (*System, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return msl.Load(string(b))
}

// LoadAIGER reads an ASCII AIGER ("aag") circuit; output `badOutput`
// (typically 0) is taken as the bad-state predicate.
func LoadAIGER(r io.Reader, badOutput int) (*System, error) {
	g, err := aig.ParseAAG(r)
	if err != nil {
		return nil, err
	}
	if g.NumOutputs() <= badOutput {
		return nil, fmt.Errorf("sebmc: circuit has %d outputs, need output %d", g.NumOutputs(), badOutput)
	}
	return model.New("aiger", g, badOutput), nil
}

// LoadAIGERFile reads an .aag file.
func LoadAIGERFile(path string, badOutput int) (*System, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := LoadAIGER(f, badOutput)
	if err != nil {
		return nil, err
	}
	sys.Name = path
	return sys, nil
}

// WriteAIGER writes the system's circuit in ASCII AIGER format.
func WriteAIGER(sys *System, w io.Writer) error { return sys.Circ.WriteAAG(w) }

// ShortestCounterexample runs the explicit-state oracle (small systems
// only: ≤24 latches, ≤16 inputs) and returns the depth of the shortest
// counterexample, or -1 when the system is safe.
func ShortestCounterexample(sys *System) int {
	return explicit.New(sys).ShortestCounterexample()
}
