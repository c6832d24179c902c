package bench

import (
	"time"

	"repro/internal/bmc"
	"repro/internal/cancel"
	"repro/internal/jsat"
	"repro/internal/qbf"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// EngineKind identifies one of the compared decision procedures.
type EngineKind uint8

// The engines of the paper's evaluation.
const (
	// EngineSAT solves the unrolled formula (1) with the CDCL solver —
	// the classical-BMC baseline column.
	EngineSAT EngineKind = iota
	// EngineJSAT is the paper's special-purpose procedure on formula (2).
	EngineJSAT
	// EngineQBFLinear is a general-purpose QBF solver on formula (2).
	EngineQBFLinear
	// EngineQBFSquaring is a general-purpose QBF solver on formula (3)
	// (power-of-two bounds only).
	EngineQBFSquaring
	// EngineSATIncr is the persistent-solver incremental engine on
	// formula (1): one solver per deepening run, one new frame per bound.
	EngineSATIncr
)

// String names the engine as it appears in result tables.
func (e EngineKind) String() string {
	switch e {
	case EngineSAT:
		return "sat-unroll"
	case EngineJSAT:
		return "jsat"
	case EngineQBFLinear:
		return "qbf-linear"
	case EngineQBFSquaring:
		return "qbf-squaring"
	case EngineSATIncr:
		return "sat-incr"
	}
	return "unknown"
}

// Config bounds each per-instance solver run. The paper used 300 s and
// 1 GB per instance; the defaults here scale that down for laptop runs
// while keeping the comparison shape. Zero fields disable a limit.
type Config struct {
	// TimeLimit applies per instance, to every engine.
	TimeLimit time.Duration
	// SATConflicts bounds CDCL conflicts per instance (EngineSAT).
	SATConflicts int64
	// JSATQueries bounds incremental SAT calls per instance (EngineJSAT).
	JSATQueries int64
	// JSATConflictsPerQuery bounds each individual jSAT query.
	JSATConflictsPerQuery int64
	// QBFNodes bounds QDPLL search nodes per instance.
	QBFNodes int64
	// Semantics for all engines (the suite uses Exact, as formula (2)).
	Semantics bmc.Semantics
	// Mode is the CNF transformation.
	Mode tseitin.Mode
	// Jobs, when > 1, runs suite sweeps (RunTable1) on that many
	// workers; results stay in deterministic instance order. 0 or 1 is
	// sequential — the right setting whenever per-engine wall-clock is
	// being measured.
	Jobs int
	// Cancel, when non-nil, aborts in-flight solver runs cooperatively;
	// it is threaded into every engine Run launches.
	Cancel *cancel.Flag
}

// DefaultConfig is the scaled-down stand-in for the paper's
// 300 s / 1 GB per-instance budget.
func DefaultConfig() Config {
	return Config{
		TimeLimit:             time.Second,
		SATConflicts:          400_000,
		JSATQueries:           30_000,
		JSATConflictsPerQuery: 50_000,
		QBFNodes:              500_000,
	}
}

// InstanceResult is the outcome of one engine on one instance.
type InstanceResult struct {
	Instance Instance
	Engine   EngineKind
	Status   bmc.Status
	Elapsed  time.Duration
	// Effort/size diagnostics.
	Conflicts int64
	Nodes     int64
	Vars      int
	Clauses   int
	PeakBytes int
}

// Solved reports whether the engine decided the instance within budget.
func (r InstanceResult) Solved() bool { return r.Status != bmc.Unknown }

// deadline converts the config time limit into an absolute deadline.
func (c Config) deadline() time.Time {
	if c.TimeLimit <= 0 {
		return time.Time{}
	}
	return time.Now().Add(c.TimeLimit)
}

// Run solves one instance with one engine under the config budgets.
func Run(inst Instance, engine EngineKind, cfg Config) InstanceResult {
	start := time.Now()
	out := InstanceResult{Instance: inst, Engine: engine}
	switch engine {
	case EngineSAT:
		r := bmc.SolveUnroll(inst.Sys, inst.K, bmc.UnrollOptions{
			Semantics: cfg.Semantics,
			Mode:      cfg.Mode,
			SAT: sat.Options{
				ConflictBudget: cfg.SATConflicts,
				Deadline:       cfg.deadline(),
				Cancel:         cfg.Cancel,
			},
		})
		out.Status = r.Status
		out.Conflicts = r.Conflicts
		out.Vars, out.Clauses, out.PeakBytes = r.Formula.Vars, r.Formula.Clauses, r.PeakBytes
	case EngineSATIncr:
		r := bmc.SolveIncremental(inst.Sys, inst.K, bmc.IncrementalOptions{
			Semantics:    cfg.Semantics,
			Mode:         cfg.Mode,
			SAT:          sat.Options{ConflictBudget: cfg.SATConflicts, Cancel: cfg.Cancel},
			QueryTimeout: cfg.TimeLimit,
		})
		out.Status = r.Status
		out.Conflicts = r.Conflicts
		out.Vars, out.Clauses, out.PeakBytes = r.Formula.Vars, r.Formula.Clauses, r.PeakBytes
	case EngineJSAT:
		d := cfg.deadline()
		s := jsat.New(inst.Sys, jsat.Options{
			Semantics:   cfg.Semantics,
			Mode:        cfg.Mode,
			QueryBudget: cfg.JSATQueries,
			Deadline:    d,
			Cancel:      cfg.Cancel,
			SAT: sat.Options{
				ConflictBudget: cfg.JSATConflictsPerQuery,
				Deadline:       d,
			},
		})
		r := s.Check(inst.K)
		out.Status = r.Status
		out.Conflicts = r.Conflicts
		out.Vars, out.Clauses, out.PeakBytes = r.Formula.Vars, r.Formula.Clauses, r.PeakBytes
	case EngineQBFLinear:
		r := bmc.SolveLinear(inst.Sys, inst.K, bmc.LinearOptions{
			Semantics: cfg.Semantics,
			Mode:      cfg.Mode,
			QBF: qbf.Options{
				NodeBudget: cfg.QBFNodes,
				Deadline:   cfg.deadline(),
				Cancel:     cfg.Cancel,
			},
		})
		out.Status = r.Status
		out.Nodes = r.Nodes
		out.Vars, out.Clauses = r.Formula.Vars, r.Formula.Clauses
	case EngineQBFSquaring:
		r, err := bmc.SolveSquaring(inst.Sys, inst.K, bmc.SquaringOptions{
			Semantics: cfg.Semantics,
			Mode:      cfg.Mode,
			QBF: qbf.Options{
				NodeBudget: cfg.QBFNodes,
				Deadline:   cfg.deadline(),
				Cancel:     cfg.Cancel,
			},
		})
		if err != nil {
			out.Status = bmc.Unknown
			break
		}
		out.Status = r.Status
		out.Nodes = r.Nodes
		out.Vars, out.Clauses = r.Formula.Vars, r.Formula.Clauses
	}
	out.Elapsed = time.Since(start)
	return out
}
