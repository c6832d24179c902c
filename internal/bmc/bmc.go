// Package bmc implements the three formulations of the bounded
// reachability problem studied in "Space-Efficient Bounded Model
// Checking" (Katz, Hanna, Dershowitz; DATE 2005):
//
//   - Formula (1): the classical SAT encoding that unrolls the
//     transition relation k times (EncodeUnroll / SolveUnroll).
//   - Formula (2): the linear QBF encoding with a single copy of the
//     transition relation under one universal state pair
//     (EncodeLinear / SolveLinear).
//   - Formula (3): the iterative-squaring QBF encoding whose quantifier
//     alternation depth grows with log k (EncodeSquaring /
//     SolveSquaring).
//
// The formulations differ only in how they instantiate one transition
// relation, and every one of them — like jSAT, the k-induction step
// case and the invariant check outside this package — encodes a time
// step through Frame: NewFrame binds a step's state and input
// variables, Step emits one TR copy, Bad the bad cone, and EmitInit
// the reset units.
//
// All encoders answer "is a bad state reachable in exactly k steps?".
// The formulas that hold a single transition-relation copy get the ≤k
// variant by adding a self-loop to every state (model.AddSelfLoop),
// exactly as the paper suggests. The incremental unroller, which holds
// every frame, asks for "bad at some frame ≤ k" instead (Biere et al.'s
// bounded eventually-bad) and keeps a deterministic model
// deterministic; its ≤k witnesses are padded with self-loop steps, so
// every ≤k answer names the same self-looped system.
//
// The engines encode Prepare's output, not the caller's model: the cone
// of influence of the bad predicate, self-looped under ≤k. Their
// results name that system and their witnesses replay on it; Lift
// carries both back to the caller's model, which is what the sebmc
// facade returns.
package bmc

import (
	"fmt"

	"repro/internal/model"
)

// Status is the outcome of a bounded reachability check.
type Status uint8

// Check outcomes.
const (
	Unknown     Status = iota // resource budget exhausted
	Reachable                 // a bad state is reachable at the bound
	Unreachable               // no bad state is reachable at the bound
	// Safe is the terminal verdict: no bad state is reachable at ANY
	// bound. Only the unbounded engines (interpolation, k-induction)
	// produce it; bound-relative engines stop at Unreachable.
	Safe
)

// String returns "REACHABLE", "UNREACHABLE", "SAFE" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Reachable:
		return "REACHABLE"
	case Unreachable:
		return "UNREACHABLE"
	case Safe:
		return "SAFE"
	}
	return "UNKNOWN"
}

// Semantics selects between exactly-k and at-most-k reachability.
type Semantics uint8

// Reachability semantics.
const (
	// Exact asks for paths of exactly k transitions.
	Exact Semantics = iota
	// AtMost asks for paths of at most k transitions, realized by the
	// paper's self-loop transformation, or by the incremental
	// unroller's "bad at some frame ≤ k".
	AtMost
)

// String returns "exact" or "atmost".
func (s Semantics) String() string {
	if s == AtMost {
		return "atmost"
	}
	return "exact"
}

// FormulaStats describe the size of an encoded instance — the quantities
// compared by the formula-growth experiment (E2).
type FormulaStats struct {
	Vars         int
	Clauses      int
	Literals     int
	Bytes        int
	Universals   int // 0 for pure SAT
	Alternations int // 0 for pure SAT
}

// Result is the outcome of one bounded check.
type Result struct {
	Status  Status
	K       int
	Witness *Witness // populated by witness-producing engines on Reachable
	// System is the transition system the witness validates against.
	// From this package's engines and jsat it is the system they
	// encoded, Prepare's output: the cone of influence, self-looped
	// under AtMost. The sebmc facade lifts both (Lift), so there it is
	// the caller's model itself, self-looped under AtMost.
	System  *model.System
	Formula FormulaStats
	// Effort counters (whichever the engine fills).
	Conflicts int64 // CDCL conflicts
	Nodes     int64 // QBF search nodes
	PeakBytes int   // solver clause-database high water, when tracked
	// DecidedBy names the engine that produced the result. The sebmc
	// facade fills it on every check; under the portfolio engine it is
	// the race winner.
	DecidedBy string
	// Err reports an internal failure (a recovered solver panic, a
	// poisoned session) rather than a resource-budget Unknown. Status is
	// always Unknown when Err is set: an erroring engine decides
	// nothing.
	Err error
}

func (r Result) String() string {
	return fmt.Sprintf("%v at k=%d (vars=%d clauses=%d)", r.Status, r.K, r.Formula.Vars, r.Formula.Clauses)
}
