// Package interp implements McMillan-style interpolation-based unbounded
// model checking over the shared frame core, bmc.Frame (the partitioned
// unrolling comes from bmc.EncodeInterp, and the certificate check's
// obligations build their time steps from frames too): a fixpoint
// loop that iterates the post-image operator obtained as the interpolant
// of a refuted partitioned unrolling, terminating either with a genuine
// counterexample or with an inductive invariant — a terminal SAFE
// verdict valid at every bound.
//
// The prover is untrusted by construction: a SAFE answer is only emitted
// after the invariant passes Invariant.Check, three independent plain
// SAT calls (init ⊆ inv, inv inductive, inv ∩ bad = ∅) that replay the
// certificate by substitution alone. A bug in proof logging or
// interpolant extraction therefore degrades to UNKNOWN, never to an
// unsound SAFE.
package interp

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/aig"
	"repro/internal/bmc"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// Invariant is an inductive-invariant certificate: a combinational
// predicate over the latches of a transition system, closed under the
// transition relation, containing the initial states, and disjoint from
// the bad states. It is the SAFE counterpart of a counterexample
// Witness: independently checkable, serializable, and shipped through
// cache replication exactly like one.
type Invariant struct {
	// G is a combinational AIG (no latches) with one input per latch of
	// the certified system, in latch order, and exactly one output — the
	// invariant predicate.
	G *aig.Graph
}

// Root returns the predicate literal (the single output).
func (inv *Invariant) Root() aig.Lit { return inv.G.Output(0).L }

// validateShape checks the structural contract of a certificate graph.
func (inv *Invariant) validateShape() error {
	switch {
	case inv == nil || inv.G == nil:
		return errors.New("interp: nil invariant")
	case inv.G.NumLatches() != 0:
		return fmt.Errorf("interp: invariant graph is sequential (%d latches)", inv.G.NumLatches())
	case inv.G.NumOutputs() != 1:
		return fmt.Errorf("interp: invariant graph has %d outputs, want 1", inv.G.NumOutputs())
	}
	return nil
}

// Check replays the certificate against a transition system by
// substitution alone — no prover state, no trust in how the invariant
// was produced. The three obligations, each one plain SAT call:
//
//  1. init ⊆ inv:   I(Z) ∧ ¬inv(Z)            is UNSAT
//  2. inductive:    inv(Z) ∧ TR(Z,Z') ∧ ¬inv(Z') is UNSAT
//  3. no bad:       inv(Z) ∧ Bad(Z)            is UNSAT
//
// together imply Bad is unreachable at every bound. sys must be the
// plain (non-self-looped) system the certificate was issued for; an
// invariant inductive for TR is automatically inductive for the
// self-loop transform, so one certificate covers both semantics. A
// width mismatch (wrong model) and a resource-limited UNKNOWN both
// fail closed.
func (inv *Invariant) Check(sys *model.System, opts sat.Options) error {
	if err := inv.validateShape(); err != nil {
		return err
	}
	if got, want := inv.G.NumInputs(), sys.NumStateVars(); got != want {
		return fmt.Errorf("interp: invariant is over %d latches, system has %d", got, want)
	}

	for i, f := range inv.obligations(sys) {
		if err := expectUnsat(f, opts, obligationNames[i]); err != nil {
			return err
		}
	}
	return nil
}

// obligationNames name Check's obligations, in order, for its errors.
var obligationNames = [3]string{"init ⊆ inv", "inv inductive", "inv ∩ bad = ∅"}

// obligations builds Check's three formulas over sys, each of which
// must be UNSAT. The circuit cones come from bmc.Frame, the
// invariant's from bindR.
func (inv *Invariant) obligations(sys *model.System) [3]*cnf.Formula {
	n := sys.NumStateVars()
	bind := func(f *cnf.Formula, state []cnf.Var) cnf.Lit {
		return bindR(inv.G, inv.Root(), f, state)
	}

	// 1. I(Z) ∧ ¬inv(Z).
	initF := &cnf.Formula{}
	z := initF.NewVars(n)
	bmc.EmitInit(sys, initF, z)
	initF.AddUnit(bind(initF, z).Neg())

	// 2. inv(Z0) ∧ TR(Z0,Z1) ∧ ¬inv(Z1). Frame 1's inputs are
	// allocated, as in every unrolling, though nothing reads them.
	stepF := &cnf.Formula{}
	z0 := stepF.NewVars(n)
	fr := bmc.NewFrame(sys, stepF, tseitin.Full, z0, nil)
	z1 := stepF.NewVars(n)
	stepF.NewVars(sys.NumInputs())
	fr.Step(z1, cnf.NoLit)
	stepF.AddUnit(bind(stepF, z0))
	stepF.AddUnit(bind(stepF, z1).Neg())

	// 3. inv(Z) ∧ Bad(Z).
	badF := &cnf.Formula{}
	z = badF.NewVars(n)
	bad := bmc.NewFrame(sys, badF, tseitin.Full, z, nil).Bad()
	badF.AddUnit(bind(badF, z))
	badF.AddUnit(bad)
	return [3]*cnf.Formula{initF, stepF, badF}
}

// expectUnsat loads f into a fresh solver and demands a refutation.
func expectUnsat(f *cnf.Formula, opts sat.Options, obligation string) error {
	s := sat.New(opts)
	if !s.AddFormula(f) {
		return nil // refuted during loading
	}
	switch s.Solve() {
	case sat.Unsat:
		return nil
	case sat.Sat:
		return fmt.Errorf("interp: certificate obligation failed: %s", obligation)
	default:
		return fmt.Errorf("interp: certificate check inconclusive (budget) on: %s", obligation)
	}
}

// String serializes the certificate in ASCII AIGER (aag) format — the
// same offline-replayable text contract witnesses have.
func (inv *Invariant) String() string {
	var b strings.Builder
	if err := inv.G.WriteAAG(&b); err != nil {
		return ""
	}
	return b.String()
}

// ParseInvariant parses the serialization produced by String and
// validates the structural contract (combinational, single output).
func ParseInvariant(s string) (*Invariant, error) {
	g, err := aig.ParseAAG(strings.NewReader(s))
	if err != nil {
		return nil, fmt.Errorf("interp: bad certificate: %w", err)
	}
	inv := &Invariant{G: g}
	if err := inv.validateShape(); err != nil {
		return nil, err
	}
	return inv, nil
}
