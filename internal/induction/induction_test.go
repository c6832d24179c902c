package induction_test

import (
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/induction"
	"repro/internal/msl"
	"repro/internal/tseitin"
)

func TestProveTrafficLight(t *testing.T) {
	sys := circuits.TrafficLight(2)
	r := induction.Prove(sys, 20, induction.Options{})
	if r.Status != induction.Proved {
		t.Fatalf("traffic light not proved: %+v", r)
	}
}

func TestProveArbiter(t *testing.T) {
	// Arbiter(2): the unreachable token=11 region admits only three
	// distinct bad-free states, so simple-path induction closes by k=3.
	// (Larger arbiters need an auxiliary one-hot invariant — the
	// incompleteness the paper's introduction attributes to induction.)
	sys := circuits.Arbiter(2)
	r := induction.Prove(sys, 10, induction.Options{})
	if r.Status != induction.Proved {
		t.Fatalf("arbiter not proved: %+v", r)
	}
}

func TestProveParityGuard(t *testing.T) {
	// The parity invariant is 1-inductive.
	sys := circuits.ParityGuard(6)
	r := induction.Prove(sys, 4, induction.Options{})
	if r.Status != induction.Proved {
		t.Fatalf("parity guard not proved: %+v", r)
	}
	if r.K > 1 {
		t.Fatalf("parity guard should be inductive at k<=1, closed at %d", r.K)
	}
}

func TestFalsifiedWithWitness(t *testing.T) {
	sys := circuits.Counter(4, 9)
	r := induction.Prove(sys, 20, induction.Options{})
	if r.Status != induction.Falsified {
		t.Fatalf("bug not found: %+v", r)
	}
	if r.K != 9 {
		t.Fatalf("counterexample closed at %d, want 9", r.K)
	}
	if r.Witness == nil {
		t.Fatalf("no witness")
	}
	if err := r.Witness.Validate(bmc.Prepare(sys, bmc.AtMost)); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
}

// loopySrc has an unreachable good 2-cycle (states 4,5) adjacent to the
// bad state 6: plain induction fails at every depth, the simple-path
// constraint closes the proof.
const loopySrc = `
model loopy
input go;
var s : 3 = 0;
next s = s == 0 ? 1
       : s == 1 ? 2
       : s == 2 ? 0
       : s == 4 ? 5
       : s == 5 ? (go ? 6 : 4)
       : s == 6 ? 6
       : 0;
bad s == 6;
`

func TestSimplePathNeeded(t *testing.T) {
	sys, err := msl.Load(loopySrc)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the system is safe.
	if d := explicit.New(sys).ShortestCounterexample(); d != -1 {
		t.Fatalf("loopy is unsafe at %d", d)
	}
	// Simple-path induction closes it quickly.
	sp := induction.Prove(sys, 8, induction.Options{})
	if sp.Status != induction.Proved {
		t.Fatalf("simple-path induction failed: %+v", sp)
	}
	if sp.K > 3 {
		t.Fatalf("expected closure at small k, got %d", sp.K)
	}
}

func TestProveWithPlaistedGreenbaum(t *testing.T) {
	sys := circuits.Handshake(2)
	r := induction.Prove(sys, 10, induction.Options{Mode: tseitin.PlaistedGreenbaum})
	if r.Status != induction.Proved {
		t.Fatalf("handshake not proved under PG: %+v", r)
	}
}

func TestUnknownOnDepthExhaustion(t *testing.T) {
	// A safe system whose proof needs more depth than allowed:
	// simple-path induction closes loopy at k=2, so maxK=1 is too shallow.
	sys, err := msl.Load(loopySrc)
	if err != nil {
		t.Fatal(err)
	}
	r := induction.Prove(sys, 1, induction.Options{})
	if r.Status != induction.Unknown {
		t.Fatalf("expected Unknown at maxK=1, got %v", r.Status)
	}
}
