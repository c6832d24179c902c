package induction_test

import (
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/induction"
	"repro/internal/model"
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

// TestFalsifiedAtShortestDepth runs Prove on zoo families and random
// AIGs, whose bad predicates read inputs too, against the explicit-state
// oracle: no safe model is falsified, and an unsafe one is falsified at
// its shortest depth with a witness of that many steps of the
// self-looped cone that replays on it.
func TestFalsifiedAtShortestDepth(t *testing.T) {
	systems := []*model.System{
		circuits.Counter(4, 9),
		circuits.CounterEnable(3, 5),
		circuits.TokenRing(6),
		circuits.FIFO(3),
		circuits.WithNoise(circuits.CounterEnable(2, 3), 2),
	}
	for seed := int64(600); seed < 624; seed++ {
		systems = append(systems, circuits.RandomAIG(seed, 1+int(seed%3), 2+int(seed%4), 4+int(seed%17), 2))
	}
	for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
		for _, sys := range systems {
			depth := explicit.New(sys).ShortestCounterexample()
			r := induction.Prove(sys, 20, induction.Options{Mode: mode})
			if depth < 0 {
				if r.Status == induction.Falsified {
					t.Fatalf("%s mode=%d: falsified at %d, oracle says safe", sys.Name, mode, r.K)
				}
				continue
			}
			if r.Status != induction.Falsified || r.K != depth || r.Witness == nil || r.Witness.K != depth {
				t.Fatalf("%s mode=%d: %v at %d (witness %v), oracle says falsified at %d", sys.Name, mode, r.Status, r.K, r.Witness, depth)
			}
			if r.System.NumInputs() != bmc.Prepare(sys, bmc.Exact).NumInputs()+1 {
				t.Fatalf("%s mode=%d: witness system is not the self-looped cone", sys.Name, mode)
			}
			if err := r.Witness.Validate(r.System); err != nil {
				t.Fatalf("%s mode=%d: witness does not replay: %v", sys.Name, mode, err)
			}
		}
	}
}

func TestSimplePathNeeded(t *testing.T) {
	sys, err := msl.Load(induction.LoopySrc)
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
	sys, err := msl.Load(induction.LoopySrc)
	if err != nil {
		t.Fatal(err)
	}
	r := induction.Prove(sys, 1, induction.Options{})
	if r.Status != induction.Unknown {
		t.Fatalf("expected Unknown at maxK=1, got %v", r.Status)
	}
}
