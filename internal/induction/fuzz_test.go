package induction

import (
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/tseitin"
)

// fuzzShape folds arbitrary fuzz integers into the small-circuit
// envelope the explicit oracle can enumerate, mirroring the clamp the
// cross-engine differential fuzz in internal/bmc uses so the corpora
// cover the same instance classes.
func fuzzShape(nIn, nLatch, nAnd int) (int, int, int) {
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return 1 + abs(nIn)%3, 2 + abs(nLatch)%4, 4 + abs(nAnd)%17
}

// FuzzInductionAgainstOracle fuzzes k-induction against the
// explicit-state oracle on random sequential circuits: Proved must
// mean no counterexample at any depth, Falsified must come at the
// oracle's shortest depth with a witness that replays on
// Result.System, and Unknown must not hide a counterexample below its
// depth. A second, warm stepper answers step(0)..step(maxK) like the
// eager reference formula does at every k. Without -fuzz the seed
// corpus runs as deterministic unit tests.
func FuzzInductionAgainstOracle(f *testing.F) {
	f.Add(int64(300), 1, 2, 5, false)
	f.Add(int64(427), 2, 3, 9, true)
	f.Add(int64(811), 0, 1, 16, false)
	f.Add(int64(112), 1, 3, 12, true)
	f.Fuzz(func(t *testing.T, seed int64, nIn, nLatch, nAnd int, pg bool) {
		const maxK = 10
		nIn, nLatch, nAnd = fuzzShape(nIn, nLatch, nAnd)
		sys := circuits.RandomAIG(seed, nIn, nLatch, nAnd, 2)
		mode := tseitin.Full
		if pg {
			mode = tseitin.PlaistedGreenbaum
		}
		oracle := explicit.New(sys).ShortestCounterexample()

		r := Prove(sys, maxK, Options{Mode: mode})
		switch r.Status {
		case Proved:
			if oracle >= 0 {
				t.Fatalf("seed %d: proved at %d, oracle finds a depth-%d counterexample", seed, r.K, oracle)
			}
		case Falsified:
			if r.K != oracle || r.Witness == nil || r.Witness.K != oracle {
				t.Fatalf("seed %d: falsified at %d (witness %v), oracle says shortest is %d", seed, r.K, r.Witness, oracle)
			}
			if err := r.Witness.Validate(r.System); err != nil {
				t.Fatalf("seed %d: witness does not replay: %v", seed, err)
			}
		default:
			if oracle >= 0 && oracle <= r.K {
				t.Fatalf("seed %d: unknown at %d, oracle finds a depth-%d counterexample", seed, r.K, oracle)
			}
		}

		red := bmc.Prepare(sys, bmc.Exact)
		st := newStepper(red, Options{Mode: mode})
		for k := 0; k <= maxK; k++ {
			if got, want := st.check(k), eagerStep(red, k, mode); got != want {
				t.Fatalf("seed %d: step(%d) %v, eager formula %v", seed, k, got, want)
			}
		}
	})
}
