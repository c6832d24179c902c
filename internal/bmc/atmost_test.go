package bmc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/model"
	"repro/internal/msl"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// atMostModels are the models of the at-most differential: random AIGs,
// whose bad predicates read inputs and latches alike, zoo families with
// shallow and no counterexamples, a model outside its cone (noise), and
// MSL models whose bad predicate reads an input or whose reset is free.
func atMostModels(t *testing.T) []*model.System {
	t.Helper()
	var out []*model.System
	for seed := int64(500); seed < 516; seed++ {
		out = append(out, circuits.RandomAIG(seed, 1+int(seed%3), 2+int(seed%4), 4+int(seed%17), 2))
	}
	out = append(out,
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(5),
		circuits.TrafficLight(2),
		circuits.FIFO(2),
		circuits.WithNoise(circuits.CounterEnable(2, 3), 2),
	)
	for _, src := range []string{
		// Bad needs the input in the arrival state: the stutter steps of
		// a padded witness must carry that input frame up to the bound.
		"model inbad\ninput go;\nvar c : 3 = 0;\nnext c = c + 1;\nbad c == 4 & go;\n",
		"model xreset\ninput go;\nvar r : 2 = x;\nvar c : 2 = 0;\nnext r = go ? r + 1 : r;\nnext c = c + 1;\nbad c == 3 & r == 2 & !go;\n",
	} {
		sys, err := msl.Load(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// TestAtMostAgreesWithOracle answers bounds 0..12 under at-most-k on one
// warm unroller per model and CNF mode, once in a seeded shuffled order
// and once along the geometric schedule followed by every bound in
// descending order, against the explicit-state oracle. Every witness is
// K = k steps of the self-looped cone and replays on it, and lifted onto
// the caller's model it replays on that model's self-loop transform.
func TestAtMostAgreesWithOracle(t *testing.T) {
	const maxK = 12
	rng := rand.New(rand.NewSource(31))
	for _, sys := range atMostModels(t) {
		oracle := explicit.New(sys)
		full := model.AddSelfLoop(sys)
		for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
			opts := bmc.IncrementalOptions{Semantics: bmc.AtMost, Mode: mode}
			check := func(label string, u *bmc.IncrementalUnroller, k int) bmc.Result {
				t.Helper()
				r := u.CheckBound(k)
				label = fmt.Sprintf("%s mode=%d %s k=%d", sys.Name, mode, label, k)
				checkAtMost(t, label, sys, full, u.System(), oracle.ReachableWithin(k), k, r)
				return r
			}

			shuffled := bmc.NewIncrementalUnroller(sys, opts)
			for _, k := range rng.Perm(maxK + 1) {
				check("shuffled", shuffled, k)
			}

			geo := bmc.NewIncrementalUnroller(sys, opts)
			bmc.DeepenGeometricFrom(-1, maxK, 0, func(k int) bmc.Result { return check("geometric", geo, k) })
			for k := maxK; k >= 0; k-- {
				check("descending", geo, k)
			}
		}
	}
}

// checkAtMost fails unless r answers the at-most-k query as the oracle
// does, with a witness of exactly k steps on encoded (the unroller's
// System) that also replays, lifted, on full (the caller's model
// self-looped).
func checkAtMost(t *testing.T, label string, sys, full, encoded *model.System, want bool, k int, r bmc.Result) {
	t.Helper()
	if got := r.Status == bmc.Reachable; r.Status == bmc.Unknown || got != want {
		t.Fatalf("%s: %v, oracle says reachable=%v", label, r.Status, want)
	}
	if r.System != encoded || encoded.NumInputs() != bmc.Prepare(sys, bmc.Exact).NumInputs()+1 {
		t.Fatalf("%s: answer names %v, want the self-looped cone", label, r.System.Name)
	}
	if r.Status != bmc.Reachable {
		return
	}
	w := r.Witness
	if w == nil || w.K != k {
		t.Fatalf("%s: witness %v, want one of %d steps", label, w, k)
	}
	if err := w.Validate(encoded); err != nil {
		t.Fatalf("%s: witness does not replay on the self-looped cone: %v\n%v", label, err, w)
	}
	lifted, lw := bmc.Lift(sys, r.System, w)
	if lifted.NumInputs() != full.NumInputs() || lifted.NumStateVars() != full.NumStateVars() {
		t.Fatalf("%s: lifted answer names %d latches and %d inputs, want %d and %d", label,
			lifted.NumStateVars(), lifted.NumInputs(), full.NumStateVars(), full.NumInputs())
	}
	if err := lw.Validate(full); err != nil {
		t.Fatalf("%s: lifted witness does not replay on the caller's model: %v", label, err)
	}
}

// TestAtMostDeepBugsByPropagation deepens the deterministic deep-bug
// families geometrically with 1,000 conflicts per query: without the
// self-loop every probe decides by propagation, with no conflict at
// all, so each finds its planted depth with a replaying witness. A
// linear at-most deepening of the depth-2048 LFSR finishes under the
// same budget, and its formula stays within 1.1× the literals of the
// exact run: each probe's guard clause names one new frame.
func TestAtMostDeepBugsByPropagation(t *testing.T) {
	opts := bmc.IncrementalOptions{Semantics: bmc.AtMost, SAT: sat.Options{ConflictBudget: 1000}}
	for _, tc := range []struct {
		name  string
		sys   *model.System
		depth int
	}{
		{"deepcounter512", circuits.DeepCounter(512), 512},
		{"deeplfsr512", circuits.DeepLFSR(12, 0x1053, 512), 512},
		{"deeplfsr2048", circuits.DeepLFSR(12, 0x1053, 2048), 2048},
	} {
		u := bmc.NewIncrementalUnroller(tc.sys, opts)
		d := u.DeepenGeometric(tc.depth, 0)
		if d.Status != bmc.Reachable || d.FoundAt != tc.depth {
			t.Fatalf("%s: geometric %v at %d after %v, want REACHABLE at %d", tc.name, d.Status, d.FoundAt, d.BoundsTried, tc.depth)
		}
		if c := u.Stats().Conflicts; c != 0 {
			t.Errorf("%s: geometric deepening took %d conflicts, want none", tc.name, c)
		}
		if err := d.Witness.Validate(d.System); err != nil {
			t.Fatalf("%s: geometric witness does not replay: %v", tc.name, err)
		}
	}

	sys := circuits.DeepLFSR(12, 0x1053, 2048)
	literals := map[bmc.Semantics]int{}
	for _, sem := range []bmc.Semantics{bmc.Exact, bmc.AtMost} {
		opts.Semantics = sem
		u := bmc.NewIncrementalUnroller(sys, opts)
		var last bmc.Result
		d := bmc.DeepenLinearFrom(-1, 2048, func(k int) bmc.Result { last = u.CheckBound(k); return last })
		if d.Status != bmc.Reachable || d.FoundAt != 2048 {
			t.Fatalf("linear %v: %v at %d, want REACHABLE at 2048", sem, d.Status, d.FoundAt)
		}
		if err := d.Witness.Validate(d.System); err != nil {
			t.Fatalf("linear %v: witness does not replay: %v", sem, err)
		}
		literals[sem] = last.Formula.Literals
	}
	if am, ex := literals[bmc.AtMost], literals[bmc.Exact]; 10*am > 11*ex {
		t.Fatalf("linear at-most deepening holds %d literals, the exact run %d: want within 1.1x", am, ex)
	}
}
