package bmc_test

import (
	"fmt"
	"hash"
	"io"
	"testing"
	"time"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

func TestIncrementalMatchesMonolithicOnFamilies(t *testing.T) {
	systems := []struct {
		name string
		sys  *model.System
		maxK int
	}{
		{"counter", circuits.Counter(4, 9), 12},
		{"tokenring", circuits.TokenRing(6), 9},
		{"counteren", circuits.CounterEnable(3, 5), 8},
		{"traffic", circuits.TrafficLight(2), 8},
	}
	for _, tc := range systems {
		for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
			u := bmc.NewIncrementalUnroller(tc.sys, bmc.IncrementalOptions{Mode: mode})
			for k := 0; k <= tc.maxK; k++ {
				want := bmc.SolveUnroll(tc.sys, k, bmc.UnrollOptions{Mode: mode}).Status
				got := u.CheckBound(k)
				if got.Status != want {
					t.Errorf("%s mode=%d k=%d: incremental %v, monolithic %v", tc.name, mode, k, got.Status, want)
				}
				if got.Status == bmc.Reachable {
					if got.Witness == nil {
						t.Fatalf("%s k=%d: Reachable without witness", tc.name, k)
					}
					if err := got.Witness.Validate(got.System); err != nil {
						t.Errorf("%s k=%d: witness does not replay: %v", tc.name, k, err)
					}
				}
			}
		}
	}
}

func TestIncrementalDeepenFindsShortestCounterexample(t *testing.T) {
	sys := circuits.Counter(4, 9)
	d := bmc.DeepenIncremental(sys, 16, bmc.IncrementalOptions{})
	if d.Status != bmc.Reachable || d.FoundAt != 9 || d.Iterations != 10 {
		t.Fatalf("deepen: %+v", d)
	}
	if d.Witness == nil {
		t.Fatalf("deepening must surface the witness")
	}
	if err := d.Witness.Validate(d.System); err != nil {
		t.Fatalf("deepening witness does not replay: %v", err)
	}
	if d.Witness.K != 9 {
		t.Fatalf("witness depth %d, want 9", d.Witness.K)
	}
}

func TestIncrementalDeepenSafeSystem(t *testing.T) {
	d := bmc.DeepenIncremental(circuits.TrafficLight(2), 12, bmc.IncrementalOptions{})
	if d.Status != bmc.Unreachable || d.FoundAt != -1 || d.Iterations != 13 {
		t.Fatalf("safe deepen: %+v", d)
	}
	if d.Witness != nil {
		t.Fatalf("safe run must not carry a witness")
	}
}

func TestIncrementalBoundsInAnyOrder(t *testing.T) {
	// Bounds may be queried out of order and repeatedly; retired
	// properties must not corrupt later (or repeated) queries.
	sys := circuits.Counter(4, 9)
	u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{})
	order := []int{5, 2, 9, 5, 12, 9, 0, 9}
	for _, k := range order {
		want := bmc.Unreachable
		if k == 9 {
			want = bmc.Reachable
		}
		r := u.CheckBound(k)
		if r.Status != want {
			t.Errorf("k=%d: got %v want %v", k, r.Status, want)
		}
		if r.Status == bmc.Reachable {
			if err := r.Witness.Validate(r.System); err != nil {
				t.Errorf("k=%d: witness does not replay: %v", k, err)
			}
		}
	}
}

func TestIncrementalAtMostSemantics(t *testing.T) {
	sys := circuits.Counter(4, 9)
	u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{Semantics: bmc.AtMost})
	for _, k := range []int{7, 9, 12} {
		want := bmc.Unreachable
		if k >= 9 {
			want = bmc.Reachable
		}
		r := u.CheckBound(k)
		if r.Status != want {
			t.Errorf("atmost k=%d: got %v want %v", k, r.Status, want)
		}
		if r.Status == bmc.Reachable {
			// The witness validates against the self-looped system the
			// engine actually encoded, which CheckBound reports back.
			if err := r.Witness.Validate(r.System); err != nil {
				t.Errorf("atmost k=%d: witness does not replay: %v", k, err)
			}
		}
	}
}

func TestIncrementalUnknownUnderBudget(t *testing.T) {
	sys := circuits.Factorizer(28, 268140589)
	u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{
		SAT: sat.Options{ConflictBudget: 1},
	})
	if r := u.CheckBound(1); r.Status != bmc.Unknown {
		t.Skipf("hard instance solved within one conflict on this machine: %v", r.Status)
	}
}

func TestIncrementalQueryTimeout(t *testing.T) {
	// The per-query timeout must abort a hard bound with Unknown…
	sys := circuits.Factorizer(28, 268140589)
	u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{
		QueryTimeout: 20 * time.Millisecond,
	})
	if r := u.CheckBound(1); r.Status != bmc.Unknown {
		t.Skipf("hard instance solved within 20ms on this machine: %v", r.Status)
	}
	// …while a run of many easy bounds is budgeted per bound, not
	// capped as a whole: the same timeout must let a deepening run
	// finish every bound.
	easy := bmc.NewIncrementalUnroller(circuits.TrafficLight(2), bmc.IncrementalOptions{
		QueryTimeout: 10 * time.Second,
	})
	if d := easy.Deepen(24); d.Status != bmc.Unreachable || d.Iterations != 25 {
		t.Fatalf("easy deepen under per-query timeout: %+v", d)
	}
}

// TestIncrementalEncodingWorkIsLinear is the complexity claim of the
// engine in test form: deepening to 2k must add roughly 2× the clauses
// of deepening to k, not 4× (as monolithic re-unrolling does).
func TestIncrementalEncodingWorkIsLinear(t *testing.T) {
	run := func(maxBound int) int {
		sys := circuits.TrafficLight(2) // safe: every bound gets checked
		u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{})
		u.Deepen(maxBound)
		return u.Stats().ClausesAdded
	}
	c16, c32 := run(16), run(32)
	if c32 >= 3*c16 {
		t.Fatalf("encoding work grew superlinearly: depth-16 %d clauses, depth-32 %d", c16, c32)
	}
}

// TestIncrementalDeepenVsMonolithic compares a full deepening run on
// one persistent solver with a fresh formula and solver at every bound:
// the two agree on the answer, the incremental witness replays,
// and the incremental run hands its solver at least 2× fewer cumulative
// clauses. The safe system checks every bound, with no early exit.
func TestIncrementalDeepenVsMonolithic(t *testing.T) {
	cases := []struct {
		name     string
		sys      *model.System
		maxBound int
		status   bmc.Status
		foundAt  int
	}{
		{"lfsr64", circuits.DeepLFSR(10, 0x204, 64), 64, bmc.Reachable, 64},
		{"traffic4", circuits.TrafficLight(4), 32, bmc.Unreachable, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			monoClauses := 0
			mono := bmc.DeepenLinear(tc.sys, tc.maxBound, func(m *model.System, k int) bmc.Result {
				r := bmc.SolveUnroll(m, k, bmc.UnrollOptions{})
				monoClauses += r.Formula.Clauses
				return r
			})
			u := bmc.NewIncrementalUnroller(tc.sys, bmc.IncrementalOptions{})
			incr := u.Deepen(tc.maxBound)
			for _, d := range []bmc.DeepenResult{mono, incr} {
				if d.Status != tc.status || d.FoundAt != tc.foundAt {
					t.Fatalf("monolithic %v@%d, incremental %v@%d, want %v@%d",
						mono.Status, mono.FoundAt, incr.Status, incr.FoundAt, tc.status, tc.foundAt)
				}
			}
			if tc.status == bmc.Reachable {
				if incr.Witness == nil {
					t.Fatal("incremental run carries no witness")
				}
				if err := incr.Witness.Validate(incr.System); err != nil {
					t.Fatalf("incremental witness does not replay: %v", err)
				}
			}
			if incrClauses := u.Stats().ClausesAdded; monoClauses < 2*incrClauses {
				t.Fatalf("cumulative clauses: monolithic %d, incremental %d, want at least 2x fewer", monoClauses, incrClauses)
			}
		})
	}
}

// TestIncrementalReusesSolverAcrossBounds pins the core property: the
// persistent solver is not rebuilt between bounds, so the number of
// frames and the clause count advance by exactly one frame per bound.
func TestIncrementalReusesSolverAcrossBounds(t *testing.T) {
	sys := circuits.Counter(4, 9)
	u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{})
	var prevClauses int
	var deltas []int
	for k := 0; k <= 6; k++ {
		u.CheckBound(k)
		if got := u.NumFrames(); got != k+1 {
			t.Fatalf("after bound %d: %d frames, want %d", k, got, k+1)
		}
		st := u.Stats()
		deltas = append(deltas, st.ClausesAdded-prevClauses)
		prevClauses = st.ClausesAdded
	}
	// Every step after the first two adds one frame's worth of clauses:
	// the per-step cost must be flat, not growing with k.
	for i := 3; i < len(deltas); i++ {
		if deltas[i] != deltas[2] {
			t.Fatalf("per-bound clause cost not constant: deltas %v", deltas)
		}
	}
}

// TestIncrementalExactPinned pins what an exact-k unroller reports at
// every bound of a fixed matrix — eight models, both CNF modes, bounds
// 0–20 checked in order on one unroller: the formula sizes, conflicts
// and clause-database peak of each answer. The values were recorded
// before the at-most answer stopped self-looping the unrolling; an
// exact-k run must not notice that change.
func TestIncrementalExactPinned(t *testing.T) {
	want := map[string]string{
		"arbiter/incr-exact":   "fa3155ea5a68a159",
		"counter/incr-exact":   "06e9ded67c4c9aa5",
		"counteren/incr-exact": "37d23f00df835898",
		"deeplfsr/incr-exact":  "02f29d26f1ec880e",
		"fifo/incr-exact":      "8e81e48a6a357849",
		"noisyfifo/incr-exact": "f8349cdfb596dc00",
		"random/incr-exact":    "916fbbb427d0a44d",
		"xreg/incr-exact":      "9e24733ac11dd280",
	}
	fams := pinnedFamilies(t)
	fams = append(fams, []struct {
		name string
		sys  *model.System
	}{
		{"counteren", circuits.CounterEnable(3, 5)},
		{"noisyfifo", circuits.WithNoise(circuits.FIFO(3), 2)},
		{"deeplfsr", circuits.DeepLFSR(10, 0x204, 16)},
	}...)
	got := map[string]hash.Hash{}
	for _, fam := range fams {
		for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
			u := bmc.NewIncrementalUnroller(fam.sys, bmc.IncrementalOptions{Mode: mode})
			for k := 0; k <= 20; k++ {
				r := u.CheckBound(k)
				addDigest(t, got, fam.name+"/incr-exact", func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "%d %v %+v %d %d\n", k, r.Status, r.Formula, r.Conflicts, r.PeakBytes)
					return err
				})
			}
		}
	}
	checkDigests(t, want, got)
}
