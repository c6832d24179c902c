package bmc_test

import (
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/model"
	"repro/internal/qbf"
	"repro/internal/tseitin"
)

// smallSystems returns systems small enough for the explicit oracle and
// the general-purpose QBF solver.
func smallSystems() []*model.System {
	return []*model.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(4),
		circuits.Johnson(3, 3),
		circuits.TrafficLight(2),
		circuits.FIFO(2),
		circuits.Pipeline(3),
		circuits.Handshake(2),
		circuits.RandomAIG(11, 2, 3, 10, 2),
		circuits.RandomAIG(12, 1, 4, 12, 2),
	}
}

func TestUnrollMatchesExplicit(t *testing.T) {
	for _, sys := range smallSystems() {
		chk := explicit.New(sys)
		for k := 0; k <= 7; k++ {
			wantExact := chk.ReachableExact(k)
			r := bmc.SolveUnroll(sys, k, bmc.UnrollOptions{})
			if (r.Status == bmc.Reachable) != wantExact || r.Status == bmc.Unknown {
				t.Errorf("%s k=%d exact: unroll=%v explicit=%v", sys.Name, k, r.Status, wantExact)
			}
			if r.Status == bmc.Reachable {
				if err := r.Witness.Validate(r.System); err != nil {
					t.Errorf("%s k=%d: invalid witness: %v", sys.Name, k, err)
				}
			}

			wantWithin := chk.ReachableWithin(k)
			r2 := bmc.SolveUnroll(sys, k, bmc.UnrollOptions{Semantics: bmc.AtMost})
			if (r2.Status == bmc.Reachable) != wantWithin || r2.Status == bmc.Unknown {
				t.Errorf("%s k=%d atmost: unroll=%v explicit=%v", sys.Name, k, r2.Status, wantWithin)
			}
			if r2.Status == bmc.Reachable {
				if err := r2.Witness.Validate(r2.System); err != nil {
					t.Errorf("%s k=%d atmost: invalid witness: %v", sys.Name, k, err)
				}
			}
		}
	}
}

func TestUnrollPlaistedGreenbaum(t *testing.T) {
	for _, sys := range smallSystems() {
		chk := explicit.New(sys)
		for k := 0; k <= 5; k++ {
			want := chk.ReachableExact(k)
			r := bmc.SolveUnroll(sys, k, bmc.UnrollOptions{Mode: tseitin.PlaistedGreenbaum})
			if (r.Status == bmc.Reachable) != want || r.Status == bmc.Unknown {
				t.Errorf("%s k=%d PG: unroll=%v explicit=%v", sys.Name, k, r.Status, want)
			}
		}
	}
}

// linearSystems are the subset small enough for QDPLL on formula (2).
func linearSystems() []*model.System {
	return []*model.System{
		circuits.Counter(2, 2),
		circuits.TokenRing(3),
		circuits.CounterEnable(2, 1),
		circuits.RandomAIG(21, 1, 2, 6, 1),
		circuits.RandomAIG(22, 1, 3, 8, 2),
	}
}

func TestLinearQBFMatchesExplicit(t *testing.T) {
	for _, sys := range linearSystems() {
		chk := explicit.New(sys)
		for k := 0; k <= 4; k++ {
			want := chk.ReachableExact(k)
			r := bmc.SolveLinear(sys, k, bmc.LinearOptions{QBF: qbf.Options{NodeBudget: 50_000_000}})
			if r.Status == bmc.Unknown {
				t.Fatalf("%s k=%d: QBF budget exhausted on a test-sized instance", sys.Name, k)
			}
			if (r.Status == bmc.Reachable) != want {
				t.Errorf("%s k=%d: linear=%v explicit=%v", sys.Name, k, r.Status, want)
			}
		}
	}
}

func TestLinearQBFAtMost(t *testing.T) {
	sys := circuits.Counter(2, 2)
	chk := explicit.New(sys)
	for k := 0; k <= 4; k++ {
		want := chk.ReachableWithin(k)
		r := bmc.SolveLinear(sys, k, bmc.LinearOptions{Semantics: bmc.AtMost})
		if (r.Status == bmc.Reachable) != want || r.Status == bmc.Unknown {
			t.Errorf("k=%d: linear/atmost=%v explicit=%v", k, r.Status, want)
		}
	}
}

func TestSquaringMatchesExplicit(t *testing.T) {
	for _, sys := range []*model.System{
		circuits.Counter(2, 2),
		circuits.TokenRing(3),
		circuits.RandomAIG(31, 1, 2, 6, 1),
	} {
		chk := explicit.New(sys)
		for _, k := range []int{0, 1, 2, 4} {
			want := chk.ReachableExact(k)
			r, err := bmc.SolveSquaring(sys, k, bmc.SquaringOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Status == bmc.Unknown {
				t.Fatalf("%s k=%d: QBF budget exhausted", sys.Name, k)
			}
			if (r.Status == bmc.Reachable) != want {
				t.Errorf("%s k=%d: squaring=%v explicit=%v", sys.Name, k, r.Status, want)
			}
		}
	}
}

func TestSquaringAtMostCoversAllBounds(t *testing.T) {
	// With the self-loop, power-of-two bounds cover every smaller bound:
	// counter(2,2) has its counterexample at depth 2 — found at k=2 and
	// k=4 under AtMost, not at k=1.
	sys := circuits.Counter(2, 2)
	for _, tc := range []struct {
		k    int
		want bmc.Status
	}{{1, bmc.Unreachable}, {2, bmc.Reachable}, {4, bmc.Reachable}} {
		r, err := bmc.SolveSquaring(sys, tc.k, bmc.SquaringOptions{Semantics: bmc.AtMost})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != tc.want {
			t.Errorf("k=%d: got %v want %v", tc.k, r.Status, tc.want)
		}
	}
}

func TestSquaringRoundsUpNonPowerOfTwo(t *testing.T) {
	// SolveSquaring used to reject non-power-of-two bounds with an
	// error some callers swallowed into a silent Unknown. It now rounds
	// up to the next power of two under at-most-k (sound: covers <= k)
	// and tags Result.K with the bound actually checked.
	sys := circuits.Counter(2, 2) // counterexample at depth 2
	r, err := bmc.SolveSquaring(sys, 3, bmc.SquaringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != bmc.Reachable || r.K != 4 {
		t.Fatalf("k=3 rounds up to at-most-4: got %v K=%d, want REACHABLE K=4", r.Status, r.K)
	}
	// The raw encoder still only speaks powers of two.
	if _, err := bmc.EncodeSquaring(sys, 6, tseitin.Full); err == nil {
		t.Fatalf("EncodeSquaring bound 6 should be rejected")
	}
}

func TestFormulaGrowthShapes(t *testing.T) {
	// The space-efficiency claim (E2): unrolled formulas grow by ~|TR|
	// per step; linear QBF formulas grow by O(n) per step; squaring
	// grows by O(n) per *doubling*.
	sys := circuits.Counter(16, 60000)

	u8 := bmc.EncodeUnroll(sys, 8, tseitin.Full).Stats()
	u16 := bmc.EncodeUnroll(sys, 16, tseitin.Full).Stats()
	uGrowth := u16.Clauses - u8.Clauses // 8 more TR copies

	l8 := mustLinear(t, sys, 8).Stats()
	l16 := mustLinear(t, sys, 16).Stats()
	lGrowth := l16.Clauses - l8.Clauses // 8 more selector terms

	if lGrowth >= uGrowth {
		t.Errorf("linear growth (%d) should be far below unrolled growth (%d)", lGrowth, uGrowth)
	}
	// The linear formula keeps exactly one TR copy: its absolute size at
	// k=16 stays below the unrolled size at k=2.
	u2 := bmc.EncodeUnroll(sys, 2, tseitin.Full).Stats()
	if l16.Clauses >= u2.Clauses+16*(2*2*16+1)+1000 {
		t.Errorf("linear k=16 (%d clauses) unexpectedly large vs unrolled k=2 (%d)", l16.Clauses, u2.Clauses)
	}

	s16, err := bmc.EncodeSquaring(sys, 16, tseitin.Full)
	if err != nil {
		t.Fatal(err)
	}
	s256, err := bmc.EncodeSquaring(sys, 256, tseitin.Full)
	if err != nil {
		t.Fatal(err)
	}
	st16, st256 := s16.Stats(), s256.Stats()
	if st256.Clauses-st16.Clauses >= uGrowth {
		t.Errorf("squaring growth for 16x deeper bound (%d) should be below unrolled growth for 2x (%d)",
			st256.Clauses-st16.Clauses, uGrowth)
	}
	// Alternations: fixed at 2 for linear, growing for squaring.
	if l8.Alternations != 2 || l16.Alternations != 2 {
		t.Errorf("linear alternations should be 2, got %d/%d", l8.Alternations, l16.Alternations)
	}
	if st256.Alternations <= st16.Alternations {
		t.Errorf("squaring alternations should grow: %d vs %d", st16.Alternations, st256.Alternations)
	}
}

func mustLinear(t *testing.T, sys *model.System, k int) *bmc.LinearEncoding {
	t.Helper()
	return bmc.EncodeLinear(sys, k, tseitin.Full)
}

func TestDeepenLinearVsSquaringIterations(t *testing.T) {
	// E4 in miniature: find the depth-5 counterexample of counter(3,5).
	sys := circuits.Counter(3, 5)

	lin := bmc.DeepenLinear(sys, 16, func(m *model.System, k int) bmc.Result {
		return bmc.SolveUnroll(m, k, bmc.UnrollOptions{})
	})
	if lin.Status != bmc.Reachable || lin.FoundAt != 5 {
		t.Fatalf("linear deepening: %+v", lin)
	}
	if lin.Iterations != 6 {
		t.Fatalf("linear deepening iterations = %d, want 6", lin.Iterations)
	}

	sq := bmc.DeepenSquaring(sys, 16, func(m *model.System, k int) bmc.Result {
		// At-most semantics via the unroll engine keeps this test fast;
		// the iteration count is the point here.
		return bmc.SolveUnroll(m, k, bmc.UnrollOptions{Semantics: bmc.AtMost})
	})
	if sq.Status != bmc.Reachable || sq.FoundAt != 8 {
		t.Fatalf("squaring deepening: %+v", sq)
	}
	if sq.Iterations != 5 { // k = 0,1,2,4,8
		t.Fatalf("squaring deepening iterations = %d, want 5", sq.Iterations)
	}
}

func TestDeepenUnreachable(t *testing.T) {
	sys := circuits.Arbiter(3)
	lin := bmc.DeepenLinear(sys, 6, func(m *model.System, k int) bmc.Result {
		return bmc.SolveUnroll(m, k, bmc.UnrollOptions{})
	})
	if lin.Status != bmc.Unreachable || lin.FoundAt != -1 || lin.Iterations != 7 {
		t.Fatalf("deepen on safe system: %+v", lin)
	}
}

func TestWitnessValidateRejectsCorrupt(t *testing.T) {
	sys := circuits.Counter(3, 5)
	r := bmc.SolveUnroll(sys, 5, bmc.UnrollOptions{})
	if r.Status != bmc.Reachable {
		t.Fatalf("setup: %v", r.Status)
	}
	w := r.Witness
	if err := w.Validate(r.System); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	// Corrupt a middle state.
	w.States[2][0] = !w.States[2][0]
	if err := w.Validate(r.System); err == nil {
		t.Fatalf("corrupt witness accepted")
	}
	w.States[2][0] = !w.States[2][0]
	// Corrupt the initial state.
	w.States[0][1] = true
	if err := w.Validate(r.System); err == nil {
		t.Fatalf("non-initial start accepted")
	}
}

func TestUnrollUnsatProducesNoWitness(t *testing.T) {
	sys := circuits.TrafficLight(2)
	r := bmc.SolveUnroll(sys, 4, bmc.UnrollOptions{})
	if r.Status != bmc.Unreachable || r.Witness != nil {
		t.Fatalf("safe system: %+v", r)
	}
}
