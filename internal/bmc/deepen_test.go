package bmc_test

// Tests for the deepening bound schedules: the DeepenSquaring contract
// fixes (no query past maxBound, pinned iteration accounting) and the
// geometric schedule — doubling plus binary-search refinement — whose
// FoundAt must equal the exact shortest counterexample depth in
// O(log maxBound) solver invocations (experiment E11's claim, pinned
// here on the depth-512 family from the issue's acceptance criteria).

import (
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/model"
	"repro/internal/sat"
)

// atMostCheck answers via the monolithic engine under the self-loop
// transform — the semantics both skipping schedules require.
func atMostCheck(m *model.System, k int) bmc.Result {
	return bmc.SolveUnroll(m, k, bmc.UnrollOptions{Semantics: bmc.AtMost})
}

// TestDeepenSquaringMaxBoundZero is the regression for the schedule
// builder: maxBound = 0 used to produce bounds [0, 1] and query past
// the caller's limit. The run must try exactly bound 0.
func TestDeepenSquaringMaxBoundZero(t *testing.T) {
	sys := circuits.Counter(3, 5)
	var asked []int
	d := bmc.DeepenSquaring(sys, 0, func(m *model.System, k int) bmc.Result {
		asked = append(asked, k)
		return atMostCheck(m, k)
	})
	if d.Status != bmc.Unreachable || d.FoundAt != -1 {
		t.Fatalf("maxBound=0 on a depth-5 bug: %+v", d)
	}
	if d.Iterations != 1 || len(d.BoundsTried) != 1 || d.BoundsTried[0] != 0 {
		t.Fatalf("maxBound=0 accounting: Iterations=%d BoundsTried=%v, want 1 and [0]", d.Iterations, d.BoundsTried)
	}
	if len(asked) != 1 || asked[0] != 0 {
		t.Fatalf("maxBound=0 queried bounds %v, want [0]", asked)
	}
}

// TestDeepenSquaringNeverExceedsMaxBound: a non-power-of-two limit is
// never queried past — the powers of two below it, then the gap probe
// at maxBound itself (which the squaring engine internally answers at
// the next power up; the schedule still hands it maxBound). An
// Unreachable gap probe soundly certifies the full range.
func TestDeepenSquaringNeverExceedsMaxBound(t *testing.T) {
	sys := circuits.TrafficLight(2) // safe at every bound
	var asked []int
	d := bmc.DeepenSquaring(sys, 5, func(m *model.System, k int) bmc.Result {
		asked = append(asked, k)
		return atMostCheck(m, k)
	})
	if d.Status != bmc.Unreachable {
		t.Fatalf("safe system: %+v", d)
	}
	want := []int{0, 1, 2, 4, 5}
	if len(asked) != len(want) {
		t.Fatalf("queried bounds %v, want %v", asked, want)
	}
	for i, k := range asked {
		if k != want[i] {
			t.Fatalf("queried bounds %v, want %v", asked, want)
		}
	}
	if d.Iterations != 5 {
		t.Fatalf("Iterations=%d, want 5", d.Iterations)
	}
}

// TestDeepenSquaringGapProbeSoundness is the chaos-caught regression:
// with the shortest counterexample between the largest scheduled power
// of two and a non-power-of-two maxBound, the run used to report a
// blanket Unreachable without ever looking. The gap probe now sees the
// counterexample; because the squaring engine can only answer the
// rounded-up bound, the honest verdict is Unknown — never Unreachable,
// never a guessed Reachable.
func TestDeepenSquaringGapProbeSoundness(t *testing.T) {
	sys := circuits.Counter(3, 5) // shortest counterexample depth 5
	if got := explicit.New(sys).ShortestCounterexample(); got != 5 {
		t.Fatalf("oracle: shortest %d, want 5", got)
	}
	d := bmc.DeepenSquaring(sys, 5, func(m *model.System, k int) bmc.Result {
		return atMostCheck(m, k)
	})
	if d.Status != bmc.Unknown || d.FoundAt != -1 {
		t.Fatalf("cex in the gap: %+v, want Unknown at -1", d)
	}
}

// monotone simulates an at-most-k oracle with the shortest
// counterexample at target (target < 0 = safe), recording every probe.
func monotone(target int, asked *[]int) func(k int) bmc.Result {
	return func(k int) bmc.Result {
		*asked = append(*asked, k)
		if target >= 0 && k >= target {
			return bmc.Result{Status: bmc.Reachable, K: k}
		}
		return bmc.Result{Status: bmc.Unreachable, K: k}
	}
}

func TestDeepenGeometricFindsExactDepth(t *testing.T) {
	for _, tc := range []struct {
		target, maxBound int
		wantIters        int
	}{
		{0, 16, 1},   // found on the first probe
		{1, 16, 2},   // 0 U, 1 R
		{5, 16, 7},   // 0,1,2,4,8 then bisect (4,8]: 6,5
		{9, 16, 9},   // 0,1,2,4,8,16 then bisect (8,16]: 12,10,9
		{16, 16, 9},  // 0,1,2,4,8,16 then bisect (8,16]: 12,14,15
		{12, 100, 9}, // 0,1,2,4,8,16 then bisect (8,16]: 12,10,11
	} {
		var asked []int
		d := bmc.DeepenGeometricFrom(-1, tc.maxBound, 0, monotone(tc.target, &asked))
		if d.Status != bmc.Reachable || d.FoundAt != tc.target {
			t.Fatalf("target %d maxBound %d: %+v (asked %v)", tc.target, tc.maxBound, d, asked)
		}
		if d.Iterations != tc.wantIters {
			t.Fatalf("target %d maxBound %d: %d iterations (asked %v), want %d",
				tc.target, tc.maxBound, d.Iterations, asked, tc.wantIters)
		}
		for _, k := range asked {
			if k > tc.maxBound {
				t.Fatalf("target %d: probed %d past maxBound %d", tc.target, k, tc.maxBound)
			}
		}
	}
}

func TestDeepenGeometricSafeEndsAtMaxBound(t *testing.T) {
	var asked []int
	d := bmc.DeepenGeometricFrom(-1, 10, 0, monotone(-1, &asked))
	if d.Status != bmc.Unreachable || d.FoundAt != -1 {
		t.Fatalf("safe run: %+v", d)
	}
	// The final query must land exactly on maxBound so the Unreachable
	// verdict certifies the whole asked range.
	if last := asked[len(asked)-1]; last != 10 {
		t.Fatalf("final bound %d, want maxBound 10 (asked %v)", last, asked)
	}
	if d.Iterations != 6 { // 0,1,2,4,8,10
		t.Fatalf("Iterations=%d (asked %v), want 6", d.Iterations, asked)
	}

	// Bug just past the horizon: same schedule, still Unreachable.
	asked = nil
	d = bmc.DeepenGeometricFrom(-1, 10, 0, monotone(11, &asked))
	if d.Status != bmc.Unreachable {
		t.Fatalf("bug at 11 with maxBound 10: %+v", d)
	}
}

func TestDeepenGeometricRatioAndProvenPrefix(t *testing.T) {
	// Ratio 3 grows 0,1,3,9,16 to a maxBound of 16.
	var asked []int
	d := bmc.DeepenGeometricFrom(-1, 16, 3, monotone(-1, &asked))
	want := []int{0, 1, 3, 9, 16}
	if len(asked) != len(want) {
		t.Fatalf("ratio-3 bounds %v, want %v", asked, want)
	}
	for i, k := range asked {
		if k != want[i] {
			t.Fatalf("ratio-3 bounds %v, want %v", asked, want)
		}
	}
	if d.Status != bmc.Unreachable {
		t.Fatalf("ratio-3 safe run: %+v", d)
	}

	// A proven prefix shifts the start and fences the refinement: no
	// probe may land at or below proven.
	asked = nil
	d = bmc.DeepenGeometricFrom(7, 16, 0, monotone(9, &asked))
	if d.Status != bmc.Reachable || d.FoundAt != 9 {
		t.Fatalf("resume from proven=7: %+v (asked %v)", d, asked)
	}
	for _, k := range asked {
		if k <= 7 {
			t.Fatalf("probe at %d inside the proven prefix (asked %v)", k, asked)
		}
	}

	// Entirely inside the prefix: no queries at all.
	asked = nil
	d = bmc.DeepenGeometricFrom(16, 16, 0, monotone(9, &asked))
	if d.Status != bmc.Unreachable || len(asked) != 0 || d.Iterations != 0 {
		t.Fatalf("deepen inside proven prefix ran the solver: %+v (asked %v)", d, asked)
	}
}

// TestDeepenGeometricDepth512: on the depth-512 deep-bug family, the
// geometric schedule over the warm incremental engine must report the
// oracle's exact shortest depth in at most 25 solver invocations (11
// doublings + 8 bisection probes here), where linear deepening would
// need 513. Its at-most probes decide by propagation, so it runs in
// short mode too.
func TestDeepenGeometricDepth512(t *testing.T) {
	sys := circuits.DeepCounter(512)
	if got := explicit.New(sys).ShortestCounterexample(); got != 512 {
		t.Fatalf("oracle: shortest counterexample at %d, want 512", got)
	}
	d := bmc.DeepenGeometricIncremental(sys, 512, 0, bmc.IncrementalOptions{})
	if d.Status != bmc.Reachable || d.FoundAt != 512 {
		t.Fatalf("geometric deepen: status=%v found=%d, want REACHABLE at 512", d.Status, d.FoundAt)
	}
	if d.Iterations > 25 {
		t.Fatalf("geometric deepen took %d solver invocations (bounds %v), want <= 25", d.Iterations, d.BoundsTried)
	}
	if d.Witness == nil {
		t.Fatal("no witness from the geometric run")
	}
	if err := d.Witness.Validate(d.System); err != nil {
		t.Fatalf("geometric witness does not replay: %v", err)
	}
}

// TestDeepenGeometricIncrementalMatchesLinear sweeps small systems:
// the geometric incremental run must land on exactly the bound the
// linear incremental run finds.
func TestDeepenGeometricIncrementalMatchesLinear(t *testing.T) {
	for _, sys := range []*model.System{
		circuits.Counter(3, 5),
		circuits.TokenRing(5),
		circuits.FIFO(2),
		circuits.TrafficLight(2),
	} {
		lin := bmc.DeepenIncremental(sys, 12, bmc.IncrementalOptions{})
		geo := bmc.DeepenGeometricIncremental(sys, 12, 0, bmc.IncrementalOptions{
			SAT: sat.Options{},
		})
		if lin.Status != geo.Status || lin.FoundAt != geo.FoundAt {
			t.Fatalf("%s: linear %v@%d vs geometric %v@%d",
				sys.Name, lin.Status, lin.FoundAt, geo.Status, geo.FoundAt)
		}
		// No invocation-count assertion on shallow bugs: the geometric
		// schedule's bisection overhead only pays off at depth (that
		// crossover is what experiment E11 records).
	}
}
