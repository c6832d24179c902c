package sebmc_test

import (
	"bytes"
	"testing"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/induction"
)

const counterMSL = `
model counter
var count : 4 = 0;
next count = count + 1;
bad count == 9;
`

func TestFacadeAllEnginesAgree(t *testing.T) {
	sys, err := sebmc.LoadMSL(counterMSL)
	if err != nil {
		t.Fatal(err)
	}
	want := sebmc.ShortestCounterexample(sys)
	if want != 9 {
		t.Fatalf("oracle says %d, want 9", want)
	}
	for _, engine := range []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineSATIncr, sebmc.EngineJSAT} {
		for k := 7; k <= 10; k++ {
			r := sebmc.Check(sys, k, engine, sebmc.Options{})
			wantStatus := sebmc.Unreachable
			if k == 9 {
				wantStatus = sebmc.Reachable
			}
			if r.Status != wantStatus {
				t.Errorf("%v k=%d: got %v want %v", engine, k, r.Status, wantStatus)
			}
		}
	}
	// QBF engines on a smaller instance.
	small, _ := sebmc.LoadMSL("model s\nvar c : 2 = 0;\nnext c = c + 1;\nbad c == 2;\n")
	for _, engine := range []sebmc.Engine{sebmc.EngineQBFLinear, sebmc.EngineQBFSquaring} {
		k := 2
		r := sebmc.Check(small, k, engine, sebmc.Options{})
		if r.Status != sebmc.Reachable {
			t.Errorf("%v: got %v want Reachable", engine, r.Status)
		}
	}
}

func TestFacadeWitness(t *testing.T) {
	sys, _ := sebmc.LoadMSL(counterMSL)
	r := sebmc.Check(sys, 9, sebmc.EngineSAT, sebmc.Options{})
	if r.Status != sebmc.Reachable || r.Witness == nil {
		t.Fatalf("no witness: %+v", r.Status)
	}
	if err := r.Witness.Validate(r.System); err != nil {
		t.Fatalf("witness invalid: %v", err)
	}
	if r.Witness.String() == "" {
		t.Fatalf("witness should render")
	}
}

func TestFacadeAtMost(t *testing.T) {
	sys, _ := sebmc.LoadMSL(counterMSL)
	r := sebmc.Check(sys, 12, sebmc.EngineJSAT, sebmc.Options{Semantics: sebmc.AtMost})
	if r.Status != sebmc.Reachable {
		t.Fatalf("at-most-12 should reach depth-9 bug: %v", r.Status)
	}
}

func TestFacadeDeepen(t *testing.T) {
	sys, _ := sebmc.LoadMSL(counterMSL)
	d := sebmc.Deepen(sys, 16, sebmc.EngineSAT, sebmc.Options{})
	if d.Status != sebmc.Reachable || d.FoundAt != 9 || d.Iterations != 10 {
		t.Fatalf("deepen: %+v", d)
	}
	// The incremental fast path must agree bound-for-bound and surface a
	// replayable witness.
	di := sebmc.Deepen(sys, 16, sebmc.EngineSATIncr, sebmc.Options{})
	if di.Status != sebmc.Reachable || di.FoundAt != 9 || di.Iterations != 10 {
		t.Fatalf("incremental deepen: %+v", di)
	}
	if di.Witness == nil {
		t.Fatalf("incremental deepen lost the witness")
	}
	if err := di.Witness.Validate(di.System); err != nil {
		t.Fatalf("incremental deepen witness invalid: %v", err)
	}
	ds := sebmc.Deepen(sys, 16, sebmc.EngineQBFSquaring, sebmc.Options{NodeBudget: 200_000})
	// Squaring schedule: 0,1,2,4,8,16 — found at 16 (first power ≥ 9) if
	// the QBF solver survives; Unknown under budget is acceptable, a
	// wrong answer is not.
	if ds.Status == sebmc.Reachable && ds.FoundAt != 16 {
		t.Fatalf("squaring deepen found at %d, want 16", ds.FoundAt)
	}
}

// TestFacadeDeepenGeometric: the geometric schedule reports the same
// shortest depth as linear deepening (FoundAt 9 on the depth-9
// counter) in fewer solver invocations, on both the monolithic and the
// warm incremental engine.
func TestFacadeDeepenGeometric(t *testing.T) {
	sys, _ := sebmc.LoadMSL(counterMSL)
	for _, engine := range []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineSATIncr} {
		d := sebmc.Deepen(sys, 16, engine, sebmc.Options{Schedule: sebmc.ScheduleGeometric})
		if d.Status != sebmc.Reachable || d.FoundAt != 9 {
			t.Fatalf("%v geometric deepen: %v at %d, want REACHABLE at 9", engine, d.Status, d.FoundAt)
		}
		// Doubling 0,1,2,4,8,16 then bisecting (8,16] at 12,10,9: nine
		// invocations where linear needs ten.
		if d.Iterations != 9 {
			t.Fatalf("%v geometric deepen: %d iterations (bounds %v), want 9", engine, d.Iterations, d.BoundsTried)
		}
		if d.Witness == nil {
			t.Fatalf("%v geometric deepen lost the witness", engine)
		}
		if err := d.Witness.Validate(d.System); err != nil {
			t.Fatalf("%v geometric deepen witness invalid: %v", engine, err)
		}
		if d.DecidedBy == "" {
			t.Fatalf("%v geometric deepen carries no engine tag", engine)
		}
	}
}

// TestFacadeSquaringRoundsUpNonPowerOfTwo pins the checkSingle fix: a
// non-power-of-two bound on the squaring engine is no longer a silent
// Unknown — it is answered at the next power of two under at-most-k
// (the paper's self-loop trick), with Result.K reporting the bound
// actually checked.
func TestFacadeSquaringRoundsUpNonPowerOfTwo(t *testing.T) {
	reach, _ := sebmc.LoadMSL("model s\nvar c : 2 = 0;\nnext c = c + 1;\nbad c == 2;\n")
	r := sebmc.Check(reach, 3, sebmc.EngineQBFSquaring, sebmc.Options{})
	if r.Status != sebmc.Reachable {
		t.Fatalf("depth-2 bug at rounded-up bound: %v, want REACHABLE", r.Status)
	}
	if r.K != 4 {
		t.Fatalf("rounded-up result reports K=%d, want 4", r.K)
	}

	safe, _ := sebmc.LoadMSL("model s2\nvar c : 3 = 0;\nnext c = c + 1;\nbad c == 7;\n")
	r = sebmc.Check(safe, 3, sebmc.EngineQBFSquaring, sebmc.Options{})
	if r.Status != sebmc.Unreachable {
		t.Fatalf("depth-7 bug within rounded-up bound 4: %v, want UNREACHABLE", r.Status)
	}
	if r.K != 4 {
		t.Fatalf("rounded-up result reports K=%d, want 4", r.K)
	}
}

// TestFacadeSquaringDeepenGapProbe pins the DeepenSquaring soundness
// fix: a non-power-of-two maxBound used to end the power-of-two
// schedule with a blanket Unreachable that never examined the bounds
// past the largest scheduled power — Deepen(Counter(3,5), 5) reported
// UNREACHABLE against a depth-5 counterexample. The schedule now closes
// the gap with one rounded-up probe: Unreachable certifies the full
// range, and a counterexample seen only by that probe reports Unknown
// because the encoding cannot place it relative to maxBound.
func TestFacadeSquaringDeepenGapProbe(t *testing.T) {
	// The probe runs at the next power of two up, where the naive QBF
	// search can be expensive: budget it like TestFacadeDeepen does.
	// An exhausted budget comes back Unknown, which every assertion
	// below accepts — the one forbidden answer is the old Unreachable.
	opts := sebmc.Options{NodeBudget: 200_000}

	// Shortest counterexample 5, maxBound 5: the gap probe (at-most 8)
	// covers it, but 5 could as well have been 6..8 — Unknown, never
	// the old unsound Unreachable, never a guessed Reachable.
	d := sebmc.Deepen(circuits.Counter(3, 5), 5, sebmc.EngineQBFSquaring, opts)
	if d.Status != sebmc.Unknown || d.FoundAt != -1 {
		t.Fatalf("cex in the gap: %v at %d, want UNKNOWN at -1", d.Status, d.FoundAt)
	}
	if got := len(d.BoundsTried); got != 5 || d.BoundsTried[got-1] != 5 {
		t.Fatalf("gap probe missing from schedule: bounds %v, want [0 1 2 4 5]", d.BoundsTried)
	}

	// Counterexample at a scheduled power of two: found there exactly,
	// the gap probe never runs.
	small, _ := sebmc.LoadMSL("model s\nvar c : 2 = 0;\nnext c = c + 1;\nbad c == 2;\n")
	d = sebmc.Deepen(small, 3, sebmc.EngineQBFSquaring, opts)
	if d.Status != sebmc.Reachable || d.FoundAt != 2 {
		t.Fatalf("cex on the schedule: %v at %d, want REACHABLE at 2", d.Status, d.FoundAt)
	}

	// No counterexample at all: the gap probe's Unreachable at the
	// rounded-up bound (at-most 4) soundly covers all of 0..3.
	safe, _ := sebmc.LoadMSL("model s2\nvar c : 2 = 0;\nnext c = c == 2 ? 0 : c + 1;\nbad c == 3;\n")
	d = sebmc.Deepen(safe, 3, sebmc.EngineQBFSquaring, opts)
	if d.Status != sebmc.Unreachable || d.FoundAt != -1 {
		t.Fatalf("safe within the probe: %v at %d, want UNREACHABLE at -1", d.Status, d.FoundAt)
	}
	if got := len(d.BoundsTried); got != 4 || d.BoundsTried[got-1] != 3 {
		t.Fatalf("safe run schedule: bounds %v, want [0 1 2 3]", d.BoundsTried)
	}
}

func TestParseSchedule(t *testing.T) {
	for name, want := range map[string]sebmc.Schedule{
		"":          sebmc.ScheduleLinear,
		"linear":    sebmc.ScheduleLinear,
		"geometric": sebmc.ScheduleGeometric,
	} {
		s, err := sebmc.ParseSchedule(name)
		if err != nil || s != want {
			t.Errorf("ParseSchedule(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := sebmc.ParseSchedule("fibonacci"); err == nil {
		t.Errorf("unknown schedule accepted")
	}
}

func TestFacadeAIGERRoundtrip(t *testing.T) {
	sys := circuits.Counter(4, 9)
	var buf bytes.Buffer
	if err := sebmc.WriteAIGER(sys, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := sebmc.LoadAIGER(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sebmc.ShortestCounterexample(back); got != 9 {
		t.Fatalf("behaviour lost in AIGER roundtrip: cex at %d", got)
	}
}

func TestParseEngine(t *testing.T) {
	for _, name := range []string{"sat", "sat-incr", "jsat", "qbf-linear", "qbf-squaring", "interp"} {
		e, err := sebmc.ParseEngine(name)
		if err != nil || e.String() != name {
			t.Errorf("ParseEngine(%q) = %v, %v", name, e, err)
		}
	}
	if _, err := sebmc.ParseEngine("bdd"); err == nil {
		t.Errorf("unknown engine accepted")
	}
}

func TestFacadeProve(t *testing.T) {
	safe, err := sebmc.LoadMSL("model safe\nvar c : 3 = 0;\nnext c = c == 5 ? 0 : c + 1;\nbad c == 7;\n")
	if err != nil {
		t.Fatal(err)
	}
	pr := sebmc.Prove(safe, 10, sebmc.Options{})
	if pr.Status != sebmc.Safe || !pr.Terminal {
		t.Fatalf("safe saturating counter not proved: %+v", pr)
	}
	if err := pr.Certificate.Validate(pr.System); err != nil {
		t.Fatalf("certificate replay: %v", err)
	}

	buggy, _ := sebmc.LoadMSL(counterMSL)
	pr = sebmc.Prove(buggy, 16, sebmc.Options{})
	if pr.Status != sebmc.Reachable {
		t.Fatalf("bug not found by prove race: %+v", pr)
	}
	if pr.Terminal {
		t.Fatalf("Reachable must not be terminal")
	}
	if pr.Certificate == nil || pr.Certificate.Kind != sebmc.CertWitness || pr.Certificate.Witness == nil {
		t.Fatalf("falsification must carry a witness certificate, got %+v", pr.Certificate)
	}
	if pr.Certificate.Witness.K < 9 {
		t.Fatalf("shortest counterexample is at depth 9, got %d", pr.Certificate.Witness.K)
	}
	if err := pr.Certificate.Validate(pr.System); err != nil {
		t.Fatalf("witness replay: %v", err)
	}
}

// TestProveInductionReportsSolverWork checks that the k-induction arm
// hands its solvers' work on to the verdict, as the interpolation arm
// does: bmcd's JobResult reports conflicts and peak_bytes from it.
func TestProveInductionReportsSolverWork(t *testing.T) {
	for _, sys := range []*sebmc.System{
		circuits.WithNoise(circuits.FIFO(4), 6),
		circuits.Counter(8, 12),
		circuits.ParityGuard(10),
	} {
		v := sebmc.ProveInduction(sys, 0, sebmc.Options{}, nil)
		r := induction.Prove(sys, 64, induction.Options{})
		if v.Conflicts != r.Conflicts || v.PeakBytes != r.PeakBytes || v.PeakBytes == 0 {
			t.Errorf("%s: verdict reports %d conflicts and %d peak bytes, the arm %d and %d",
				sys.Name, v.Conflicts, v.PeakBytes, r.Conflicts, r.PeakBytes)
		}
	}
}

// TestInterpReportsShortestCounterexample runs the interpolation engine
// on FIFO(n), n = 2..5, whose shortest counterexamples lie at 3, 7, 15
// and 31: the widened window's SAT answer may end its trace past the
// shallowest bad frame, and the engine must still report the shortest
// depth, so a bounded check at exactly that depth decides.
func TestInterpReportsShortestCounterexample(t *testing.T) {
	for n, depth := range map[int]int{2: 3, 3: 7, 4: 15, 5: 31} {
		sys := circuits.FIFO(n)
		r := sebmc.Check(sys, depth, sebmc.EngineInterp, sebmc.Options{})
		if r.Status != sebmc.Reachable || r.K != depth {
			t.Errorf("FIFO(%d): Check at %d answered %v at %d, want REACHABLE at %d", n, depth, r.Status, r.K, depth)
		} else if err := r.Witness.Validate(r.System); err != nil {
			t.Errorf("FIFO(%d): Check witness does not replay: %v", n, err)
		}
		v := sebmc.ProveInterp(sys, 0, sebmc.Options{})
		if v.Status != sebmc.Reachable || v.K != depth || v.Certificate == nil {
			t.Errorf("FIFO(%d): ProveInterp answered %v at %d, want REACHABLE at %d", n, v.Status, v.K, depth)
		} else if err := v.Certificate.Validate(v.System); err != nil {
			t.Errorf("FIFO(%d): ProveInterp witness does not replay: %v", n, err)
		}
	}
}

// The example designs from examples/ (quickstart, arbiter,
// trafficlight), reproduced here so the shipped walkthroughs stay
// covered by the witness-validation sweep below.
const (
	quickstartMSL = `
model counter8
input en;
var count : 8 = 0;
next count = en ? count + 1 : count;
bad count == 0xC8;
`
	arbiterMSL = `
model arbiter4
input r0; input r1; input r2; input r3;

var p0 : 1 = 0;  var p1 : 1 = 0;  var p2 : 1 = 0;  var p3 : 1 = 0;
var t0 : 1 = 1;  var t1 : 1 = 0;  var t2 : 1 = 0;  var t3 : 1 = 0;

next p0 = r0;  next p1 = r1;  next p2 = r2;  next p3 = r3;
next t0 = t3;  next t1 = t0;  next t2 = t1;  next t3 = t2;

bad (t0 & p0 & t1 & p1) | (t0 & p0 & t2 & p2) | (t0 & p0 & t3 & p3)
  | (t1 & p1 & t2 & p2) | (t1 & p1 & t3 & p3) | (t2 & p2 & t3 & p3);
`
	trafficMSL = `
model traffic
var timer : 3 = 0;
var phase : 2 = 0;
var greenA : 1 = 1;
var greenB : 1 = 0;

next timer  = timer == 7 ? 0 : timer + 1;
next phase  = timer == 7 ? phase + 1 : phase;
next greenA = (timer == 7 ? phase + 1 : phase) == 0;
next greenB = (timer == 7 ? phase + 1 : phase) == 2;

bad greenA & greenB;
`
)

// TestFacadeWitnessAllEnginesOnExamples is the witness-validation sweep:
// on each example circuit, every witness-producing engine — the
// concurrent portfolio included — is checked at a Reachable and an
// Unreachable bound; every Reachable result must carry a witness that
// replays to a bad state under circuit evaluation.
func TestFacadeWitnessAllEnginesOnExamples(t *testing.T) {
	witnessEngines := []sebmc.Engine{
		sebmc.EngineSAT, sebmc.EngineSATIncr, sebmc.EngineJSAT, sebmc.EnginePortfolio,
	}
	cases := []struct {
		name string
		msl  string
		sem  sebmc.Semantics
		k    int
		want sebmc.Status
		// skipJSAT omits the direct jSAT row where its DFS is too slow
		// for CI; jSAT still competes (and gets cancelled) inside the
		// portfolio row, and its witness path is covered by the counter
		// cases.
		skipJSAT bool
	}{
		{"counter-exact-hit", counterMSL, sebmc.Exact, 9, sebmc.Reachable, false},
		{"counter-exact-miss", counterMSL, sebmc.Exact, 8, sebmc.Unreachable, false},
		{"counter-atmost-hit", counterMSL, sebmc.AtMost, 12, sebmc.Reachable, false},
		{"quickstart-hit", quickstartMSL, sebmc.Exact, 200, sebmc.Reachable, true},
		{"quickstart-miss", quickstartMSL, sebmc.Exact, 60, sebmc.Unreachable, false},
		{"arbiter-safe", arbiterMSL, sebmc.Exact, 6, sebmc.Unreachable, false},
		{"arbiter-safe-atmost", arbiterMSL, sebmc.AtMost, 6, sebmc.Unreachable, false},
		{"traffic-safe", trafficMSL, sebmc.Exact, 10, sebmc.Unreachable, false},
	}
	for _, tc := range cases {
		sys, err := sebmc.LoadMSL(tc.msl)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, engine := range witnessEngines {
			if tc.skipJSAT && engine == sebmc.EngineJSAT {
				continue
			}
			r := sebmc.Check(sys, tc.k, engine, sebmc.Options{Semantics: tc.sem})
			if r.Status != tc.want {
				t.Errorf("%s/%v: got %v want %v", tc.name, engine, r.Status, tc.want)
				continue
			}
			if r.DecidedBy == "" {
				t.Errorf("%s/%v: result carries no engine tag", tc.name, engine)
			}
			if r.Status != sebmc.Reachable {
				continue
			}
			if r.Witness == nil {
				t.Errorf("%s/%v: Reachable without witness", tc.name, engine)
				continue
			}
			if err := r.Witness.Validate(r.System); err != nil {
				t.Errorf("%s/%v: witness does not replay: %v", tc.name, engine, err)
			}
		}
	}

	// The QBF engines produce no trace, so the sweep pins only that
	// their statuses do not contradict the others, on a bound small
	// enough for QDPLL.
	sys, _ := sebmc.LoadMSL(trafficMSL)
	for _, engine := range []sebmc.Engine{sebmc.EngineQBFLinear, sebmc.EngineQBFSquaring} {
		r := sebmc.Check(sys, 1, engine, sebmc.Options{NodeBudget: 500_000})
		if r.Status == sebmc.Reachable {
			t.Errorf("traffic/%v: claimed Reachable on a safe controller", engine)
		}
		if r.Witness != nil {
			t.Errorf("traffic/%v: QBF engine fabricated a witness", engine)
		}
	}
}

func TestFacadeTimeout(t *testing.T) {
	sys := circuits.Factorizer(28, 268140589)
	r := sebmc.Check(sys, 1, sebmc.EngineSAT, sebmc.Options{Timeout: 30_000_000}) // 30ms
	if r.Status != sebmc.Unknown {
		t.Skipf("hard instance solved within 30ms on this machine: %v", r.Status)
	}
}
