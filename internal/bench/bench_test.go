package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/tseitin"
)

func TestSuiteHas234Instances(t *testing.T) {
	suite := Suite()
	if len(suite) != 234 {
		t.Fatalf("suite has %d instances, want 234 (13 families x 18 bounds)", len(suite))
	}
	fams := map[string]int{}
	for _, in := range suite {
		fams[in.Family]++
		if in.K <= 0 {
			t.Fatalf("non-positive bound in %s", in.Name())
		}
	}
	if len(fams) != 13 {
		t.Fatalf("suite has %d families, want 13", len(fams))
	}
	for f, n := range fams {
		if n != 18 {
			t.Fatalf("family %s has %d bounds, want 18", f, n)
		}
	}
}

func TestFamiliesBuildAndAreWellFormed(t *testing.T) {
	for _, fam := range Families() {
		sys := fam.Build()
		if sys.NumStateVars() == 0 {
			t.Errorf("%s: no latches", fam.Name)
		}
		if sys.Circ.NumOutputs() == 0 {
			t.Errorf("%s: no outputs", fam.Name)
		}
	}
}

func TestRunAgreesWithOracleOnSmallFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("slow oracle sweep")
	}
	// For families small enough to enumerate, every engine answer that
	// is not Unknown must match the explicit oracle.
	cfg := DefaultConfig()
	cfg.TimeLimit = 500 * time.Millisecond
	for _, fam := range Families() {
		sys := fam.Build()
		if sys.NumStateVars() > 20 || sys.NumInputs() > 12 {
			continue
		}
		oracle := explicit.New(sys)
		for _, k := range []int{1, 3, 5} {
			want := oracle.ReachableExact(k)
			inst := Instance{Family: fam.Name, Sys: sys, K: k}
			for _, eng := range []EngineKind{EngineSAT, EngineSATIncr, EngineJSAT} {
				r := Run(inst, eng, cfg)
				if r.Status == bmc.Unknown {
					continue
				}
				if (r.Status == bmc.Reachable) != want {
					t.Errorf("%s k=%d engine %v: got %v oracle %v", fam.Name, k, eng, r.Status, want)
				}
			}
		}
	}
}

func TestRunRespectsBudgets(t *testing.T) {
	// The hard factoring instance must come back Unknown fast under a
	// tiny time budget, for every engine.
	inst := Instance{Family: "factor", Sys: circuits.Factorizer(28, 268140589), K: 4}
	cfg := Config{TimeLimit: 50 * time.Millisecond, JSATConflictsPerQuery: 100_000}
	for _, eng := range []EngineKind{EngineSAT, EngineJSAT, EngineQBFLinear} {
		start := time.Now()
		r := Run(inst, eng, cfg)
		if r.Status != bmc.Unknown {
			t.Errorf("engine %v solved the hard instance under 50ms: %v", eng, r.Status)
		}
		if time.Since(start) > 3*time.Second {
			t.Errorf("engine %v ignored the deadline (%v)", eng, time.Since(start))
		}
	}
}

func TestGrowthShape(t *testing.T) {
	sys := circuits.Counter(12, 1000)
	rows := RunGrowth(sys, []int{2, 4, 8, 16, 32}, tseitin.Full)
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Unrolled grows linearly; linear-QBF grows much slower; squaring
	// slowest. Compare growth between k=16 and k=32.
	du := rows[4].Unrolled.Clauses - rows[3].Unrolled.Clauses
	dl := rows[4].Linear.Clauses - rows[3].Linear.Clauses
	ds := rows[4].Squaring.Clauses - rows[3].Squaring.Clauses
	if !(ds < dl && dl < du) {
		t.Fatalf("growth ordering violated: unroll %d, linear %d, squaring %d", du, dl, ds)
	}
	var buf bytes.Buffer
	WriteGrowth(&buf, sys.Name, rows)
	if !strings.Contains(buf.String(), "Figure A") {
		t.Fatalf("rendering broken")
	}
}

func TestMemoryShape(t *testing.T) {
	sys := circuits.Counter(6, 50)
	cfg := DefaultConfig()
	cfg.TimeLimit = 2 * time.Second
	rows := RunMemory(sys, []int{5, 25, 50}, cfg)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	// SAT memory grows substantially with the bound; jSAT stays flat-ish
	// (one TR copy; growth only from learnt clauses and frame guards).
	satGrowth := float64(rows[2].SATBytes) / float64(rows[0].SATBytes+1)
	jsatGrowth := float64(rows[2].JSATBytes) / float64(rows[0].JSATBytes+1)
	if satGrowth < 2 {
		t.Errorf("sat memory should grow with k: %v", rows)
	}
	if jsatGrowth > satGrowth {
		t.Errorf("jsat memory grew faster than sat: jsat %.2fx vs sat %.2fx", jsatGrowth, satGrowth)
	}
	var buf bytes.Buffer
	WriteMemory(&buf, sys.Name, rows)
	if !strings.Contains(buf.String(), "Figure B") {
		t.Fatalf("rendering broken")
	}
}

func TestSquaringIterations(t *testing.T) {
	cfg := DefaultConfig()
	rows := RunSquaring([]int{5, 20}, cfg)
	for _, r := range rows {
		if r.LinearIterations != r.Depth+1 {
			t.Errorf("depth %d: linear iterations %d, want %d", r.Depth, r.LinearIterations, r.Depth+1)
		}
		if r.SquaringIterations >= r.LinearIterations && r.Depth > 3 {
			t.Errorf("depth %d: squaring (%d) should beat linear (%d)", r.Depth, r.SquaringIterations, r.LinearIterations)
		}
		if r.LinearFound != r.Depth {
			t.Errorf("depth %d: linear found at %d", r.Depth, r.LinearFound)
		}
		if r.SquaringFound < r.Depth {
			t.Errorf("depth %d: squaring found too early at %d", r.Depth, r.SquaringFound)
		}
	}
	var buf bytes.Buffer
	WriteSquaring(&buf, rows)
	if !strings.Contains(buf.String(), "Figure C") {
		t.Fatalf("rendering broken")
	}
}

func TestQBFWallAgreement(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeLimit = 2 * time.Second
	rows := RunQBFWall(5, cfg)
	for _, r := range rows {
		if !r.Agreement {
			t.Errorf("k=%d: QBF answer disagrees with the oracle", r.K)
		}
		if r.SATStatus == bmc.Unknown {
			t.Errorf("k=%d: SAT should not time out on a 2-bit counter", r.K)
		}
	}
	// Node counts must grow steeply with k.
	if rows[len(rows)-1].QBFNodes <= rows[1].QBFNodes {
		t.Errorf("QBF effort should explode with k: %v", rows)
	}
	var buf bytes.Buffer
	WriteQBFWall(&buf, rows)
	if !strings.Contains(buf.String(), "E6") {
		t.Fatalf("rendering broken")
	}
}

// TestTable1ParallelMatchesSequential runs a budget-starved sweep twice
// — sequentially and on 4 workers — and requires identical aggregation:
// the parallel path must not perturb result ordering or counting.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("two full suite sweeps")
	}
	cfg := Config{TimeLimit: 20 * time.Millisecond, SATConflicts: 200}
	seq := RunTable1(cfg, EngineSAT)
	par := cfg
	par.Jobs = 4
	pt := RunTable1(par, EngineSAT)
	if len(seq.Results) != len(pt.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(pt.Results))
	}
	for i := range seq.Results {
		if seq.Results[i].Instance.Name() != pt.Results[i].Instance.Name() {
			t.Fatalf("slot %d: %s vs %s — parallel sweep broke ordering",
				i, seq.Results[i].Instance.Name(), pt.Results[i].Instance.Name())
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	// A tiny sanity run: single engine, microscopic budget, just to
	// exercise the aggregation and rendering paths.
	cfg := Config{TimeLimit: time.Millisecond, SATConflicts: 1}
	tbl := RunTable1(cfg, EngineSAT)
	if tbl.Total != 234 {
		t.Fatalf("total %d", tbl.Total)
	}
	if len(tbl.Results) != 234 {
		t.Fatalf("results %d", len(tbl.Results))
	}
	var buf bytes.Buffer
	tbl.Write(&buf, EngineSAT)
	out := buf.String()
	if !strings.Contains(out, "TOTAL") || !strings.Contains(out, "sat-unroll") {
		t.Fatalf("rendering broken:\n%s", out)
	}
}
