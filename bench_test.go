// Benchmarks regenerating the paper's evaluation, one benchmark group per
// table/figure (the experiments are listed in the README's "Benchmarks
// and experiments" section):
//
//	BenchmarkTable1_*      — E1: per-engine solve effort on suite slices
//	BenchmarkGrowth_*      — E2: encoding size/time vs bound
//	BenchmarkMemory_*      — E3: peak solver bytes vs bound
//	BenchmarkSquaring_*    — E4: deepening iteration counts
//	BenchmarkAblation_*    — E5: design-choice ablations
//	BenchmarkQBFWall_*     — E6: general QBF vs SAT on formula (2)
//	BenchmarkDeepen_*      — deepening cost: monolithic vs incremental,
//	                         and E11's geometric schedule
//	BenchmarkJSAT_*        — jSAT hot-path query throughput
//
// Run with: go test -bench=. -benchmem
package sebmc_test

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/cnf"
	"repro/internal/jsat"
	"repro/internal/model"
	"repro/internal/qbf"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// benchConfig bounds each solve tightly so benchmark iterations stay fast.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.TimeLimit = 300 * time.Millisecond
	return cfg
}

// table1Slice is a representative 2-bounds-per-family slice of the suite.
func table1Slice() []bench.Instance {
	var out []bench.Instance
	for _, fam := range bench.Families() {
		sys := fam.Build()
		out = append(out,
			bench.Instance{Family: fam.Name, Sys: sys, K: 5},
			bench.Instance{Family: fam.Name, Sys: sys, K: 12},
		)
	}
	return out
}

func benchTable1(b *testing.B, engine bench.EngineKind) {
	insts := table1Slice()
	cfg := benchConfig()
	b.ResetTimer()
	solved := 0
	for i := 0; i < b.N; i++ {
		solved = 0
		for _, inst := range insts {
			if bench.Run(inst, engine, cfg).Solved() {
				solved++
			}
		}
	}
	b.ReportMetric(float64(solved), "solved/26")
}

func BenchmarkTable1_SATUnroll(b *testing.B) { benchTable1(b, bench.EngineSAT) }
func BenchmarkTable1_JSAT(b *testing.B)      { benchTable1(b, bench.EngineJSAT) }
func BenchmarkTable1_QBFLinear(b *testing.B) { benchTable1(b, bench.EngineQBFLinear) }

func benchGrowth(b *testing.B, k int, encode func(*model.System, int) int) {
	sys := circuits.Counter(16, 60000)
	b.ResetTimer()
	clauses := 0
	for i := 0; i < b.N; i++ {
		clauses = encode(sys, k)
	}
	b.ReportMetric(float64(clauses), "clauses")
}

func BenchmarkGrowth_Unroll_k16(b *testing.B) {
	benchGrowth(b, 16, func(s *model.System, k int) int {
		return bmc.EncodeUnroll(s, k, tseitin.Full).F.NumClauses()
	})
}

func BenchmarkGrowth_Unroll_k256(b *testing.B) {
	benchGrowth(b, 256, func(s *model.System, k int) int {
		return bmc.EncodeUnroll(s, k, tseitin.Full).F.NumClauses()
	})
}

func BenchmarkGrowth_Linear_k16(b *testing.B) {
	benchGrowth(b, 16, func(s *model.System, k int) int {
		return bmc.EncodeLinear(s, k, tseitin.Full).P.Matrix.NumClauses()
	})
}

func BenchmarkGrowth_Linear_k256(b *testing.B) {
	benchGrowth(b, 256, func(s *model.System, k int) int {
		return bmc.EncodeLinear(s, k, tseitin.Full).P.Matrix.NumClauses()
	})
}

func BenchmarkGrowth_Squaring_k16(b *testing.B) {
	benchGrowth(b, 16, func(s *model.System, k int) int {
		enc, err := bmc.EncodeSquaring(s, k, tseitin.Full)
		if err != nil {
			b.Fatal(err)
		}
		return enc.P.Matrix.NumClauses()
	})
}

func BenchmarkGrowth_Squaring_k256(b *testing.B) {
	benchGrowth(b, 256, func(s *model.System, k int) int {
		enc, err := bmc.EncodeSquaring(s, k, tseitin.Full)
		if err != nil {
			b.Fatal(err)
		}
		return enc.P.Matrix.NumClauses()
	})
}

func benchMemory(b *testing.B, k int, engine bench.EngineKind) {
	sys := circuits.Counter(7, 100)
	cfg := benchConfig()
	cfg.TimeLimit = 2 * time.Second
	inst := bench.Instance{Family: sys.Name, Sys: sys, K: k}
	b.ResetTimer()
	peak := 0
	for i := 0; i < b.N; i++ {
		r := bench.Run(inst, engine, cfg)
		peak = r.PeakBytes
	}
	b.ReportMetric(float64(peak), "peak-bytes")
}

func BenchmarkMemory_SAT_k20(b *testing.B)   { benchMemory(b, 20, bench.EngineSAT) }
func BenchmarkMemory_SAT_k100(b *testing.B)  { benchMemory(b, 100, bench.EngineSAT) }
func BenchmarkMemory_JSAT_k20(b *testing.B)  { benchMemory(b, 20, bench.EngineJSAT) }
func BenchmarkMemory_JSAT_k100(b *testing.B) { benchMemory(b, 100, bench.EngineJSAT) }

func benchSquaring(b *testing.B, depth int, squaring bool) {
	bits := 1
	for (uint64(1) << uint(bits)) <= uint64(depth) {
		bits++
	}
	sys := circuits.Counter(bits+1, uint64(depth))
	check := func(m *model.System, k int) bmc.Result {
		return bmc.SolveUnroll(m, k, bmc.UnrollOptions{Semantics: bmc.AtMost})
	}
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		if squaring {
			iters = bmc.DeepenSquaring(sys, 2*depth, check).Iterations
		} else {
			iters = bmc.DeepenLinear(sys, 2*depth, check).Iterations
		}
	}
	b.ReportMetric(float64(iters), "iterations")
}

func BenchmarkSquaring_LinearSchedule_d40(b *testing.B)   { benchSquaring(b, 40, false) }
func BenchmarkSquaring_SquaringSchedule_d40(b *testing.B) { benchSquaring(b, 40, true) }

func benchAblationJSAT(b *testing.B, opts jsat.Options) {
	sys := circuits.FIFO(3)
	opts.SAT = sat.Options{ConflictBudget: 50_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := jsat.New(sys, opts)
		for _, k := range []int{4, 6, 8} {
			s.Check(k)
		}
	}
}

func BenchmarkAblation_JSATCacheOn(b *testing.B) { benchAblationJSAT(b, jsat.Options{}) }
func BenchmarkAblation_JSATCacheOff(b *testing.B) {
	benchAblationJSAT(b, jsat.Options{DisableCache: true})
}

func benchAblationSAT(b *testing.B, mode tseitin.Mode) {
	sys := circuits.Counter(10, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []int{10, 20} {
			bmc.SolveUnroll(sys, k, bmc.UnrollOptions{Mode: mode})
		}
	}
}

func BenchmarkAblation_Tseitin(b *testing.B) { benchAblationSAT(b, tseitin.Full) }
func BenchmarkAblation_PlaistedGreenbaum(b *testing.B) {
	benchAblationSAT(b, tseitin.PlaistedGreenbaum)
}

func benchQBFWall(b *testing.B, k int, viaQBF bool) {
	sys := circuits.Counter(2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if viaQBF {
			bmc.SolveLinear(sys, k, bmc.LinearOptions{QBF: qbf.Options{NodeBudget: 5_000_000}})
		} else {
			bmc.SolveUnroll(sys, k, bmc.UnrollOptions{})
		}
	}
}

func BenchmarkQBFWall_SAT_k4(b *testing.B) { benchQBFWall(b, 4, false) }
func BenchmarkQBFWall_SAT_k7(b *testing.B) { benchQBFWall(b, 7, false) }
func BenchmarkQBFWall_QBF_k4(b *testing.B) { benchQBFWall(b, 4, true) }
func BenchmarkQBFWall_QBF_k7(b *testing.B) { benchQBFWall(b, 7, true) }

// benchDeepen measures a full iterative-deepening run to a depth-64
// LFSR counterexample: monolithic re-unrolling (fresh formula and
// solver per bound) vs the persistent-solver incremental engine (one
// solver, one new frame per bound).
func benchDeepen(b *testing.B, incremental bool) {
	sys := bench.LFSRAtDepth(10, 0x204, 64)
	b.ResetTimer()
	var d bmc.DeepenResult
	clauses := 0
	for i := 0; i < b.N; i++ {
		if incremental {
			u := bmc.NewIncrementalUnroller(sys, bmc.IncrementalOptions{})
			d = u.Deepen(64)
			clauses = u.Stats().ClausesAdded
		} else {
			clauses = 0
			d = bmc.DeepenLinear(sys, 64, func(m *model.System, k int) bmc.Result {
				r := bmc.SolveUnroll(m, k, bmc.UnrollOptions{})
				clauses += r.Formula.Clauses
				return r
			})
		}
		if d.FoundAt != 64 {
			b.Fatalf("depth-64 LFSR counterexample found at %d, want 64", d.FoundAt)
		}
	}
	b.ReportMetric(float64(clauses), "cum-clauses")
}

func BenchmarkDeepen_Monolithic_d64(b *testing.B)  { benchDeepen(b, false) }
func BenchmarkDeepen_Incremental_d64(b *testing.B) { benchDeepen(b, true) }

// BenchmarkDeepen_Geometric is the E11 headline on the depth-512
// deep-bug family: the geometric schedule over the warm incremental
// engine — doubling to the counterexample, bisecting back to the exact
// depth — against 513 linear invocations.
func BenchmarkDeepen_Geometric(b *testing.B) {
	sys := circuits.DeepCounter(512)
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		d := bmc.DeepenGeometricIncremental(sys, 512, 0, bmc.IncrementalOptions{})
		if d.FoundAt != 512 {
			b.Fatalf("depth-512 counterexample found at %d, want 512", d.FoundAt)
		}
		iters = d.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

// Substrate micro-benchmarks: the hot paths under everything above.

// benchPropagation loads one fixed CNF into a fresh solver per iteration,
// solves it, and reports raw unit-propagation throughput — the number the
// arena clause layout targets. The formula is encoded once outside the
// timed loop so only solver work is measured.
func benchPropagation(b *testing.B, f *cnf.Formula) {
	b.ReportAllocs()
	b.ResetTimer()
	var props int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		s := sat.New(sat.Options{})
		for s.NumVars() < f.NumVars() {
			s.NewVar()
		}
		for _, c := range f.Clauses {
			if !s.AddClause(c...) {
				break
			}
		}
		s.Solve()
		props += s.Stats.Propagations
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(props)/sec, "props/s")
	}
}

// BenchmarkPropagation_LFSR_k64 is the depth-64 LFSR deepening workload's
// final (satisfiable) bound, solved monolithically.
func BenchmarkPropagation_LFSR_k64(b *testing.B) {
	sys := bench.LFSRAtDepth(10, 0x204, 64)
	benchPropagation(b, bmc.EncodeUnroll(sys, 64, tseitin.Full).F)
}

// BenchmarkPropagation_Table1Counter is a Table-1 suite-slice instance:
// the deep counter family at a combinatorially non-trivial bound.
func BenchmarkPropagation_Table1Counter(b *testing.B) {
	sys := circuits.Counter(10, 500)
	benchPropagation(b, bmc.EncodeUnroll(sys, 24, tseitin.Full).F)
}

func BenchmarkSAT_Pigeonhole7(b *testing.B) {
	const n = 7
	for i := 0; i < b.N; i++ {
		s := sat.New(sat.Options{})
		p := make([][]cnf.Var, n+2)
		for x := 1; x <= n+1; x++ {
			p[x] = make([]cnf.Var, n+1)
			for y := 1; y <= n; y++ {
				p[x][y] = s.NewVar()
			}
		}
		for x := 1; x <= n+1; x++ {
			lits := make([]cnf.Lit, 0, n)
			for y := 1; y <= n; y++ {
				lits = append(lits, cnf.PosLit(p[x][y]))
			}
			s.AddClause(lits...)
		}
		for y := 1; y <= n; y++ {
			for x1 := 1; x1 <= n+1; x1++ {
				for x2 := x1 + 1; x2 <= n+1; x2++ {
					s.AddClause(cnf.NegLit(p[x1][y]), cnf.NegLit(p[x2][y]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("PHP must be unsat")
		}
	}
}

func jsatDeepCounterWorkload(tb testing.TB, sys *model.System) {
	s := jsat.New(sys, jsat.Options{})
	if s.Check(120).Status != bmc.Reachable {
		tb.Fatal("deep counter must be reachable")
	}
}

func BenchmarkJSAT_DeepCounter(b *testing.B) {
	sys := circuits.Counter(8, 120)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		jsatDeepCounterWorkload(b, sys)
	}
}

// The jSAT hot-path benchmarks: jSAT's DFS inner loop is thousands of
// tiny incremental queries sharing an assumption prefix. queries/s and
// allocs/op here are the numbers the allocation-free core targets
// (BENCH_4.json records the before/after).

// benchJSATQueries reports aggregate query throughput of fn, which
// returns the cumulative query count of one iteration.
func benchJSATQueries(b *testing.B, fn func() int64) {
	b.ReportAllocs()
	b.ResetTimer()
	var queries int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		queries += fn()
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(queries)/sec, "queries/s")
	}
}

// jsatLFSR64DeepenWorkload is the depth-64 LFSR deepening run: one
// solver checks every bound 1..64 (Unreachable until exactly 64). The
// hopeless cache grows to O(k²) entries across the run, so any
// per-query walk of the cache shows up directly in queries/s. Shared by
// the benchmark and the allocs/op regression gate.
func jsatLFSR64DeepenWorkload(tb testing.TB, sys *model.System) int64 {
	s := jsat.New(sys, jsat.Options{Semantics: bmc.Exact})
	for k := 1; k <= 64; k++ {
		st := s.Check(k).Status
		if want := k == 64; (st == bmc.Reachable) != want {
			tb.Fatalf("lfsr k=%d: %v", k, st)
		}
	}
	return s.Stats.Queries
}

func BenchmarkJSAT_LFSR64Deepen(b *testing.B) {
	sys := bench.LFSRAtDepth(10, 0x204, 64)
	benchJSATQueries(b, func() int64 { return jsatLFSR64DeepenWorkload(b, sys) })
}

// jsatFIFOEnumWorkload is a branching UNSAT-ish search: wide successor
// enumeration at every frame, cache-hit heavy — the assumption-prefix
// reuse workload.
func jsatFIFOEnumWorkload(tb testing.TB, sys *model.System) int64 {
	s := jsat.New(sys, jsat.Options{Semantics: bmc.Exact})
	for _, k := range []int{4, 6, 8} {
		if s.Check(k).Status == bmc.Unknown {
			tb.Fatal("fifo: unexpected Unknown")
		}
	}
	return s.Stats.Queries
}

func BenchmarkJSAT_FIFOEnum(b *testing.B) {
	sys := circuits.FIFO(3)
	benchJSATQueries(b, func() int64 { return jsatFIFOEnumWorkload(b, sys) })
}

// BenchmarkJSAT_Table1Slice sweeps the jSAT-friendly Table-1 families at
// two bounds each, fresh solver per instance — the end-to-end E1 shape.
func BenchmarkJSAT_Table1Slice(b *testing.B) {
	var insts []bench.Instance
	for _, fam := range bench.Families() {
		switch fam.Name {
		case "counter", "counteren", "tokenring", "lfsr", "traffic", "fifo":
			sys := fam.Build()
			insts = append(insts,
				bench.Instance{Family: fam.Name, Sys: sys, K: 5},
				bench.Instance{Family: fam.Name, Sys: sys, K: 12})
		}
	}
	cfg := benchConfig()
	benchJSATQueries(b, func() int64 {
		var queries int64
		for _, inst := range insts {
			d := time.Now().Add(cfg.TimeLimit)
			s := jsat.New(inst.Sys, jsat.Options{
				Semantics:   bmc.Exact,
				QueryBudget: cfg.JSATQueries,
				Deadline:    d,
				SAT:         sat.Options{ConflictBudget: cfg.JSATConflictsPerQuery, Deadline: d},
			})
			s.Check(inst.K)
			queries += s.Stats.Queries
		}
		return queries
	})
}

func BenchmarkUnroll_Encode_k64(b *testing.B) {
	sys := circuits.Counter(16, 60000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bmc.EncodeUnroll(sys, 64, tseitin.Full)
	}
}
