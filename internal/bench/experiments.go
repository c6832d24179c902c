package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/jsat"
	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/qbf"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// Table1 is experiment E1: the paper's headline comparison — how many of
// the 234 instances each method solves within the per-instance budget.
// Paper numbers (300 s / 1 GB, Intel test cases): SAT 184, jSAT 143,
// general-purpose QBF 3.
type Table1 struct {
	Config  Config
	Total   int
	Solved  map[EngineKind]int
	ByFam   map[string]map[EngineKind]int
	Results []InstanceResult
}

// RunTable1 runs the given engines over the whole suite. With
// cfg.Jobs > 1 the (instance, engine) runs are spread over that many
// workers through the work-stealing pool — results and aggregation stay
// in deterministic suite order; per-instance wall-clock then reflects a
// loaded machine, so keep Jobs at 1 when timing engines against each
// other.
func RunTable1(cfg Config, engines ...EngineKind) *Table1 {
	if len(engines) == 0 {
		engines = []EngineKind{EngineSAT, EngineJSAT, EngineQBFLinear}
	}
	suite := Suite()
	t := &Table1{
		Config: cfg,
		Total:  len(suite),
		Solved: make(map[EngineKind]int),
		ByFam:  make(map[string]map[EngineKind]int),
	}
	type pair struct {
		inst Instance
		eng  EngineKind
	}
	var pairs []pair
	for _, inst := range suite {
		for _, eng := range engines {
			pairs = append(pairs, pair{inst, eng})
		}
	}
	workers := cfg.Jobs
	if workers < 1 {
		workers = 1
	}
	t.Results = portfolio.Map(workers, pairs, func(_ int, p pair) InstanceResult {
		return Run(p.inst, p.eng, cfg)
	})
	for i, r := range t.Results {
		if r.Solved() {
			t.Solved[pairs[i].eng]++
			fam := t.ByFam[pairs[i].inst.Family]
			if fam == nil {
				fam = make(map[EngineKind]int)
				t.ByFam[pairs[i].inst.Family] = fam
			}
			fam[pairs[i].eng]++
		}
	}
	return t
}

// Write renders the table.
func (t *Table1) Write(w io.Writer, engines ...EngineKind) {
	if len(engines) == 0 {
		engines = []EngineKind{EngineSAT, EngineJSAT, EngineQBFLinear}
	}
	fmt.Fprintf(w, "E1 / Table 1 — instances solved of %d (budget: %v per instance)\n", t.Total, t.Config.TimeLimit)
	fmt.Fprintf(w, "paper reference: sat-unroll 184/234, jsat 143/234, general QBF 3/234\n\n")
	fmt.Fprintf(w, "%-14s", "family")
	for _, e := range engines {
		fmt.Fprintf(w, "%14s", e)
	}
	fmt.Fprintln(w)
	// List every family, including those with zero solved instances.
	var fams []string
	for _, fam := range Families() {
		fams = append(fams, fam.Name)
	}
	sort.Strings(fams)
	perFam := t.Total / len(Families())
	for _, f := range fams {
		fmt.Fprintf(w, "%-14s", f)
		for _, e := range engines {
			fmt.Fprintf(w, "%11d/%2d", t.ByFam[f][e], perFam)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-14s", "TOTAL")
	for _, e := range engines {
		fmt.Fprintf(w, "%10d/%3d", t.Solved[e], t.Total)
	}
	fmt.Fprintln(w)
}

// GrowthRow is one bound of experiment E2 (figure A): formula size per
// encoding as the bound grows.
type GrowthRow struct {
	K        int
	Unrolled bmc.FormulaStats
	Linear   bmc.FormulaStats
	Squaring bmc.FormulaStats // zero when K is not a power of two
}

// RunGrowth measures encoding sizes on a representative system.
func RunGrowth(sys *model.System, bounds []int, mode tseitin.Mode) []GrowthRow {
	var rows []GrowthRow
	for _, k := range bounds {
		row := GrowthRow{K: k}
		row.Unrolled = bmc.EncodeUnroll(sys, k, mode).Stats()
		row.Linear = bmc.EncodeLinear(sys, k, mode).Stats()
		if k&(k-1) == 0 {
			if se, err := bmc.EncodeSquaring(sys, k, mode); err == nil {
				row.Squaring = se.Stats()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteGrowth renders E2.
func WriteGrowth(w io.Writer, sysName string, rows []GrowthRow) {
	fmt.Fprintf(w, "E2 / Figure A — formula size vs bound on %s\n", sysName)
	fmt.Fprintf(w, "paper claim: (1) grows by |TR| per step; (2) by O(n) per step; (3) by O(n) per doubling\n\n")
	fmt.Fprintf(w, "%6s | %12s %12s | %12s %12s %5s | %12s %12s %6s\n",
		"k", "(1) clauses", "(1) bytes", "(2) clauses", "(2) bytes", "alt", "(3) clauses", "(3) bytes", "alt")
	for _, r := range rows {
		sq1, sq2, sq3 := "-", "-", "-"
		if r.Squaring.Clauses > 0 {
			sq1 = fmt.Sprintf("%d", r.Squaring.Clauses)
			sq2 = fmt.Sprintf("%d", r.Squaring.Bytes)
			sq3 = fmt.Sprintf("%d", r.Squaring.Alternations)
		}
		fmt.Fprintf(w, "%6d | %12d %12d | %12d %12d %5d | %12s %12s %6s\n",
			r.K, r.Unrolled.Clauses, r.Unrolled.Bytes,
			r.Linear.Clauses, r.Linear.Bytes, r.Linear.Alternations,
			sq1, sq2, sq3)
	}
}

// MemoryRow is one bound of experiment E3 (figure B): peak solver memory
// of classical SAT BMC vs jSAT as the bound grows.
type MemoryRow struct {
	K          int
	SATBytes   int
	JSATBytes  int
	SATStatus  bmc.Status
	JSATStatus bmc.Status
}

// RunMemory measures solver clause-database growth on a deep
// deterministic system, where both engines succeed and the space
// difference is purely the encoding's.
func RunMemory(sys *model.System, bounds []int, cfg Config) []MemoryRow {
	var rows []MemoryRow
	for _, k := range bounds {
		inst := Instance{Family: sys.Name, Sys: sys, K: k}
		rs := Run(inst, EngineSAT, cfg)
		rj := Run(inst, EngineJSAT, cfg)
		rows = append(rows, MemoryRow{
			K: k, SATBytes: rs.PeakBytes, JSATBytes: rj.PeakBytes,
			SATStatus: rs.Status, JSATStatus: rj.Status,
		})
	}
	return rows
}

// WriteMemory renders E3.
func WriteMemory(w io.Writer, sysName string, rows []MemoryRow) {
	fmt.Fprintf(w, "E3 / Figure B — peak solver memory vs bound on %s\n", sysName)
	fmt.Fprintf(w, "paper claim: unrolled-SAT memory grows with k; jSAT holds one TR copy\n\n")
	fmt.Fprintf(w, "%6s | %14s %-12s | %14s %-12s\n", "k", "sat bytes", "status", "jsat bytes", "status")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d | %14d %-12v | %14d %-12v\n", r.K, r.SATBytes, r.SATStatus, r.JSATBytes, r.JSATStatus)
	}
}

// SquaringRow is one target depth of experiment E4 (figure C): iterations
// needed by linear deepening vs iterative squaring to find the
// counterexample (or exhaust the bound range).
type SquaringRow struct {
	Depth              int
	LinearIterations   int
	SquaringIterations int
	LinearFound        int
	SquaringFound      int
}

// RunSquaring compares deepening schedules on counters with
// counterexamples at the given depths. The underlying bound checker is
// the SAT engine under at-most-k semantics for both schedules — the
// compared quantity is the number of iterations of the outer loop, which
// is a property of the schedule, not of the solver.
func RunSquaring(depths []int, cfg Config) []SquaringRow {
	var rows []SquaringRow
	for _, d := range depths {
		bits := 1
		for (uint64(1) << uint(bits)) <= uint64(d) {
			bits++
		}
		sys := circuits.Counter(bits+1, uint64(d))
		check := func(m *model.System, k int) bmc.Result {
			return bmc.SolveUnroll(m, k, bmc.UnrollOptions{
				Semantics: bmc.AtMost,
				SAT:       sat.Options{ConflictBudget: cfg.SATConflicts, Deadline: cfg.deadline()},
			})
		}
		maxBound := 2 * d
		lin := bmc.DeepenLinear(sys, maxBound, check)
		sq := bmc.DeepenSquaring(sys, maxBound, check)
		rows = append(rows, SquaringRow{
			Depth:              d,
			LinearIterations:   lin.Iterations,
			SquaringIterations: sq.Iterations,
			LinearFound:        lin.FoundAt,
			SquaringFound:      sq.FoundAt,
		})
	}
	return rows
}

// WriteSquaring renders E4.
func WriteSquaring(w io.Writer, rows []SquaringRow) {
	fmt.Fprintf(w, "E4 / Figure C — deepening iterations to find a depth-d counterexample\n")
	fmt.Fprintf(w, "paper claim: squaring needs O(log d) ~ #state-bits iterations, linear needs d+1\n\n")
	fmt.Fprintf(w, "%8s | %10s %10s | %10s %10s\n", "depth", "lin iters", "found@", "sq iters", "found@")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d | %10d %10d | %10d %10d\n",
			r.Depth, r.LinearIterations, r.LinearFound, r.SquaringIterations, r.SquaringFound)
	}
}

// AblationResult is experiment E5: effect of individual design choices.
type AblationResult struct {
	Name      string
	Solved    int
	Total     int
	Elapsed   time.Duration
	Conflicts int64 // cumulative CDCL conflicts (SAT-family rows)
}

// RunAblations measures design-choice impact on a fixed slice of the
// suite: jSAT hopeless-cache on/off, exact vs at-most semantics for the
// cache, and Tseitin vs Plaisted–Greenbaum.
func RunAblations(cfg Config) []AblationResult {
	suite := Suite()
	// A slice with both SAT and UNSAT instances, small enough to repeat.
	var insts []Instance
	for _, in := range suite {
		switch in.Family {
		case "counter", "counteren", "fifo", "traffic", "mutex":
			if in.K <= 18 {
				insts = append(insts, in)
			}
		}
	}
	var out []AblationResult

	runJSAT := func(name string, opt func(*jsat.Options)) {
		start := time.Now()
		solved := 0
		for _, in := range insts {
			o := jsat.Options{
				Semantics:   cfg.Semantics,
				QueryBudget: cfg.JSATQueries,
				Deadline:    cfg.deadline(),
				SAT:         sat.Options{ConflictBudget: cfg.JSATConflictsPerQuery, Deadline: cfg.deadline()},
			}
			if opt != nil {
				opt(&o)
			}
			if s := jsat.New(in.Sys, o); s.Check(in.K).Status != bmc.Unknown {
				solved++
			}
		}
		out = append(out, AblationResult{Name: name, Solved: solved, Total: len(insts), Elapsed: time.Since(start)})
	}
	runJSAT("jsat/cache", nil)
	runJSAT("jsat/no-cache", func(o *jsat.Options) { o.DisableCache = true })
	runJSAT("jsat/atmost-cache", func(o *jsat.Options) { o.Semantics = bmc.AtMost })

	// CNF ablations run on a combinatorially hard workload where
	// encoding differences actually show: embedded 22-bit factoring
	// plus the deep counter family.
	hard := []Instance{
		{Family: "factor22", Sys: circuits.Factorizer(22, 2039*2029), K: 1},
		{Family: "factor22", Sys: circuits.Factorizer(22, 2039*2029), K: 3},
		{Family: "prime21", Sys: circuits.Factorizer(21, 2097143), K: 1},
		{Family: "counter", Sys: circuits.Counter(10, 500), K: 20},
	}
	runSAT := func(name string, mode tseitin.Mode) {
		start := time.Now()
		solved := 0
		var conflicts int64
		for _, in := range hard {
			r := bmc.SolveUnroll(in.Sys, in.K, bmc.UnrollOptions{
				Mode:      mode,
				SAT:       sat.Options{ConflictBudget: cfg.SATConflicts, Deadline: cfg.deadline()},
				Semantics: cfg.Semantics,
			})
			if r.Status != bmc.Unknown {
				solved++
			}
			conflicts += r.Conflicts
		}
		out = append(out, AblationResult{Name: name, Solved: solved, Total: len(hard), Elapsed: time.Since(start), Conflicts: conflicts})
	}
	runSAT("sat/tseitin", tseitin.Full)
	runSAT("sat/plaisted-greenbaum", tseitin.PlaistedGreenbaum)
	return out
}

// WriteAblations renders E5.
func WriteAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintf(w, "E5 — design-choice ablations\n")
	fmt.Fprintf(w, "jsat rows: fixed suite slice; sat rows: hard factoring workload\n\n")
	fmt.Fprintf(w, "%-24s %10s %12s %12s\n", "configuration", "solved", "elapsed", "conflicts")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d/%3d %12v %12d\n", r.Name, r.Solved, r.Total, r.Elapsed.Round(time.Millisecond), r.Conflicts)
	}
}

// QBFWallRow is experiment E6: the general-purpose QBF solver against
// formula (2) on a tiny model, versus SAT on formula (1) — reproducing
// the observation that motivated jSAT.
type QBFWallRow struct {
	K          int
	SATStatus  bmc.Status
	SATTime    time.Duration
	QBFStatus  bmc.Status
	QBFTime    time.Duration
	QBFNodes   int64
	Agreement  bool
	OracleWant bool
}

// RunQBFWall runs the comparison on a 2-bit counter (small enough that
// the explicit oracle verifies every answer).
func RunQBFWall(maxK int, cfg Config) []QBFWallRow {
	sys := circuits.Counter(2, 2)
	oracle := explicit.New(sys)
	var rows []QBFWallRow
	for k := 0; k <= maxK; k++ {
		want := oracle.ReachableExact(k)
		t0 := time.Now()
		rs := bmc.SolveUnroll(sys, k, bmc.UnrollOptions{
			SAT: sat.Options{ConflictBudget: cfg.SATConflicts, Deadline: cfg.deadline()}})
		satTime := time.Since(t0)
		t1 := time.Now()
		rq := bmc.SolveLinear(sys, k, bmc.LinearOptions{
			QBF: qbf.Options{NodeBudget: cfg.QBFNodes, Deadline: cfg.deadline()}})
		qbfTime := time.Since(t1)
		rows = append(rows, QBFWallRow{
			K: k, SATStatus: rs.Status, SATTime: satTime,
			QBFStatus: rq.Status, QBFTime: qbfTime, QBFNodes: rq.Nodes,
			Agreement:  rq.Status == bmc.Unknown || (rq.Status == bmc.Reachable) == want,
			OracleWant: want,
		})
	}
	return rows
}

// WriteQBFWall renders E6.
func WriteQBFWall(w io.Writer, rows []QBFWallRow) {
	fmt.Fprintf(w, "E6 — general-purpose QBF on formula (2) vs SAT on formula (1), 2-bit counter\n")
	fmt.Fprintf(w, "paper observation: QBF solvers fail on (2) while SAT dispatches (1) in seconds\n\n")
	fmt.Fprintf(w, "%4s | %-12s %10s | %-12s %12s %12s\n", "k", "sat", "time", "qbf", "time", "nodes")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d | %-12v %10v | %-12v %12v %12d\n",
			r.K, r.SATStatus, r.SATTime.Round(time.Microsecond),
			r.QBFStatus, r.QBFTime.Round(time.Microsecond), r.QBFNodes)
	}
}
