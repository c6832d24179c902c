package bench

// Experiment E11: the deep-counterexample crossover. The deep-bug
// families plant their shortest counterexample at depth 500–4096 —
// exactly the regime where k → k+1 deepening needs one solver
// invocation per bound and falls off a cliff. Three schedules compete
// on each instance, every arm under the same per-arm budget:
//
//   - linear: the warm incremental engine stepping k → k+1 (exact-k);
//   - geometric: the same warm engine under at-most-k, doubling the
//     bound and binary-searching the last interval — the same FoundAt
//     in O(log depth) invocations. Each probe asks for a bad state at
//     some frame of the plain unrolling (no self-loop), so on these
//     deterministic families it decides by propagation, as linear's
//     exact-k queries do;
//   - squaring: the paper's formula (3) on the QBF engine, bounds
//     0,1,2,4,8,… under at-most-k. O(log depth) bounds too, but each
//     handed to a general-purpose QBF solver — the wall the paper's
//     evaluation documents, reproduced here at depth.
//
// BENCH_6.json records the crossover the three columns draw, measured
// when the geometric arm still ran on the self-looped unrolling and
// paid for its skipped bounds with harder queries.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/qbf"
	"repro/internal/sat"
)

// E11Row is one (instance, schedule) cell of the crossover table.
type E11Row struct {
	Family     string
	Depth      int // planted shortest-counterexample depth
	Schedule   string
	Status     bmc.Status
	FoundAt    int
	Iterations int
	Elapsed    time.Duration
}

// E11Instances builds the deep-bug workload: counters and full-period
// LFSRs with the bad state planted at depths from well inside linear
// reach up to 4094 (the 12-bit LFSR's orbit minus one).
func E11Instances() []Instance {
	var out []Instance
	for _, d := range []int{8, 64, 512} {
		out = append(out, Instance{Family: "deep-counter", Sys: circuits.DeepCounter(uint64(d)), K: d})
	}
	for _, d := range []int{512, 2048} {
		out = append(out, Instance{Family: "deep-lfsr", Sys: circuits.DeepLFSR(12, 0x1053, d), K: d})
	}
	return out
}

// RunE11 runs the three deepening schedules over the deep-bug workload.
func RunE11(cfg Config) []E11Row {
	var rows []E11Row
	for _, inst := range E11Instances() {
		rows = append(rows,
			e11Arm(inst, "linear", func(sys *model.System, depth int) bmc.DeepenResult {
				return bmc.DeepenIncremental(sys, depth, bmc.IncrementalOptions{
					SAT: sat.Options{ConflictBudget: cfg.SATConflicts, Deadline: cfg.deadline()},
				})
			}),
			e11Arm(inst, "geometric", func(sys *model.System, depth int) bmc.DeepenResult {
				return bmc.DeepenGeometricIncremental(sys, depth, 0, bmc.IncrementalOptions{
					SAT: sat.Options{ConflictBudget: cfg.SATConflicts, Deadline: cfg.deadline()},
				})
			}),
			e11Arm(inst, "squaring", func(sys *model.System, depth int) bmc.DeepenResult {
				opts := bmc.SquaringOptions{
					Semantics: bmc.AtMost,
					QBF:       qbf.Options{NodeBudget: cfg.QBFNodes, Deadline: cfg.deadline()},
				}
				return bmc.DeepenSquaring(sys, depth, func(m *model.System, k int) bmc.Result {
					r, err := bmc.SolveSquaring(m, k, opts)
					if err != nil {
						return bmc.Result{Status: bmc.Unknown, K: k}
					}
					return r
				})
			}),
		)
	}
	return rows
}

func e11Arm(inst Instance, schedule string, run func(*model.System, int) bmc.DeepenResult) E11Row {
	start := time.Now()
	d := run(inst.Sys, inst.K)
	return E11Row{
		Family:     inst.Family,
		Depth:      inst.K,
		Schedule:   schedule,
		Status:     d.Status,
		FoundAt:    d.FoundAt,
		Iterations: d.Iterations,
		Elapsed:    time.Since(start),
	}
}

// WriteE11 renders the crossover table.
func WriteE11(w io.Writer, rows []E11Row) {
	fmt.Fprintf(w, "E11 — deep-counterexample crossover: solver invocations and wall-clock to find a depth-d bug\n")
	fmt.Fprintf(w, "linear = warm incremental k→k+1; geometric = warm incremental k→2k + bisection (at-most-k);\n")
	fmt.Fprintf(w, "squaring = formula (3) on the QBF engine, bounds 0,1,2,4,… (at-most-k)\n\n")
	fmt.Fprintf(w, "%-14s %6s | %-10s %12s %8s %8s %10s\n",
		"family", "depth", "schedule", "status", "found@", "iters", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %6d | %-10s %12v %8d %8d %10v\n",
			r.Family, r.Depth, r.Schedule, r.Status, r.FoundAt, r.Iterations, r.Elapsed.Round(time.Millisecond))
	}
}
