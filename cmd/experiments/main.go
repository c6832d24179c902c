// Command experiments regenerates the tables and figures of the paper's
// evaluation section, plus the deep-counterexample crossover (see the
// README's "Benchmarks and experiments" section).
//
// Usage:
//
//	experiments -e table1            # E1: solved-instance comparison
//	experiments -e growth            # E2: formula size vs bound
//	experiments -e memory            # E3: peak solver memory vs bound
//	experiments -e squaring          # E4: deepening iteration counts
//	experiments -e ablation          # E5: design-choice ablations
//	experiments -e qbfwall           # E6: general QBF vs SAT on tiny model
//	experiments -e deepbug           # E11: deep-counterexample crossover
//	experiments -e all               # everything
//	    [-timelimit 1s] [-csv results.csv] [-jobs N]
//
// Any other -e name exits 2 and lists the names.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/circuits"
)

var csvPath = flag.String("csv", "", "write per-instance table1 results as CSV")

// experiments lists every experiment -e accepts, in the order -e all
// runs them.
var experiments = []struct {
	name string
	run  func(cfg bench.Config)
}{
	{"table1", func(cfg bench.Config) {
		t := bench.RunTable1(cfg)
		t.Write(os.Stdout)
		if *csvPath != "" {
			if err := writeCSV(*csvPath, t); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("per-instance results written to %s\n", *csvPath)
		}
	}},
	{"growth", func(cfg bench.Config) {
		sys := circuits.Counter(16, 60000)
		rows := bench.RunGrowth(sys, []int{1, 2, 4, 8, 16, 32, 64, 128, 256}, cfg.Mode)
		bench.WriteGrowth(os.Stdout, sys.Name, rows)
	}},
	{"memory", func(cfg bench.Config) {
		sys := circuits.Counter(7, 100)
		rows := bench.RunMemory(sys, []int{10, 20, 40, 60, 80, 100}, cfg)
		bench.WriteMemory(os.Stdout, sys.Name, rows)
	}},
	{"squaring", func(cfg bench.Config) {
		bench.WriteSquaring(os.Stdout, bench.RunSquaring([]int{5, 10, 20, 40, 80}, cfg))
	}},
	{"ablation", func(cfg bench.Config) {
		bench.WriteAblations(os.Stdout, bench.RunAblations(cfg))
	}},
	{"qbfwall", func(cfg bench.Config) {
		bench.WriteQBFWall(os.Stdout, bench.RunQBFWall(8, cfg))
	}},
	{"deepbug", func(cfg bench.Config) {
		bench.WriteE11(os.Stdout, bench.RunE11(cfg))
	}},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	list := strings.Join(names, ", ") + ", all"
	var (
		exp       = flag.String("e", "all", "experiment: "+list)
		timeLimit = flag.Duration("timelimit", time.Second, "per-instance time budget")
		jobs      = flag.Int("jobs", 1, "parallel workers for the table1 sweep (timings reflect a loaded machine when > 1)")
	)
	flag.Parse()
	if *exp != "all" && !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; want one of %s\n", *exp, list)
		os.Exit(2)
	}

	cfg := bench.DefaultConfig()
	cfg.TimeLimit = *timeLimit
	cfg.Jobs = *jobs
	for _, e := range experiments {
		if *exp == e.name || *exp == "all" {
			e.run(cfg)
			fmt.Println()
		}
	}
}

func writeCSV(path string, t *bench.Table1) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write([]string{"family", "k", "engine", "status", "elapsed_ms", "conflicts", "nodes", "vars", "clauses"}); err != nil {
		return err
	}
	for _, r := range t.Results {
		rec := []string{
			r.Instance.Family,
			fmt.Sprint(r.Instance.K),
			r.Engine.String(),
			r.Status.String(),
			fmt.Sprint(r.Elapsed.Milliseconds()),
			fmt.Sprint(r.Conflicts),
			fmt.Sprint(r.Nodes),
			fmt.Sprint(r.Vars),
			fmt.Sprint(r.Clauses),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
