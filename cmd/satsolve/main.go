// Command satsolve is a standalone DIMACS CNF solver built on the
// library's CDCL engine.
//
// Usage:
//
//	satsolve [-timeout 60s] [file.cnf]
//
// Reads from stdin when no file is given. Output follows the SAT
// competition convention: an "s" status line and, for satisfiable
// instances, "v" value lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cnf"
	"repro/internal/sat"
)

func main() {
	var (
		timeout = flag.Duration("timeout", 0, "solve timeout (0 = none)")
		stats   = flag.Bool("stats", false, "print solver statistics")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	formula, err := cnf.ParseDIMACS(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var opts sat.Options
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}
	s := sat.New(opts)
	s.AddFormula(formula)
	start := time.Now()
	res := s.Solve()
	if *stats {
		fmt.Printf("c conflicts=%d decisions=%d propagations=%d restarts=%d clause-db=%dB time=%v\n",
			s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Propagations, s.Stats.Restarts,
			s.ClauseDBBytes(), time.Since(start).Round(time.Millisecond))
	}
	switch res {
	case sat.Sat:
		fmt.Println("s SATISFIABLE")
		line := "v"
		for v := cnf.Var(1); int(v) <= formula.NumVars(); v++ {
			d := int(v)
			if s.Value(v) != cnf.True {
				d = -d
			}
			line += fmt.Sprintf(" %d", d)
			if len(line) > 70 {
				fmt.Println(line)
				line = "v"
			}
		}
		fmt.Println(line + " 0")
		os.Exit(10)
	case sat.Unsat:
		fmt.Println("s UNSATISFIABLE")
		os.Exit(20)
	default:
		fmt.Println("s UNKNOWN")
		os.Exit(0)
	}
}
