// Package bench assembles the evaluation workload of the reproduction —
// thirteen circuit families standing in for the paper's thirteen
// proprietary Intel test cases, eighteen bounds each, 234 bounded
// reachability instances in total — and runs the engines over it under
// configurable budgets, regenerating every table and figure of the
// paper's evaluation section (see the README's "Benchmarks and
// experiments" section).
package bench

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/model"
)

// Bounds are the eighteen bounds checked per family: 13 × 18 = 234
// instances, matching the paper's instance count.
var Bounds = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 25, 30}

// Instance is one bounded reachability problem.
type Instance struct {
	Family string
	Sys    *model.System
	K      int
}

// Name returns a stable instance identifier.
func (in Instance) Name() string { return fmt.Sprintf("%s@k%d", in.Family, in.K) }

// Family is one benchmark circuit family.
type Family struct {
	Name  string
	Build func() *model.System
	// Note describes the family's role in the workload mix.
	Note string
}

// Families returns the thirteen benchmark families. Sizes are chosen so
// that the relative difficulty ordering of the paper's evaluation —
// SAT-on-(1) ahead of jSAT ahead of general QBF — is exercised within
// laptop-scale budgets.
func Families() []Family {
	return []Family{
		{"counter", func() *model.System { return circuits.Counter(8, 12) },
			"deterministic, deep counterexample at k=12"},
		{"counteren", func() *model.System { return circuits.CounterEnable(8, 10) },
			"input-gated counter, counterexamples at k≥10"},
		{"tokenring", func() *model.System { return circuits.TokenRing(12) },
			"one-hot ring, counterexample at k=11 then every 12"},
		{"lfsr", func() *model.System { return LFSRAtDepth(10, 0x204, 15) },
			"Galois LFSR, deterministic counterexample at k=15"},
		{"factor", func() *model.System { return circuits.Factorizer(28, 268140589) },
			"embedded 28-bit factoring (16381×16369): satisfiable but combinatorially hard"},
		{"parityguard", func() *model.System { return circuits.ParityGuard(10) },
			"inductively safe, 2^10-wide successor fan-out (hostile to DFS)"},
		{"traffic", func() *model.System { return circuits.TrafficLight(4) },
			"safe controller, unsatisfiable at every bound"},
		{"arbiter", func() *model.System { return circuits.Arbiter(10) },
			"safe round-robin arbiter with captured requests, 2^10-wide fan-out"},
		{"mutex", func() *model.System { return circuits.MutexBroken(4, 6) },
			"injected bug behind a saturating counter plus noise capture, counterexample at k=17"},
		{"fifo", func() *model.System { return circuits.WithNoise(circuits.FIFO(4), 6) },
			"queue occupancy overflow at k=15, plus 2^6-wide noise capture"},
		{"handshake", func() *model.System { return circuits.Handshake(4) },
			"safe 4-phase handshake with transaction counter"},
		{"pipeline", func() *model.System { return circuits.Pipeline(10) },
			"valid-bit pipeline fill, counterexamples at k≥10"},
		{"prime", func() *model.System { return circuits.Factorizer(26, 67108859) },
			"embedded 26-bit primality (2^26-5): unsatisfiable and combinatorially hard"},
	}
}

// Suite instantiates all 234 instances.
func Suite() []Instance {
	var out []Instance
	for _, fam := range Families() {
		sys := fam.Build()
		for _, k := range Bounds {
			out = append(out, Instance{Family: fam.Name, Sys: sys, K: k})
		}
	}
	return out
}

// LFSRAtDepth builds the LFSR family with the bad target set to the
// register value reached after exactly `depth` steps from the seed, so
// the instance has a known deterministic counterexample depth. The root
// benchmarks' deepening and jSAT workloads use its depth-64 variant.
// It is circuits.DeepLFSR, which additionally verifies by simulation
// that `depth` really is the target state's first occurrence.
func LFSRAtDepth(n int, taps uint64, depth int) *model.System {
	return circuits.DeepLFSR(n, taps, depth)
}
