package sebmc_test

// The cone-of-influence contract: every engine encodes only the latches
// and inputs the bad predicate can see, yet every answer names the
// caller's model and every witness replays on it.

import (
	"fmt"
	"sync"
	"testing"

	sebmc "repro"
	"repro/internal/aig"
	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/explicit"
	"repro/internal/tseitin"
)

// coneCase is a model with latches and inputs outside its bad
// predicate's cone of influence.
type coneCase struct {
	name    string
	build   func() *sebmc.System
	latches int // latches the reduction keeps
	qbf     bool
}

func coneCases() []coneCase {
	return []coneCase{
		{"fifo", func() *sebmc.System { return circuits.WithNoise(circuits.FIFO(4), 6) }, 4, false},
		{"mutex", func() *sebmc.System { return circuits.MutexBroken(4, 6) }, 7, false},
		{"handshake", func() *sebmc.System { return circuits.Handshake(4) }, 3, false},
		// Small enough for the QBF engines, which time out on the other
		// three at their depths.
		{"noisycounter", func() *sebmc.System { return circuits.WithNoise(circuits.Counter(2, 3), 2) }, 2, true},
	}
}

// coneOracle answers bounded queries on the unreduced model.
type coneOracle struct {
	depth int          // shortest counterexample, -1 when safe
	exact map[int]bool // exact-k answers past depth, by bound
}

// coneOracles memoizes the explicit-state answers per case: the
// unreduced fifo takes most of a second per exact-k query.
var coneOracles = map[string]*coneOracle{}

func oracleFor(tc coneCase) *coneOracle {
	if o := coneOracles[tc.name]; o != nil {
		return o
	}
	c := explicit.New(tc.build())
	o := &coneOracle{depth: c.ShortestCounterexample(), exact: map[int]bool{}}
	if o.depth >= 0 {
		o.exact[o.depth+1] = c.ReachableExact(o.depth + 1)
	}
	coneOracles[tc.name] = o
	return o
}

func (o *coneOracle) reachable(k int, sem sebmc.Semantics) bool {
	switch {
	case o.depth < 0 || k < o.depth:
		return false
	case sem == sebmc.AtMost || k == o.depth:
		return true
	}
	got, ok := o.exact[k]
	if !ok {
		panic(fmt.Sprintf("cone oracle: no exact answer at bound %d", k))
	}
	return got
}

// bounds are the bounds around the model's depth.
func (o *coneOracle) bounds() []int {
	if o.depth < 0 {
		return []int{3, 4, 5}
	}
	return []int{o.depth - 1, o.depth, o.depth + 1}
}

// checkOnCaller fails unless sys2 is the caller's model sys (self-looped
// under AtMost) and w, when given, is a trace of it that replays.
func checkOnCaller(t *testing.T, label string, sys, sys2 *sebmc.System, sem sebmc.Semantics, w *sebmc.Witness) {
	t.Helper()
	if sys2 == nil {
		if w != nil {
			t.Errorf("%s: witness without a system", label)
		}
		return
	}
	ni := sys.NumInputs()
	if sem == sebmc.AtMost {
		ni++
	}
	if sys2.NumStateVars() != sys.NumStateVars() || sys2.NumInputs() != ni {
		t.Errorf("%s: answer names a system with %d latches and %d inputs, want %d and %d",
			label, sys2.NumStateVars(), sys2.NumInputs(), sys.NumStateVars(), ni)
		return
	}
	// Validate also rejects a frame whose widths differ from sys2's.
	if w == nil {
		return
	}
	if err := w.Validate(sys2); err != nil {
		t.Errorf("%s: witness does not replay on the caller's model: %v", label, err)
	}
}

func TestConeModelsReduce(t *testing.T) {
	for _, tc := range coneCases() {
		sys := tc.build()
		if got := bmc.Prepare(sys, bmc.Exact).NumStateVars(); got != tc.latches || got >= sys.NumStateVars() {
			t.Errorf("%s: Prepare keeps %d of %d latches, want %d", tc.name, got, sys.NumStateVars(), tc.latches)
		}
	}
}

func TestConeChecksAgreeWithOracle(t *testing.T) {
	engines := []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineSATIncr, sebmc.EngineJSAT, sebmc.EnginePortfolio}
	for _, tc := range coneCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build()
			o := oracleFor(tc)
			engs := engines
			if tc.qbf {
				engs = append(engs, sebmc.EngineQBFLinear, sebmc.EngineQBFSquaring)
			}
			for _, eng := range engs {
				for _, sem := range []sebmc.Semantics{sebmc.Exact, sebmc.AtMost} {
					for _, k := range o.bounds() {
						label := fmt.Sprintf("%s/%s/k=%d", eng, sem, k)
						r := sebmc.Check(sys, k, eng, sebmc.Options{Semantics: sem})
						// Squaring rounds a bound that is not a power of two
						// up, under at-most semantics.
						rsem := sem
						if r.K != k {
							rsem = sebmc.AtMost
						}
						want := sebmc.Unreachable
						if o.reachable(r.K, rsem) {
							want = sebmc.Reachable
						}
						if r.Status != want {
							t.Errorf("%s: %v, oracle says %v", label, r.Status, want)
							continue
						}
						if r.Status == sebmc.Reachable && r.Witness == nil && eng != sebmc.EngineQBFLinear && eng != sebmc.EngineQBFSquaring {
							t.Errorf("%s: REACHABLE without a witness", label)
						}
						checkOnCaller(t, label, sys, r.System, rsem, r.Witness)
					}
				}
			}
		})
	}
}

func TestConeDeepenAndSessionsLiftWitnesses(t *testing.T) {
	for _, tc := range coneCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build()
			o := oracleFor(tc)
			maxBound := 8
			want := sebmc.Unreachable
			if o.depth >= 0 {
				maxBound = o.depth + 2
				want = sebmc.Reachable
			}
			for _, sched := range []sebmc.Schedule{sebmc.ScheduleLinear, sebmc.ScheduleGeometric} {
				sem := sebmc.Exact
				if sched == sebmc.ScheduleGeometric {
					sem = sebmc.AtMost
				}
				opts := sebmc.Options{Schedule: sched}
				for _, eng := range []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineSATIncr, sebmc.EngineJSAT, sebmc.EnginePortfolio} {
					label := fmt.Sprintf("Deepen/%s/%s", eng, sched)
					d := sebmc.Deepen(sys, maxBound, eng, opts)
					if d.Status != want || d.FoundAt != o.depth {
						t.Errorf("%s: %v at %d, oracle says %v at %d", label, d.Status, d.FoundAt, want, o.depth)
						continue
					}
					checkOnCaller(t, label, sys, d.System, sem, d.Witness)
				}
				for _, eng := range []sebmc.Engine{sebmc.EngineSATIncr, sebmc.EngineJSAT} {
					label := fmt.Sprintf("Session/%s/%s", eng, sched)
					s, err := sebmc.NewSession(sys, eng, opts)
					if err != nil {
						t.Fatal(err)
					}
					d := s.Deepen(maxBound)
					if d.Status != want || d.FoundAt != o.depth {
						t.Errorf("%s: Deepen %v at %d, oracle says %v at %d", label, d.Status, d.FoundAt, want, o.depth)
						continue
					}
					checkOnCaller(t, label+"/Deepen", sys, d.System, sem, d.Witness)
					for _, k := range o.bounds() {
						r := s.Check(k)
						if got := r.Status == sebmc.Reachable; got != o.reachable(k, sem) {
							t.Errorf("%s: Check(%d) %v, oracle says reachable=%v", label, k, r.Status, !got)
						}
						checkOnCaller(t, fmt.Sprintf("%s/Check(%d)", label, k), sys, r.System, sem, r.Witness)
					}
				}
			}
		})
	}
}

func TestConeProveArmsLiftWitnesses(t *testing.T) {
	for _, tc := range coneCases() {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.build()
			o := oracleFor(tc)
			v := sebmc.ProveInduction(sys, 0, sebmc.Options{}, nil)
			switch {
			case o.depth < 0:
				if v.Status != sebmc.Safe {
					t.Fatalf("induction: %v, want SAFE", v.Status)
				}
			case v.Status != sebmc.Reachable || v.K != o.depth || v.Certificate == nil:
				t.Fatalf("induction: %v at %d (certificate %v), want REACHABLE at %d", v.Status, v.K, v.Certificate, o.depth)
			default:
				checkOnCaller(t, "induction", sys, v.System, sebmc.AtMost, v.Certificate.Witness)
			}
			v = sebmc.ProveInterp(sys, 0, sebmc.Options{})
			switch {
			case o.depth < 0:
				if v.Status != sebmc.Safe || v.Certificate == nil {
					t.Fatalf("interp: %v (certificate %v), want SAFE with an invariant", v.Status, v.Certificate)
				}
				// Invariants stay over the reduced latches.
				if err := v.Certificate.Validate(sys.Reduce()); err != nil {
					t.Errorf("interp invariant: %v", err)
				}
			case v.Status != sebmc.Reachable || v.K != o.depth || v.Certificate == nil:
				t.Fatalf("interp: %v at %d (certificate %v), want REACHABLE at %d", v.Status, v.K, v.Certificate, o.depth)
			default:
				checkOnCaller(t, "interp", sys, v.System, sebmc.Exact, v.Certificate.Witness)
			}
		})
	}
}

func TestPrepareKeepsFullCone(t *testing.T) {
	sys := circuits.Counter(4, 9)
	if got := bmc.Prepare(sys, bmc.Exact); got != sys {
		t.Fatalf("Prepare copied a model whose cone is everything")
	}
	if got := bmc.Prepare(sys, bmc.AtMost); got.NumStateVars() != 4 || got.NumInputs() != 1 {
		t.Fatalf("at-most Prepare: %d latches, %d inputs, want 4 and the self-loop input", got.NumStateVars(), got.NumInputs())
	}
}

func TestConeEncodesFewerVariables(t *testing.T) {
	sys := circuits.WithNoise(circuits.FIFO(4), 6)
	r := sebmc.Check(sys, 14, sebmc.EngineSAT, sebmc.Options{})
	full := bmc.EncodeUnroll(sys, 14, tseitin.Full).F.NumVars()
	if r.Status != sebmc.Unreachable || r.Formula.Vars >= full {
		t.Fatalf("fifo k=14: %v with %d variables, want UNREACHABLE with fewer than the %d of the whole model", r.Status, r.Formula.Vars, full)
	}
}

// TestConeLeavesCallerCircuitAlone races the portfolio, Prove and
// ModelHash on one system whose bad predicate is not a circuit output:
// every engine reduces the shared system at once, which must only read
// it (run under -race).
func TestConeLeavesCallerCircuitAlone(t *testing.T) {
	g := aig.New()
	cnt := make([]aig.Lit, 3)
	for i := range cnt {
		cnt[i] = g.AddLatch(fmt.Sprintf("c%d", i), aig.Init0)
	}
	inc, _ := g.IncVec(cnt)
	for i := range cnt {
		g.SetNext(cnt[i], inc[i])
	}
	noise := g.AddLatch("noise", aig.Init0)
	g.SetNext(noise, g.AddInput("in"))
	g.AddOutput("noise", noise)
	sys := &sebmc.System{Name: "hidden-bad", Circ: g, Bad: g.EqConst(cnt, 5)}
	outs := g.NumOutputs()

	var wg sync.WaitGroup
	var r sebmc.Result
	var v sebmc.Verdict
	var hashes [2]string
	wg.Add(4)
	go func() { defer wg.Done(); r = sebmc.Check(sys, 5, sebmc.EnginePortfolio, sebmc.Options{}) }()
	go func() { defer wg.Done(); v = sebmc.Prove(sys, 0, sebmc.Options{}) }()
	for i := range hashes {
		go func() { defer wg.Done(); hashes[i] = sebmc.ModelHash(sys) }()
	}
	wg.Wait()

	if got := g.NumOutputs(); got != outs {
		t.Fatalf("circuit has %d outputs after checking, had %d", got, outs)
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("ModelHash unstable: %s vs %s", hashes[0], hashes[1])
	}
	if r.Status != sebmc.Reachable {
		t.Fatalf("portfolio: %v, want REACHABLE", r.Status)
	}
	checkOnCaller(t, "portfolio", sys, r.System, sebmc.Exact, r.Witness)
	if v.Status != sebmc.Reachable || v.Certificate == nil {
		t.Fatalf("Prove: %v (certificate %v), want REACHABLE with a witness", v.Status, v.Certificate)
	}
	if err := v.Certificate.Validate(v.System); err != nil {
		t.Fatalf("Prove witness does not replay: %v", err)
	}
}
