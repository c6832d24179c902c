package sebmc_test

// Tests for the warm-engine facade: ModelHash as a content address and
// Session as a persistent handle whose proven-unreachable prefix makes
// repeated deepening requests resume instead of restarting — the
// contract the bmcd service's session pool is built on.

import (
	"strings"
	"testing"

	sebmc "repro"
	"repro/internal/circuits"
)

func TestModelHashIsContentAddress(t *testing.T) {
	a := circuits.Counter(3, 5)
	b := circuits.Counter(3, 5)
	c := circuits.Counter(3, 6)
	if sebmc.ModelHash(a) != sebmc.ModelHash(b) {
		t.Fatal("identical circuits hash differently")
	}
	if sebmc.ModelHash(a) == sebmc.ModelHash(c) {
		t.Fatal("different bad predicates hash equally")
	}
	b.Name = "renamed"
	if sebmc.ModelHash(a) != sebmc.ModelHash(b) {
		t.Fatal("hash depends on the model name")
	}
}

// TestModelHashCanonicalAcrossSerialization: the address must survive a
// serialization round-trip — a model parsed from MSL and the same model
// re-read from its own AAG rendering hash identically. The cluster's
// verdict replication depends on this: the receiver re-derives the
// shipped model's hash and matches it against the sender's cache key.
func TestModelHashCanonicalAcrossSerialization(t *testing.T) {
	src := `
model cex
var c : 3 = 0;
next c = c + 1;
bad c == 5;
`
	sys, err := sebmc.LoadMSL(src)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := sys.Reduce().Circ.WriteAAG(&b); err != nil {
		t.Fatal(err)
	}
	again, err := sebmc.LoadAIGER(strings.NewReader(b.String()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1, h2 := sebmc.ModelHash(sys), sebmc.ModelHash(again); h1 != h2 {
		t.Fatalf("round-trip changed the content address: %s -> %s", h1, h2)
	}
}

func TestSessionRejectsNonIncrementalEngines(t *testing.T) {
	sys := circuits.Counter(3, 5)
	for _, e := range []sebmc.Engine{sebmc.EngineSAT, sebmc.EngineQBFLinear, sebmc.EngineQBFSquaring, sebmc.EnginePortfolio} {
		if _, err := sebmc.NewSession(sys, e, sebmc.Options{}); err == nil {
			t.Errorf("NewSession(%v) accepted a non-incremental engine", e)
		}
	}
}

// TestSessionDeepenResumes is the acceptance-criterion test: deepening
// to bound k and then to k+4 must solve only the four new bounds the
// second time.
func TestSessionDeepenResumes(t *testing.T) {
	for _, engine := range []sebmc.Engine{sebmc.EngineSATIncr, sebmc.EngineJSAT} {
		t.Run(engine.String(), func(t *testing.T) {
			sys := circuits.Counter(3, 5) // shortest counterexample at k=5
			sess, err := sebmc.NewSession(sys, engine, sebmc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d := sess.Deepen(3)
			if d.Status != sebmc.Unreachable {
				t.Fatalf("deepen to 3: got %v, want UNREACHABLE", d.Status)
			}
			if st := sess.Stats(); st.BoundsRun != 4 || st.ProvenUpTo != 3 {
				t.Fatalf("after deepen(3): BoundsRun=%d ProvenUpTo=%d, want 4 and 3", st.BoundsRun, st.ProvenUpTo)
			}
			d = sess.Deepen(7)
			if d.Status != sebmc.Reachable || d.FoundAt != 5 {
				t.Fatalf("deepen to 7: got %v at %d, want REACHABLE at 5", d.Status, d.FoundAt)
			}
			if d.Witness == nil {
				t.Fatal("no witness from warm deepen")
			}
			if err := d.Witness.Validate(d.System); err != nil {
				t.Fatalf("warm-deepen witness does not replay: %v", err)
			}
			st := sess.Stats()
			// Resumed at bound 4: only bounds 4 and 5 were solved.
			if st.BoundsRun != 6 {
				t.Fatalf("resumed deepen solved %d bounds total, want 6 (4 cold + 2 warm)", st.BoundsRun)
			}
			if st.BoundsSaved != 4 {
				t.Fatalf("BoundsSaved=%d, want 4", st.BoundsSaved)
			}
			// A whole deepen inside the proven prefix is free.
			d = sess.Deepen(3)
			if d.Status != sebmc.Unreachable || sess.Stats().BoundsRun != 6 {
				t.Fatal("deepen within the proven prefix re-solved bounds")
			}
		})
	}
}

// TestSessionGeometricDeepenResumes: a geometric-schedule session runs
// the doubling-plus-bisection schedule on the warm solver, and a second
// deepen resumes from the proven prefix — the schedule starts past it
// and the bisection never probes inside it.
func TestSessionGeometricDeepenResumes(t *testing.T) {
	for _, engine := range []sebmc.Engine{sebmc.EngineSATIncr, sebmc.EngineJSAT} {
		t.Run(engine.String(), func(t *testing.T) {
			sys := circuits.Counter(4, 9) // shortest counterexample at k=9
			sess, err := sebmc.NewSession(sys, engine, sebmc.Options{Schedule: sebmc.ScheduleGeometric})
			if err != nil {
				t.Fatal(err)
			}
			d := sess.Deepen(6)
			if d.Status != sebmc.Unreachable {
				t.Fatalf("deepen to 6: got %v, want UNREACHABLE", d.Status)
			}
			// Geometric bounds 0,1,2,4,6 — five invocations where linear
			// would run seven.
			if d.Iterations != 5 {
				t.Fatalf("geometric deepen to 6 ran %d bounds (%v), want 5", d.Iterations, d.BoundsTried)
			}
			if st := sess.Stats(); st.ProvenUpTo != 6 {
				t.Fatalf("ProvenUpTo=%d after at-most deepen to 6, want 6", st.ProvenUpTo)
			}
			d = sess.Deepen(16)
			if d.Status != sebmc.Reachable || d.FoundAt != 9 {
				t.Fatalf("deepen to 16: got %v at %d, want REACHABLE at 9", d.Status, d.FoundAt)
			}
			// Resumed past the proven prefix: 7, 14, then bisecting (7,14]
			// at 10, 8, 9 — five warm invocations.
			if d.Iterations != 5 {
				t.Fatalf("warm geometric deepen ran %d bounds (%v), want 5", d.Iterations, d.BoundsTried)
			}
			for _, k := range d.BoundsTried {
				if k <= 6 {
					t.Fatalf("warm geometric deepen probed %d inside the proven prefix (%v)", k, d.BoundsTried)
				}
			}
			if d.Witness == nil {
				t.Fatal("no witness from warm geometric deepen")
			}
			if err := d.Witness.Validate(d.System); err != nil {
				t.Fatalf("warm geometric witness does not replay: %v", err)
			}
			// A deepen entirely inside the proven prefix stays free.
			before := sess.Stats().BoundsRun
			if d := sess.Deepen(5); d.Status != sebmc.Unreachable || sess.Stats().BoundsRun != before {
				t.Fatal("deepen within the proven prefix re-solved bounds")
			}
		})
	}
}

// TestSessionGeometricAfterSeed seeds a geometric sat-incr session with
// a proven prefix it never solved, as bmcd does from its verdict cache,
// and deepens: the schedule starts past the seed, the unroller still
// asks about every frame up to each probe (a seed is bookkeeping, never
// a clause), and FoundAt and a replaying witness match linear deepening.
// A wrong seed, past the bug, costs FoundAt its exactness but never the
// counterexample.
func TestSessionGeometricAfterSeed(t *testing.T) {
	for _, sys := range []*sebmc.System{
		circuits.Counter(4, 9),
		circuits.TokenRing(6),
		circuits.FIFO(3),
		circuits.WithNoise(circuits.CounterEnable(3, 6), 2),
		circuits.DeepLFSR(10, 0x204, 40),
	} {
		lin := sebmc.Deepen(sys, 48, sebmc.EngineSATIncr, sebmc.Options{})
		if lin.Status != sebmc.Reachable {
			t.Fatalf("%s: linear deepening %v, want REACHABLE", sys.Name, lin.Status)
		}
		for _, seed := range []int{0, lin.FoundAt / 2, lin.FoundAt - 1} {
			sess, err := sebmc.NewSession(sys, sebmc.EngineSATIncr, sebmc.Options{Schedule: sebmc.ScheduleGeometric})
			if err != nil {
				t.Fatal(err)
			}
			sess.SeedProven(seed)
			d := sess.Deepen(48)
			if d.Status != sebmc.Reachable || d.FoundAt != lin.FoundAt {
				t.Fatalf("%s seeded at %d: %v at %d (bounds %v), linear found %d", sys.Name, seed, d.Status, d.FoundAt, d.BoundsTried, lin.FoundAt)
			}
			if d.Witness == nil || d.Witness.K != d.FoundAt {
				t.Fatalf("%s seeded at %d: witness %v, want one of %d steps", sys.Name, seed, d.Witness, d.FoundAt)
			}
			if err := d.Witness.Validate(sebmc.AddSelfLoop(sys)); err != nil {
				t.Fatalf("%s seeded at %d: witness does not replay on the caller's model: %v", sys.Name, seed, err)
			}
		}
		sess, err := sebmc.NewSession(sys, sebmc.EngineSATIncr, sebmc.Options{Schedule: sebmc.ScheduleGeometric})
		if err != nil {
			t.Fatal(err)
		}
		wrong := lin.FoundAt + 3
		sess.SeedProven(wrong)
		d := sess.Deepen(48)
		if d.Status != sebmc.Reachable || d.FoundAt <= wrong || d.Witness == nil {
			t.Fatalf("%s wrongly seeded at %d: %v at %d, want REACHABLE past the seed", sys.Name, wrong, d.Status, d.FoundAt)
		}
		if err := d.Witness.Validate(sebmc.AddSelfLoop(sys)); err != nil {
			t.Fatalf("%s wrongly seeded at %d: witness does not replay: %v", sys.Name, wrong, err)
		}
	}
}

func TestSessionCheckMatchesFreshCheck(t *testing.T) {
	for _, engine := range []sebmc.Engine{sebmc.EngineSATIncr, sebmc.EngineJSAT} {
		t.Run(engine.String(), func(t *testing.T) {
			sys := circuits.TokenRing(5) // cex at k=4, then every 5
			sess, err := sebmc.NewSession(sys, engine, sebmc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= 9; k++ {
				want := sebmc.Check(sys, k, engine, sebmc.Options{})
				got := sess.Check(k)
				if got.Status != want.Status {
					t.Fatalf("k=%d: session says %v, fresh check says %v", k, got.Status, want.Status)
				}
				if got.Status == sebmc.Reachable {
					if got.Witness == nil {
						t.Fatalf("k=%d: reachable without witness", k)
					}
					if err := got.Witness.Validate(got.System); err != nil {
						t.Fatalf("k=%d: witness does not replay: %v", k, err)
					}
				}
			}
		})
	}
}

// TestSessionAtMostPrefix: one at-most-k Unreachable answer proves every
// smaller bound, so later checks below it are free.
func TestSessionAtMostPrefix(t *testing.T) {
	sys := circuits.TrafficLight(2) // safe at every bound
	sess, err := sebmc.NewSession(sys, sebmc.EngineJSAT, sebmc.Options{Semantics: sebmc.AtMost})
	if err != nil {
		t.Fatal(err)
	}
	if r := sess.Check(6); r.Status != sebmc.Unreachable {
		t.Fatalf("got %v, want UNREACHABLE", r.Status)
	}
	runs := sess.Stats().BoundsRun
	for k := 0; k <= 6; k++ {
		if r := sess.Check(k); r.Status != sebmc.Unreachable {
			t.Fatalf("k=%d: got %v, want UNREACHABLE", k, r.Status)
		}
	}
	if st := sess.Stats(); st.BoundsRun != runs {
		t.Fatalf("checks under the at-most prefix re-ran the solver (%d -> %d bounds)", runs, st.BoundsRun)
	}
}

// TestSessionCancelDoesNotPoison: a cancelled request returns Unknown,
// and the session still answers the next request correctly — the
// one-shot flag must not stick to the warm solver.
func TestSessionCancelDoesNotPoison(t *testing.T) {
	for _, engine := range []sebmc.Engine{sebmc.EngineSATIncr, sebmc.EngineJSAT} {
		t.Run(engine.String(), func(t *testing.T) {
			sys := circuits.Counter(3, 5)
			sess, err := sebmc.NewSession(sys, engine, sebmc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dead := sebmc.NewCancelFlag()
			dead.Set()
			if r := sess.CheckWith(5, dead); r.Status != sebmc.Unknown {
				t.Fatalf("pre-cancelled request: got %v, want UNKNOWN", r.Status)
			}
			if r := sess.Check(5); r.Status != sebmc.Reachable {
				t.Fatalf("request after a cancelled one: got %v, want REACHABLE", r.Status)
			}
		})
	}
}
