package sat

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cnf"
)

// TestArenaLayout checks the slab encoding round-trips: header flags,
// size, activity, LBD, and literal views, for both problem and learnt
// clauses, and that the slab length matches the analytic size (one
// header word per clause, two extra words for learnts, one word per
// literal).
func TestArenaLayout(t *testing.T) {
	var a arena
	p1 := []cnf.Lit{cnf.PosLit(1), cnf.NegLit(2), cnf.PosLit(3)}
	l1 := []cnf.Lit{cnf.NegLit(4), cnf.PosLit(5), cnf.PosLit(6), cnf.NegLit(7)}

	cp := a.alloc(p1, false)
	cl := a.alloc(l1, true)
	a.setAct(cl, 2.5)
	a.setLBD(cl, 3)

	if a.learnt(cp) || !a.learnt(cl) {
		t.Fatalf("learnt flags wrong")
	}
	if a.size(cp) != 3 || a.size(cl) != 4 {
		t.Fatalf("sizes wrong: %d %d", a.size(cp), a.size(cl))
	}
	for i, l := range p1 {
		if a.lits(cp)[i] != l {
			t.Fatalf("problem lit %d mismatch", i)
		}
	}
	for i, l := range l1 {
		if a.lits(cl)[i] != l {
			t.Fatalf("learnt lit %d mismatch", i)
		}
	}
	if a.act(cl) != 2.5 || a.lbd(cl) != 3 {
		t.Fatalf("act/lbd round-trip failed: %v %v", a.act(cl), a.lbd(cl))
	}
	analytic := (1 + len(p1)) + (3 + len(l1))
	if len(a.data) != analytic {
		t.Fatalf("slab has %d words, analytic size is %d", len(a.data), analytic)
	}
	if a.bytes() != analytic*4 {
		t.Fatalf("bytes() = %d, want %d", a.bytes(), analytic*4)
	}
}

// checkRefIntegrity verifies every clause reference the solver holds
// after a compaction: watch lists point at live clauses that actually
// watch the negated index literal, blockers are clause literals, trail
// reasons imply their trail literal, and the clause lists tile the arena
// exactly (no dead space, no overlap).
func checkRefIntegrity(t *testing.T, s *Solver) {
	t.Helper()

	refs := make(map[ClauseRef]bool)
	for _, c := range s.clauses {
		refs[c] = true
	}
	for _, c := range s.learnts {
		refs[c] = true
	}

	// The live clauses must tile the slab: walking it sequentially
	// visits exactly the refs in the clause lists, none dead.
	words := 0
	for c := ClauseRef(0); int(c) < len(s.arena.data); {
		if !refs[c] {
			t.Fatalf("arena walk found untracked clause at %d", c)
		}
		if s.arena.dead(c) {
			t.Fatalf("dead clause %d survived compaction", c)
		}
		n := ClauseRef(1 + s.arena.size(c))
		if s.arena.learnt(c) {
			n += 2
		}
		c += n
		words = int(c)
	}
	if words != len(s.arena.data) {
		t.Fatalf("arena walk covered %d of %d words", words, len(s.arena.data))
	}
	if got := len(refs); got != len(s.clauses)+len(s.learnts) {
		t.Fatalf("clause lists share refs: %d unique of %d", got, len(s.clauses)+len(s.learnts))
	}

	// Watch lists: every watcher's ref is live and watches ¬(index lit)
	// in its first two positions, and the blocker is in the clause.
	for li := 2; li < len(s.watches); li++ {
		p := cnf.Lit(li)
		for _, w := range s.watches[p] {
			if !refs[w.ref] {
				t.Fatalf("watch list %v holds untracked ref %d", p, w.ref)
			}
			lits := s.arena.lits(w.ref)
			if lits[0] != p.Neg() && lits[1] != p.Neg() {
				t.Fatalf("clause %d in watch list %v does not watch %v", w.ref, p, p.Neg())
			}
			found := false
			for _, l := range lits {
				if l == w.blocker {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("blocker %v of clause %d is not a clause literal", w.blocker, w.ref)
			}
		}
	}
	// Each live arena clause must be watched exactly twice.
	watched := make(map[ClauseRef]int)
	for li := 2; li < len(s.watches); li++ {
		for _, w := range s.watches[li] {
			watched[w.ref]++
		}
	}
	for c := range refs {
		if watched[c] != 2 {
			t.Fatalf("clause %d watched %d times, want 2", c, watched[c])
		}
	}

	// Trail reasons: an arena reason's first literal is the implied
	// trail literal itself; binary reasons must not dangle either.
	for _, l := range s.trail {
		r := s.reason[l.Var()]
		switch {
		case r == crefUndef:
		case isBinReason(r):
			if int(binOther(r)) >= len(s.vals) {
				t.Fatalf("binary reason of %v references unknown literal", l)
			}
		default:
			if !refs[r] {
				t.Fatalf("reason of %v is untracked ref %d", l, r)
			}
			if s.arena.lits(r)[0] != l {
				t.Fatalf("reason of %v does not imply it (lits[0]=%v)", l, s.arena.lits(r)[0])
			}
		}
	}
}

// TestReduceDBCompactsWithOutstandingReasons drives ReduceDB between
// incremental queries, when level-0 unit propagations still hold arena
// reason references, and verifies the compaction rewrote every watch and
// reason — then that the solver still answers correctly.
func TestReduceDBCompactsWithOutstandingReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	s := New(Options{})
	n := 90
	v := mkVars(s, n)
	var f cnf.Formula
	for i := 0; i < int(4.1*float64(n)); i++ {
		a, b, c := v[1+rng.Intn(n)], v[1+rng.Intn(n)], v[1+rng.Intn(n)]
		lits := []cnf.Lit{
			cnf.MkLit(a, rng.Intn(2) == 0),
			cnf.MkLit(b, rng.Intn(2) == 0),
			cnf.MkLit(c, rng.Intn(2) == 0),
		}
		f.AddClause(lits)
		s.AddClause(lits...)
	}
	want := s.Solve()
	if want == Unknown {
		t.Fatalf("unbudgeted solve returned Unknown")
	}
	if s.NumLearnts() == 0 {
		t.Skipf("instance solved without learning")
	}

	// After Solve, level-0 trail entries carry reason refs into the
	// arena — the scenario this test exists for. Guard that it actually
	// occurs, then compact and verify every reference was rewritten.
	hadReason := false
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef && !isBinReason(r) {
			hadReason = true
		}
	}
	if !hadReason {
		t.Skipf("instance left no outstanding arena reason refs; pick a new seed")
	}
	sizeBefore := len(s.arena.data)
	s.ReduceDB()
	if len(s.arena.data) > sizeBefore {
		t.Fatalf("compaction grew the arena: %d -> %d words", sizeBefore, len(s.arena.data))
	}
	checkRefIntegrity(t, s)

	// The solver must still be usable and agree with a fresh solver.
	fresh := New(Options{})
	fresh.AddFormula(&f)
	if got, ref := s.Solve(), fresh.Solve(); got != ref || got != want {
		t.Fatalf("verdict drifted after compaction: got %v, fresh %v, first %v", got, ref, want)
	}
	checkRefIntegrity(t, s)
}

// TestCompactionFuzz exercises repeated clause-attach / solve / reduce
// cycles on one persistent solver, cross-checking the verdict against a
// fresh solver on the accumulated formula and re-validating reference
// integrity after every compaction. This is the attach/detach/reduce
// churn an incremental BMC client generates.
func TestCompactionFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	s := New(Options{})
	n := 40
	v := mkVars(s, n)
	var f cnf.Formula
	for round := 0; round < 12 && s.Okay(); round++ {
		for i := 0; i < 30; i++ {
			w := 2 + rng.Intn(3)
			lits := make([]cnf.Lit, 0, w)
			for j := 0; j < w; j++ {
				lits = append(lits, cnf.MkLit(v[1+rng.Intn(n)], rng.Intn(2) == 0))
			}
			f.AddClause(lits)
			s.AddClause(lits...)
		}
		var assumps []cnf.Lit
		for j := 0; j < rng.Intn(3); j++ {
			assumps = append(assumps, cnf.MkLit(v[1+rng.Intn(n)], rng.Intn(2) == 0))
		}
		s.Solve(assumps...)
		// Force deletions even when few clauses were learned.
		s.maxLearnts = 1
		s.ReduceDB()
		checkRefIntegrity(t, s)

		got := s.Solve()
		fresh := New(Options{})
		fresh.AddFormula(&f)
		if ref := fresh.Solve(); got != ref {
			t.Fatalf("round %d: persistent solver says %v, fresh solver %v", round, got, ref)
		}
		checkRefIntegrity(t, s)
	}
}

// TestDeadlineRespectedWithoutConflicts: an easy satisfiable instance
// generates thousands of decisions but not a single conflict, so the
// old per-conflict-only deadline poll never fired and Solve overran its
// deadline arbitrarily. The decision-path poll must stop it.
func TestDeadlineRespectedWithoutConflicts(t *testing.T) {
	s := New(Options{Deadline: time.Now().Add(-time.Hour)})
	n := 4000
	v := mkVars(s, 2*n)
	// n independent clauses (x_i ∨ y_i): every decision assigns one x
	// false (default phase) and propagates one y — zero conflicts.
	for i := 0; i < n; i++ {
		s.AddClause(cnf.PosLit(v[2*i+1]), cnf.PosLit(v[2*i+2]))
	}
	if got := s.Solve(); got != Unknown {
		t.Fatalf("expired deadline on conflict-free instance: got %v, want Unknown", got)
	}
}

// TestClauseDBBytesMatchesAnalyticSlab checks the E3 accounting: the
// arena term of ClauseDBBytes must equal the analytic slab size computed
// from the clause inventory (within nothing — it is exact between
// compactions, since deletion only happens inside reduceDB).
func TestClauseDBBytesMatchesAnalyticSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(Options{})
	n := 60
	v := mkVars(s, n)
	for i := 0; i < 240; i++ {
		a, b, c := v[1+rng.Intn(n)], v[1+rng.Intn(n)], v[1+rng.Intn(n)]
		s.AddClause(cnf.MkLit(a, rng.Intn(2) == 0), cnf.MkLit(b, rng.Intn(2) == 0), cnf.MkLit(c, rng.Intn(2) == 0))
	}
	s.Solve()

	analytic := 0
	for _, c := range s.clauses {
		analytic += (1 + s.arena.size(c)) * 4
	}
	for _, c := range s.learnts {
		analytic += (3 + s.arena.size(c)) * 4
	}
	if got := s.arena.bytes(); got != analytic {
		t.Fatalf("arena reports %d bytes, analytic slab is %d", got, analytic)
	}
	if total := s.ClauseDBBytes(); total < analytic {
		t.Fatalf("ClauseDBBytes %d below the slab size %d", total, analytic)
	}
}
