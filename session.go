package sebmc

// This file is the warm-engine face of the library: ModelHash (a
// content address for transition systems, the cache key of the bmcd
// verdict cache) and Session, a persistent handle that keeps one
// incremental engine alive across many requests. A Session is what
// turns the paper's "one copy of the transition relation" from a
// per-query property into a per-*service* property: a model checked at
// bound k and later at k+4 resumes the same solver — learned clauses,
// hopeless-state cache, and the proven-unreachable prefix all carry
// over, so only the four new bounds are ever solved.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bmc"
	"repro/internal/jsat"
	"repro/internal/sat"
)

// ModelHash returns a content address for the system: a hex digest of
// the reduced circuit's AIGER serialization plus the bad-literal
// selection. Hashing the cone-of-influence reduction makes the address
// canonical: two systems with equal hashes encode the same checking
// problem regardless of how they were loaded, what they are named, or
// how many serialization round-trips they survived — LoadMSL output
// and its own WriteAAG round-trip address the same cache entries,
// which is what lets a cluster ship a model to a peer and have the
// peer verify it against the sender's key.
func ModelHash(sys *System) string {
	red := sys.Reduce()
	h := sha256.New()
	// WriteAAG to a hash never fails: hash.Hash writes are infallible.
	_ = red.Circ.WriteAAG(h)
	fmt.Fprintf(h, "|bad=%d", uint32(red.Bad))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// SessionStats counts the work a Session has answered and what it
// retained.
type SessionStats struct {
	Checks      int // Check/Deepen requests served
	BoundsRun   int // bounds actually solved (cold work)
	BoundsSaved int // bounds answered from the proven prefix (warm work)
	ProvenUpTo  int // all bounds 0..ProvenUpTo are Unreachable (-1: none)
	MemBytes    int // retained solver footprint, honestly accounted
}

// Session is a persistent checking handle: one warm incremental engine
// (EngineSATIncr or EngineJSAT — the two engines whose solvers are
// designed to live across bounds) serving any number of Check and
// Deepen requests for one system. The session tracks the contiguous
// prefix of bounds already proven Unreachable, so a Deepen to a larger
// bound resumes where the last one stopped instead of re-solving from
// bound 0. All methods are safe for concurrent use; requests are
// serialized on the session's lock (the underlying solver is single-
// threaded state).
type Session struct {
	mu     sync.Mutex
	engine Engine
	opts   Options
	sys    *System
	// full is sys as its answers name it: sys itself, self-looped under
	// AtMost. The warm engine encodes only the cone of influence;
	// checkLocked lifts its witnesses onto full.
	full *System

	incr *bmc.IncrementalUnroller // EngineSATIncr
	js   *jsat.Solver             // EngineJSAT

	proven int // bounds 0..proven are Unreachable; -1 = nothing proven
	stats  SessionStats

	// poisoned is set when a request on this session panicked: the
	// solver's invariants may be arbitrarily broken mid-unwind, so no
	// later request may touch it. Guarded by mu.
	poisoned bool

	// memHint is the retained footprint as of the last completed
	// request, readable without the session lock: a pool accounting a
	// finished request's bytes must not block behind a concurrent
	// long-running solve on the same session.
	memHint atomic.Int64
}

// NewSession builds a warm session for sys. Only EngineSATIncr and
// EngineJSAT are supported — the remaining engines re-encode per query
// and gain nothing from staying resident; use Check for those.
// Options.Timeout applies per request (re-armed on every Check/Deepen
// call); Options.Cancel, when set, is the session-wide default signal,
// overridable per call via CheckWith/DeepenWith.
//
// The warm engine encodes only sys's cone of influence; answers name
// sys itself (self-looped under at-most-k) and witnesses replay on it.
//
// Options.ScheduleGeometric forces at-most-k semantics for the whole
// session — the solver is prepared once, at construction, and skipping
// bounds is unsound under exact-k — so Check answers on such a session
// are at-most-k answers too. A sat-incr session answers them on the
// plain unrolling of the cone, asking for a bad state at any frame its
// own solver has not refuted; a SeedProven prefix skips probes but
// never becomes a clause.
func NewSession(sys *System, engine Engine, opts Options) (*Session, error) {
	if opts.Schedule == ScheduleGeometric {
		opts.Semantics = AtMost
	}
	s := &Session{engine: engine, opts: opts, sys: sys, proven: -1}
	s.stats.ProvenUpTo = -1
	switch engine {
	case EngineSATIncr:
		io := opts.incremental()
		// The session arms one deadline per request instead of one per
		// bound, so a Deepen request's timeout covers the whole loop.
		io.QueryTimeout = 0
		s.incr = bmc.NewIncrementalUnroller(sys, io)
	case EngineJSAT:
		s.js = jsat.New(sys, jsat.Options{
			Semantics:   opts.Semantics,
			Mode:        opts.mode(),
			QueryBudget: opts.QueryBudget,
			Cancel:      opts.Cancel,
			SAT:         sat.Options{ConflictBudget: opts.ConflictBudget},
		})
	default:
		return nil, fmt.Errorf("sebmc: engine %v cannot run as a session (want sat-incr or jsat)", engine)
	}
	s.full, _ = bmc.Lift(sys, s.encoded(), nil)
	return s, nil
}

// Engine returns the engine the session runs.
func (s *Session) Engine() Engine { return s.engine }

// System returns the system the session was built for.
func (s *Session) System() *System { return s.sys }

// Stats returns a snapshot of the session's counters, including the
// retained solver footprint (ClauseDBBytes high water for the
// incremental engine, live MemBytes for jSAT).
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *Session) snapshotLocked() SessionStats {
	st := s.stats
	st.ProvenUpTo = s.proven
	if s.incr != nil {
		st.MemBytes = s.incr.Stats().PeakBytes
	} else {
		st.MemBytes = s.js.MemBytes()
	}
	return st
}

// Poisoned reports whether a request on this session panicked. A
// poisoned session answers every further request with an
// ErrSessionPoisoned result; pools must discard it, releasing its
// accounted bytes, and build a fresh session on next demand.
func (s *Session) Poisoned() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned
}

// noteMemLocked refreshes the lock-free footprint hint. Callers hold
// s.mu.
func (s *Session) noteMemLocked() {
	if s.poisoned {
		// The solver may be mid-unwind; its accounting is as untrusted
		// as the rest of it. The pool discards the session anyway.
		return
	}
	if s.incr != nil {
		s.memHint.Store(int64(s.incr.Stats().PeakBytes))
	} else {
		s.memHint.Store(int64(s.js.MemBytes()))
	}
}

// MemBytesHint returns the session's retained solver footprint as of
// the last completed request. Unlike Stats, it never blocks: it reads
// an atomic snapshot instead of taking the session lock, so callers
// accounting memory are not serialized behind an in-flight solve.
func (s *Session) MemBytesHint() int { return int(s.memHint.Load()) }

// arm prepares the solvers for one request: per-request deadline and
// the effective cancellation flag. Callers must hold s.mu.
func (s *Session) arm(c *CancelFlag) {
	if c == nil {
		c = s.opts.Cancel
	}
	var d time.Time
	if s.opts.Timeout > 0 {
		d = time.Now().Add(s.opts.Timeout)
	}
	if s.incr != nil {
		s.incr.SetDeadline(d)
		s.incr.SetCancel(c)
	} else {
		s.js.SetDeadline(d)
		s.js.SetCancel(c)
	}
}

// disarm drops the per-request flag so a one-shot cancel signal set
// after its request finished cannot poison the next request.
func (s *Session) disarm() {
	if s.incr != nil {
		s.incr.SetCancel(s.opts.Cancel)
	} else {
		s.js.SetCancel(s.opts.Cancel)
	}
}

// checkLocked answers one bound on the warm engine.
func (s *Session) checkLocked(k int) Result {
	var r Result
	if s.incr != nil {
		r = s.incr.CheckBound(k)
	} else {
		r = s.js.Check(k)
	}
	s.stats.BoundsRun++
	s.noteLocked(k, r.Status)
	r.System = s.full
	if r.Witness != nil {
		r.System, r.Witness = bmc.Lift(s.sys, s.encoded(), r.Witness)
	}
	r.DecidedBy = s.engine.String()
	return r
}

// noteLocked extends the proven-unreachable prefix. Under AtMost
// semantics an Unreachable answer at k covers every bound ≤ k; under
// Exact it only extends a contiguous prefix.
func (s *Session) noteLocked(k int, st Status) {
	if st != Unreachable {
		return
	}
	if s.opts.Semantics == AtMost {
		if k > s.proven {
			s.proven = k
		}
	} else if k == s.proven+1 {
		s.proven = k
	}
}

// Check answers one bounded query on the warm engine, reusing all
// retained solver state. Equivalent to CheckWith(k, nil).
func (s *Session) Check(k int) Result { return s.CheckWith(k, nil) }

// CheckWith is Check with a per-request cancellation flag (nil falls
// back to the session's Options.Cancel). A panic inside the warm solver
// is recovered into a PanicError result and poisons the session: every
// later request fails fast with ErrSessionPoisoned, and the pool
// holding the session must discard it.
func (s *Session) CheckWith(k int, c *CancelFlag) (res Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.noteMemLocked()
	// A panic anywhere in the warm solver becomes a PanicError result
	// and poisons the session. The recover runs before noteMemLocked and
	// the unlock (LIFO), so the mark is made while the lock is still
	// held and the memory hint never reads a half-unwound solver.
	defer contain(&res, func(pe *PanicError) Result {
		s.poisoned = true
		return Result{Status: Unknown, K: k, DecidedBy: s.engine.String(), Err: pe}
	})
	if s.poisoned {
		return Result{Status: Unknown, K: k, DecidedBy: s.engine.String(), Err: ErrSessionPoisoned}
	}
	s.stats.Checks++
	if k <= s.proven {
		// Already proven unreachable at this bound (for Exact, the
		// prefix proof at bound k is exactly the earlier bound-k query).
		s.stats.BoundsSaved++
		return Result{Status: Unreachable, K: k, System: s.full, DecidedBy: s.engine.String()}
	}
	s.arm(c)
	defer s.disarm()
	return s.checkLocked(k)
}

// Deepen searches bounds 0..maxBound for the shortest counterexample,
// resuming from the session's proven prefix: bounds already proven
// Unreachable by earlier requests are skipped, counted in
// SessionStats.BoundsSaved. The session's Options.Schedule selects the
// bound schedule — linear stepping or the geometric schedule with
// binary-search refinement; both report the same FoundAt. Equivalent to
// DeepenWith(maxBound, nil).
func (s *Session) Deepen(maxBound int) DeepenResult { return s.DeepenWith(maxBound, nil) }

// DeepenWith is Deepen with a per-request cancellation flag. Panics
// are contained the same way as CheckWith: the result carries a
// PanicError and the session is poisoned.
func (s *Session) DeepenWith(maxBound int, c *CancelFlag) (out DeepenResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.noteMemLocked()
	defer contain(&out, func(pe *PanicError) DeepenResult {
		s.poisoned = true
		return DeepenResult{Status: Unknown, FoundAt: -1, DecidedBy: s.engine.String(), Err: pe}
	})
	if s.poisoned {
		return DeepenResult{Status: Unknown, FoundAt: -1, DecidedBy: s.engine.String(), Err: ErrSessionPoisoned}
	}
	s.stats.Checks++
	s.stats.BoundsSaved += min(s.proven+1, maxBound+1)
	s.arm(c)
	defer s.disarm()
	// Both schedules drive the warm engine through checkLocked, so every
	// probe lands on the same persistent solver and Unreachable probes
	// keep extending the proven prefix (a geometric session runs
	// at-most-k, see NewSession). A range the prefix already covers is
	// answered Unreachable without a probe.
	check := func(k int) Result { return s.checkLocked(k) }
	var d DeepenResult
	if s.opts.Schedule == ScheduleGeometric {
		d = bmc.DeepenGeometricFrom(s.proven, maxBound, s.opts.GeometricRatio, check)
	} else {
		d = bmc.DeepenLinearFrom(s.proven, maxBound, check)
	}
	d.DecidedBy = s.engine.String()
	if d.Status == Unreachable {
		d.System = s.full
	}
	return d
}

// SeedProven extends the session's proven-unreachable prefix to k
// without solving anything: the caller asserts that bounds 0..k are
// Unreachable for this system under the session's semantics. bmcd
// seeds each new session this way from a deepen UNREACHABLE at bound k
// in its verdict cache — computed there or replicated from the key's
// previous owner — so the session resumes instead of re-solving the
// prefix cold. The assertion is trusted: seed only from a deepening run
// over the same (system, semantics, schedule), never from a single
// bounded check, which under Exact proves its own bound and not the
// bounds below it. Values at or below the current prefix are no-ops.
func (s *Session) SeedProven(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if k > s.proven {
		s.proven = k
	}
}

// encoded returns the system the warm engine encodes: the cone of
// influence of s.sys, self-looped under AtMost.
func (s *Session) encoded() *System {
	if s.incr != nil {
		return s.incr.System()
	}
	return s.js.System()
}
