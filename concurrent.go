package sebmc

// This file is the concurrency face of the library: the portfolio
// engine (race complementary engines per query, first decisive answer
// wins, losers cancelled) and the batch runners CheckMany / DeepenMany
// (bounded work-stealing pool, deterministic result ordering). The
// mechanics live in internal/portfolio; the cooperative stop signal the
// solvers poll lives in internal/cancel.

import (
	"repro/internal/cancel"
	"repro/internal/portfolio"
)

// CancelFlag is a cooperative cancellation signal. Construct one with
// NewCancelFlag (or as a zero-value &CancelFlag{}), hand it to checks
// via Options.Cancel, and Set it to make every solver polling it return
// Unknown within a few conflicts. Derive per-query children from a
// parent with DeriveCancel; cancelling the parent cancels the children.
type CancelFlag = cancel.Flag

// NewCancelFlag returns a fresh root cancellation flag.
func NewCancelFlag() *CancelFlag { return &cancel.Flag{} }

// DeriveCancel returns a child flag that is cancelled when either it or
// parent is set. A nil parent yields a fresh root flag.
func DeriveCancel(parent *CancelFlag) *CancelFlag { return cancel.Derived(parent) }

// DefaultPortfolio is the engine set EnginePortfolio races: the three
// witness-producing SAT procedures with complementary space/time
// profiles. The QBF engines are left out — on anything beyond toy
// instances they lose every race (the observation that motivated jSAT
// in the first place).
func DefaultPortfolio() []Engine {
	return []Engine{EngineSAT, EngineSATIncr, EngineJSAT}
}

// checkPortfolio races one bounded query across DefaultPortfolio, each
// engine on its own solver over the shared read-only system. The first
// Reachable/Unreachable answer wins and the rest are cancelled; if every
// competitor comes back Unknown (budget, timeout, or caller
// cancellation), so does the portfolio.
func checkPortfolio(sys *System, k int, opts Options) Result {
	engines := DefaultPortfolio()
	tasks := make([]portfolio.Task[Result], len(engines))
	for i, eng := range engines {
		eng := eng
		tasks[i] = portfolio.Task[Result]{
			Name: eng.String(),
			// The arm runs on its own goroutine: an uncontained panic
			// there would kill the process, not the request, so each arm
			// recovers into an indecisive Err result (which can never win
			// the race).
			Run: func(c *cancel.Flag) (r Result) {
				defer contain(&r, failedCheck(k))
				o := opts
				o.Cancel = c
				return Check(sys, k, eng, o)
			},
		}
	}
	out := portfolio.Race(opts.Cancel, func(r Result) bool { return r.Status != Unknown }, tasks)
	res := out.Value
	if out.Winner < 0 {
		res.DecidedBy = "" // nobody decided; drop the fallback's tag
	}
	return res
}

// deepenPortfolio races whole iterative-deepening runs. Racing the runs
// rather than the individual bounds lets each engine keep its own
// deepening advantage (the incremental engine its persistent solver,
// jSAT its hopeless cache across bounds).
func deepenPortfolio(sys *System, maxBound int, opts Options) DeepenResult {
	engines := DefaultPortfolio()
	tasks := make([]portfolio.Task[DeepenResult], len(engines))
	for i, eng := range engines {
		eng := eng
		tasks[i] = portfolio.Task[DeepenResult]{
			Name: eng.String(),
			// Same containment as checkPortfolio: a panicking arm loses
			// the race instead of killing the process.
			Run: func(c *cancel.Flag) (d DeepenResult) {
				defer contain(&d, failedDeepen)
				o := opts
				o.Cancel = c
				return Deepen(sys, maxBound, eng, o)
			},
		}
	}
	out := portfolio.Race(opts.Cancel, func(d DeepenResult) bool { return d.Status != Unknown }, tasks)
	res := out.Value
	if out.Winner < 0 {
		res.DecidedBy = ""
	}
	return res
}

// Job is one item of a batch run: a system, a bound (the max bound for
// DeepenMany), the engine to use — EnginePortfolio included — and the
// item's own Options.
type Job struct {
	Sys    *System
	K      int
	Engine Engine
	Opts   Options
}

// CheckMany runs every job's bounded check on a bounded pool of
// workers and returns the results in job order, regardless of which
// worker finished when. workers <= 0 defaults to GOMAXPROCS. Idle
// workers steal the next pending job, so a batch of uneven queries
// stays load-balanced. To abort a whole batch, share one parent
// CancelFlag across the jobs' Options (or derive children from it) and
// Set it: in-flight checks return Unknown within a few conflicts and
// the remaining jobs complete immediately as Unknown.
func CheckMany(jobs []Job, workers int) []Result {
	return portfolio.Map(workers, jobs, func(_ int, j Job) (r Result) {
		// Pool workers are shared goroutines: one panicking item must
		// become that item's Err result, not the process's end.
		defer contain(&r, failedCheck(j.K))
		return Check(j.Sys, j.K, j.Engine, j.Opts)
	})
}

// DeepenMany is CheckMany for iterative-deepening runs: each job
// searches bounds 0..K with its engine, on the same work-stealing pool
// and with the same deterministic result ordering.
func DeepenMany(jobs []Job, workers int) []DeepenResult {
	return portfolio.Map(workers, jobs, func(_ int, j Job) (d DeepenResult) {
		defer contain(&d, failedDeepen)
		return Deepen(j.Sys, j.K, j.Engine, j.Opts)
	})
}
