package sebmc

import (
	"fmt"
	"strings"

	"repro/internal/bmc"
	"repro/internal/induction"
	"repro/internal/interp"
	"repro/internal/portfolio"
	"repro/internal/sat"
)

// Invariant is an inductive-invariant certificate: a combinational
// predicate over the latches of the certified (COI-reduced) system that
// contains the initial states, is closed under the transition relation,
// and excludes the bad states. Invariant.Check replays it by
// substitution alone — three plain SAT calls, no prover state.
type Invariant = interp.Invariant

// ParseInvariant reads an Invariant.String rendering (ASCII AIGER) back
// into a certificate.
func ParseInvariant(s string) (*Invariant, error) { return interp.ParseInvariant(s) }

// CertKind discriminates the payload of a Certificate.
type CertKind uint8

// Certificate kinds.
const (
	CertNone CertKind = iota
	// CertWitness: a counterexample trace (REACHABLE).
	CertWitness
	// CertInvariant: an inductive invariant (terminal SAFE).
	CertInvariant
)

// String names the kind.
func (k CertKind) String() string {
	switch k {
	case CertWitness:
		return "witness"
	case CertInvariant:
		return "invariant"
	}
	return "none"
}

// Certificate is the polymorphic proof object of a Verdict: the
// counterexample witness of a REACHABLE answer or the inductive
// invariant of a terminal SAFE — either way an independently replayable
// artifact with a text serialization (String / ParseCertificate).
type Certificate struct {
	Kind      CertKind
	Witness   *Witness   // set when Kind == CertWitness
	Invariant *Invariant // set when Kind == CertInvariant
}

// certHeader prefixes the serialization with the payload kind.
const (
	certHeaderWitness   = "certificate: witness"
	certHeaderInvariant = "certificate: invariant"
)

// String serializes the certificate: a one-line kind header followed by
// the payload's own replayable text format (the witness trace or the
// invariant's ASCII AIGER).
func (c *Certificate) String() string {
	if c == nil {
		return ""
	}
	switch c.Kind {
	case CertWitness:
		if c.Witness == nil {
			return ""
		}
		return certHeaderWitness + "\n" + c.Witness.String()
	case CertInvariant:
		if c.Invariant == nil {
			return ""
		}
		return certHeaderInvariant + "\n" + c.Invariant.String()
	}
	return ""
}

// ParseCertificate reads a Certificate.String rendering back into a
// Certificate, the counterpart of ParseWitness for the unified verdict
// surface. The kind header is authoritative: a witness text under an
// invariant header (or vice versa) is an error, never a reinterpretation.
func ParseCertificate(s string) (*Certificate, error) {
	head, rest, _ := strings.Cut(s, "\n")
	switch strings.TrimSpace(head) {
	case certHeaderWitness:
		w, err := bmc.ParseWitness(rest)
		if err != nil {
			return nil, err
		}
		return &Certificate{Kind: CertWitness, Witness: w}, nil
	case certHeaderInvariant:
		inv, err := interp.ParseInvariant(rest)
		if err != nil {
			return nil, err
		}
		return &Certificate{Kind: CertInvariant, Invariant: inv}, nil
	}
	return nil, fmt.Errorf("sebmc: not a certificate (missing kind header)")
}

// Validate replays the certificate against a system: witness traces are
// re-executed, invariants re-checked by substitution. A nil certificate
// validates trivially (some terminal verdicts — k-induction proofs —
// carry no artifact).
func (c *Certificate) Validate(sys *System) error {
	if c == nil {
		return nil
	}
	switch c.Kind {
	case CertWitness:
		if c.Witness == nil {
			return fmt.Errorf("sebmc: witness certificate without a trace")
		}
		return c.Witness.Validate(sys)
	case CertInvariant:
		if c.Invariant == nil {
			return fmt.Errorf("sebmc: invariant certificate without a predicate")
		}
		return c.Invariant.Check(sys, sat.Options{})
	}
	return nil
}

// Verdict is the unified result shape of the redesigned API: every
// checking surface — bounded Check, iterative Deepen, unbounded Prove —
// reduces to one of these. Prove returns it directly; Check and Deepen
// still return Result and DeepenResult, which VerdictOf and
// VerdictOfDeepen lift into this shape. The bmcd service consumes
// nothing else.
type Verdict struct {
	Status Status
	// K is the bound the status is relative to: the counterexample
	// depth for Reachable, the deepest refuted bound for Unreachable,
	// and for a terminal Safe the deepest bound that was also refuted
	// explicitly (informational — Safe holds everywhere).
	K int
	// Terminal reports a bound-independent verdict: true exactly for
	// Safe. Terminal verdicts are cached under a bound-free key and
	// answer any future bound for free.
	Terminal bool
	// Certificate is the replayable proof object, when the deciding
	// engine produced one: a witness for Reachable, an invariant for
	// Safe. May be nil (k-induction proves without an artifact).
	Certificate *Certificate
	// System is the transition system the certificate validates
	// against: the COI-reduced plain model for invariants, whose
	// latches any party reducing the same model agrees on; for
	// witnesses, the caller's model itself, self-looped when the
	// engine ran at-most-k (k-induction's base case always does).
	System    *System
	DecidedBy string
	Conflicts int64
	PeakBytes int
	// Iterations counts the solver invocations of a deepening run (0
	// for single checks and proofs).
	Iterations int
	// Err reports an internal failure; Status is Unknown when set.
	Err error
}

// VerdictOf lifts a bounded check Result into the unified shape.
func VerdictOf(r Result) Verdict {
	v := Verdict{
		Status:    r.Status,
		K:         r.K,
		Terminal:  r.Status == Safe,
		System:    r.System,
		DecidedBy: r.DecidedBy,
		Conflicts: r.Conflicts,
		PeakBytes: r.PeakBytes,
		Err:       r.Err,
	}
	if r.Witness != nil {
		v.Certificate = &Certificate{Kind: CertWitness, Witness: r.Witness}
	}
	return v
}

// VerdictOfDeepen lifts a DeepenResult of a run up to maxBound into
// the unified shape: K is the counterexample depth when Reachable and
// maxBound when Unreachable (every bound up to it was refuted).
func VerdictOfDeepen(d DeepenResult, maxBound int) Verdict {
	v := Verdict{
		Status:     d.Status,
		K:          d.FoundAt,
		System:     d.System,
		DecidedBy:  d.DecidedBy,
		Iterations: d.Iterations,
		Err:        d.Err,
	}
	if d.Status == Unreachable {
		v.K = maxBound
	}
	if d.Witness != nil {
		v.Certificate = &Certificate{Kind: CertWitness, Witness: d.Witness}
	}
	return v
}

// Prove attempts to settle the model at every bound: it races the
// interpolation engine (EngineInterp) against k-induction with the
// simple-path constraint on portfolio.Race, first decisive answer
// wins. maxK caps the induction depth and the interpolation window (0
// means the defaults).
//
// Outcomes:
//   - Safe (Terminal): no bad state is reachable at any depth. From the
//     interpolation arm this carries an Invariant certificate already
//     re-checked by substitution; the k-induction arm proves without an
//     artifact.
//   - Reachable: a counterexample exists at depth K; the certificate is
//     its witness.
//   - Unreachable: inconclusive, but no counterexample within K steps.
//   - Unknown: nothing established. Err is set when an arm panicked
//     and the other did not decide either.
func Prove(sys *System, maxK int, opts Options) Verdict {
	arms := []struct {
		name  string
		prove func(*System, int, Options, *CancelFlag) Verdict
	}{{"interp", proveInterp}, {"induction", proveInduction}}
	// Race joins every arm before it returns, so when neither decides
	// both answers are here to pick the fallback from.
	got := make([]Verdict, len(arms))
	tasks := make([]portfolio.Task[Verdict], len(arms))
	for i, a := range arms {
		tasks[i] = portfolio.Task[Verdict]{Name: a.name, Run: func(c *CancelFlag) Verdict {
			got[i] = a.prove(sys, maxK, opts, c)
			got[i].DecidedBy = a.name
			return got[i]
		}}
	}
	out := portfolio.Race(opts.Cancel, func(v Verdict) bool { return v.Status == Safe || v.Status == Reachable }, tasks)
	if out.Winner >= 0 {
		return out.Value
	}
	if moreInformative(got[1], got[0]) {
		return got[1]
	}
	return got[0]
}

// ProveInterp runs only the interpolation arm of Prove. Unlike the
// race, a Safe from this path always carries an invariant certificate —
// the deterministic choice when the caller needs the artifact (the
// service's engine=interp route, certificate-echo tests).
func ProveInterp(sys *System, maxK int, opts Options) Verdict {
	v := proveInterp(sys, maxK, opts, opts.Cancel)
	v.DecidedBy = "interp"
	return v
}

// moreInformative orders indecisive verdicts: an internal failure
// first (a panicked arm must surface, not hide behind the other arm's
// Unknown), then Unreachable over Unknown, then by proven depth.
func moreInformative(a, b Verdict) bool {
	if (a.Err != nil) != (b.Err != nil) {
		return a.Err != nil
	}
	if (a.Status == Unreachable) != (b.Status == Unreachable) {
		return a.Status == Unreachable
	}
	return a.K > b.K
}

// proveInterp runs the interpolation arm. Like every race arm it is
// contained: it runs on its own goroutine, where an escaped panic would
// kill the process, so a panic becomes an indecisive Err verdict that
// can never win.
func proveInterp(sys *System, maxK int, opts Options, flag *CancelFlag) (v Verdict) {
	defer contain(&v, failedVerdict)
	iopts := interp.Options{
		Mode: opts.mode(),
		SAT:  sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: opts.deadline(), Cancel: flag},
	}
	if maxK > 0 {
		iopts.MaxWindow = maxK
	}
	ir := interp.Solve(sys, iopts)
	v = Verdict{
		Status:    ir.Status,
		K:         ir.K,
		Terminal:  ir.Status == Safe,
		System:    ir.System,
		Conflicts: ir.Conflicts,
		PeakBytes: ir.PeakBytes,
	}
	switch {
	case ir.Invariant != nil:
		v.Certificate = &Certificate{Kind: CertInvariant, Invariant: ir.Invariant}
	case ir.Witness != nil:
		var w *Witness
		v.System, w = bmc.Lift(sys, ir.System, ir.Witness)
		v.Certificate = &Certificate{Kind: CertWitness, Witness: w}
	}
	return v
}

// proveInduction runs the k-induction arm, contained like proveInterp.
func proveInduction(sys *System, maxK int, opts Options, flag *CancelFlag) (v Verdict) {
	defer contain(&v, failedVerdict)
	if maxK <= 0 {
		maxK = 64
	}
	pr := induction.Prove(sys, maxK, induction.Options{
		Mode: opts.mode(),
		SAT:  sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: opts.deadline(), Cancel: flag},
	})
	v = Verdict{K: pr.K, System: pr.System, Conflicts: pr.Conflicts, PeakBytes: pr.PeakBytes}
	switch pr.Status {
	case induction.Proved:
		v.Status = Safe
		v.Terminal = true
	case induction.Falsified:
		v.Status = Reachable
		var w *Witness
		if v.System, w = bmc.Lift(sys, pr.System, pr.Witness); w != nil {
			v.Certificate = &Certificate{Kind: CertWitness, Witness: w}
		}
	default:
		v.Status = Unknown
	}
	return v
}
