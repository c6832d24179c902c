package sebmc

// Crash containment: the library-level half of the service's
// fault-isolation story. A solver panic — a real bug or an armed
// faultpoint — must never cross a concurrency boundary (it would kill
// the whole process from a portfolio or batch goroutine) and must never
// leave a warm Session trusted (its solver state is arbitrary after an
// unwound stack). This file defines the error type a recovered panic
// becomes and the one recover helper the Session, the portfolio and
// Prove race arms, and the batch closures share.

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError wraps a panic recovered inside a solver or session. The
// original panic value and the stack at recovery are retained for
// operators; Error keeps the one-line summary.
type PanicError struct {
	Val   any    // the value passed to panic
	Stack []byte // debug.Stack() at the recovery point
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("solver panic: %v", e.Val)
}

// ErrSessionPoisoned is returned (wrapped) by Session methods after a
// request on that session panicked: the warm solver state is untrusted
// and the session must be discarded, never reused.
var ErrSessionPoisoned = errors.New("sebmc: session poisoned by an earlier panic")

// AsPanic unwraps a PanicError from err, reporting whether err stems
// from a recovered panic (as opposed to, say, a budget Unknown or a
// quarantine rejection).
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// contain is the deferred recover every containment boundary in the
// library shares — portfolio and Prove race arms, batch pool items,
// Session requests: a panic becomes fail's indecisive result, built
// around the *PanicError, in place of whatever the function would
// have returned.
func contain[R any](res *R, fail func(*PanicError) R) {
	if v := recover(); v != nil {
		*res = fail(&PanicError{Val: v, Stack: debug.Stack()})
	}
}

// failedCheck is contain's fail for bounded checks at bound k.
func failedCheck(k int) func(*PanicError) Result {
	return func(pe *PanicError) Result { return Result{Status: Unknown, K: k, Err: pe} }
}

// failedDeepen is contain's fail for deepening runs.
func failedDeepen(pe *PanicError) DeepenResult {
	return DeepenResult{Status: Unknown, FoundAt: -1, Err: pe}
}

// failedVerdict is contain's fail for the Prove race arms.
func failedVerdict(pe *PanicError) Verdict { return Verdict{Status: Unknown, Err: pe} }
