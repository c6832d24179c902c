package sebmc_test

import (
	"testing"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/faultpoint"
)

// TestProveContainsArmPanics: both Prove arms run on goroutines of
// their own, so a solver panic in either must come back as a result,
// never as a dead process. With every SAT propagation panicking,
// neither arm can decide and the PanicError surfaces in Verdict.Err
// (not hidden behind an UNKNOWN). With only the first propagation
// panicking, one arm dies and the other still decides, in agreement
// with the explicit-state oracle.
func TestProveContainsArmPanics(t *testing.T) {
	defer faultpoint.Reset()
	models := map[string]*sebmc.System{
		"johnson-6-5": circuits.Johnson(6, 5),
		"counter-4-9": circuits.Counter(4, 9),
	}
	for name, sys := range models {
		faultpoint.Reset()
		faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 1, Repeat: true})
		v := sebmc.Prove(sys, 16, sebmc.Options{})
		if _, ok := sebmc.AsPanic(v.Err); !ok || v.Status != sebmc.Unknown {
			t.Fatalf("%s, every propagation panicking: got %v (err %v), want Unknown with a PanicError", name, v.Status, v.Err)
		}

		faultpoint.Reset()
		faultpoint.Arm("sat.propagate", faultpoint.Schedule{Kind: faultpoint.KindPanic, On: 1})
		v = sebmc.Prove(sys, 16, sebmc.Options{})
		if faultpoint.Fires("sat.propagate") != 1 {
			t.Fatalf("%s: the armed panic never fired", name)
		}
		if v.Err != nil {
			t.Fatalf("%s, one arm panicking: the other arm's answer was lost: %v", name, v.Err)
		}
		depth := sebmc.ShortestCounterexample(sys)
		switch {
		case depth < 0 && v.Status != sebmc.Safe:
			t.Fatalf("%s: oracle says safe, Prove says %v", name, v.Status)
		case depth >= 0 && (v.Status != sebmc.Reachable || v.K < depth):
			t.Fatalf("%s: oracle says reachable at %d, Prove says %v at %d", name, depth, v.Status, v.K)
		}
		if err := v.Certificate.Validate(v.System); err != nil {
			t.Fatalf("%s: certificate of the surviving arm does not replay: %v", name, err)
		}
	}
}
