package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownExperimentExits2: -e with a name that is neither an
// experiment nor "all" runs nothing, exits 2, and lists the names. The
// test binary re-runs itself as the command.
func TestUnknownExperimentExits2(t *testing.T) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = []string{"experiments", "-e", "bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExperimentExits2$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("experiments -e bogus: %v, want exit 2\n%s", err, out)
	}
	want := "table1, growth, memory, squaring, ablation, qbfwall, deepbug, all"
	if !strings.Contains(string(out), want) {
		t.Fatalf("experiments -e bogus printed\n%s\nwant the list %q", out, want)
	}
}
