package main

// CLI contract tests: the exit codes of the bmc tool are part of its
// interface (0 safe, 1 counterexample, 2 error/inconclusive, uniform
// across the single, batch, deepen and prove paths), so they are
// pinned here against a binary built from this package. Models live in
// testdata/: cex.msl reaches its bad state at exactly k=5, safe.msl
// never does, broken.msl does not parse.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	sebmc "repro"
)

var bmcBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bmc-cli")
	if err != nil {
		panic(err)
	}
	bmcBin = filepath.Join(dir, "bmc")
	out, err := exec.Command("go", "build", "-o", bmcBin, ".").CombinedOutput()
	if err != nil {
		panic("building bmc: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBMC executes the built binary and returns (combined output, exit
// code).
func runBMC(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bmcBin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		}
		t.Fatalf("running bmc %v: %v\n%s", args, err, out)
	}
	return string(out), 0
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  string
	}{
		{"single safe", []string{"-model", "testdata/safe.msl", "-k", "6"}, 0, "UNREACHABLE"},
		{"single cex", []string{"-model", "testdata/cex.msl", "-k", "5"}, 1, "REACHABLE"},
		{"single cex witness replays", []string{"-model", "testdata/cex.msl", "-k", "5", "-witness"}, 1, "witness validated"},
		{"single unknown (timeout)", []string{"-model", "testdata/cex.msl", "-k", "5", "-timeout", "1ns"}, 2, "UNKNOWN"},
		{"deepen finds cex", []string{"-model", "testdata/cex.msl", "-k", "8", "-deepen"}, 1, "at bound 5"},
		{"deepen safe", []string{"-model", "testdata/safe.msl", "-k", "8", "-deepen"}, 0, "UNREACHABLE"},
		// cex.msl, not safe.msl: the safe model's bounds are refuted
		// during clause loading (level-0 propagation), which legitimately
		// answers UNSAT before any deadline poll; the cex model's k=5
		// instance is satisfiable, so the expired deadline must surface.
		{"deepen unknown (timeout)", []string{"-model", "testdata/cex.msl", "-k", "8", "-deepen", "-timeout", "1ns"}, 2, "UNKNOWN"},
		{"prove safe", []string{"-model", "testdata/safe.msl", "-k", "20", "-prove"}, 0, "SAFE"},
		{"prove safe terminal", []string{"-model", "testdata/safe.msl", "-k", "20", "-prove"}, 0, "terminal"},
		{"prove falsified", []string{"-model", "testdata/cex.msl", "-k", "20", "-prove"}, 1, "REACHABLE"},
		{"prove interp engine", []string{"-model", "testdata/safe.msl", "-k", "20", "-engine", "interp"}, 0, "SAFE"},
		{"prove interp certificate", []string{"-model", "testdata/safe.msl", "-k", "20", "-prove", "-engine", "interp", "-cert"}, 0, "certificate (invariant) validated"},
		{"missing file", []string{"-model", "testdata/nonexistent.msl", "-k", "5"}, 2, ""},
		{"unparseable file", []string{"-model", "testdata/broken.msl", "-k", "5"}, 2, ""},
		{"unsupported extension", []string{"-model", "main.go", "-k", "5"}, 2, "unsupported model format"},
		{"no model at all", []string{"-k", "5"}, 2, ""},

		// Batch paths must script identically to single runs.
		{"batch all safe", []string{"-k", "6", "testdata/safe.msl", "testdata/safe.msl"}, 0, "batch: 2 models"},
		{"batch mixed has cex", []string{"-k", "5", "testdata/safe.msl", "testdata/cex.msl"}, 1, "REACHABLE"},
		{"batch deepen mixed", []string{"-k", "8", "-deepen", "testdata/safe.msl", "testdata/cex.msl"}, 1, "at bound 5"},
		{"batch load error", []string{"-k", "5", "testdata/safe.msl", "testdata/nonexistent.msl"}, 2, ""},
		{"batch unknown dominates cex", []string{"-k", "5", "-timeout", "1ns", "testdata/cex.msl", "testdata/safe.msl"}, 2, "UNKNOWN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runBMC(t, tc.args...)
			if code != tc.wantCode {
				t.Fatalf("bmc %v: exit %d, want %d\noutput:\n%s", tc.args, code, tc.wantCode, out)
			}
			if tc.wantOut != "" && !strings.Contains(out, tc.wantOut) {
				t.Fatalf("bmc %v: output missing %q:\n%s", tc.args, tc.wantOut, out)
			}
		})
	}
}

// TestLFSR2048Depth pins the explicit-state shortest counterexample of
// testdata/lfsr2048.aag, the deep LFSR the CI deep-bug smoke deepens
// geometrically and expects to find at bound 2048.
func TestLFSR2048Depth(t *testing.T) {
	sys, err := sebmc.LoadAIGERFile("testdata/lfsr2048.aag", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sebmc.ShortestCounterexample(sys); got != 2048 {
		t.Fatalf("lfsr2048.aag: shortest counterexample at %d, want 2048", got)
	}
}
