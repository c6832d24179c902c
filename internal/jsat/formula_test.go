package jsat

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"sort"
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/msl"
	"repro/internal/tseitin"
)

// TestFormulasPinned pins the step and init solvers' formulas, on both
// CNF modes and both semantics, to digests recorded before jSAT built
// them from bmc.Frame.
func TestFormulasPinned(t *testing.T) {
	want := map[string]string{
		"arbiter/init": "7a3efd1f931c2da3",
		"arbiter/step": "1bcb8c96896a2d42",
		"counter/init": "df52fb53e88b842c",
		"counter/step": "195b2c4f5601b2d5",
		"fifo/init":    "2e9ff587cbd5653f",
		"fifo/step":    "ea92b667dbcd1519",
		"random/init":  "f23a984fe23f728a",
		"random/step":  "8a69644cdfb2f7d5",
		"xreg/init":    "8bc6cf6f7146066c",
		"xreg/step":    "170027bb8bd35627",
	}
	got := map[string]hash.Hash{}
	for _, fam := range pinnedFamilies(t) {
		for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
			for _, sem := range []bmc.Semantics{bmc.Exact, bmc.AtMost} {
				s := &Solver{opts: Options{Semantics: sem, Mode: mode}, sys: bmc.Prepare(fam.sys, sem)}
				addDigest(t, got, fam.name+"/step", s.stepFormula().WriteDIMACS)
				addDigest(t, got, fam.name+"/init", s.initFormula().WriteDIMACS)
			}
		}
	}
	checkDigests(t, want, got)
}

// pinnedFamilies are the models whose formulas TestFormulasPinned
// hashes, the same matrix internal/bmc's encoders are pinned on.
func pinnedFamilies(t *testing.T) []struct {
	name string
	sys  *model.System
} {
	xreg, err := msl.Load(`model xreg
input go;
var r : 2 = x;
var c : 3 = 0;
var noise : 2 = 1;
next r = go ? r + 1 : r;
next c = c + 1;
next noise = noise ^ 3;
bad c == 6 & r == 2;
`)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		sys  *model.System
	}{
		{"counter", circuits.Counter(3, 5)},
		{"fifo", circuits.FIFO(2)},
		{"arbiter", circuits.Arbiter(3)},
		{"random", circuits.RandomAIG(7, 2, 4, 12, 2)},
		{"xreg", xreg},
	}
}

// addDigest folds the formula write emits into the running digest name.
func addDigest(t *testing.T, got map[string]hash.Hash, name string, write func(io.Writer) error) {
	t.Helper()
	h, ok := got[name]
	if !ok {
		h = sha256.New()
		got[name] = h
	}
	if err := write(h); err != nil {
		t.Fatal(err)
	}
}

// checkDigests compares the running digests with the recorded ones,
// printing every mismatch in table form.
func checkDigests(t *testing.T, want map[string]string, got map[string]hash.Hash) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sum := hex.EncodeToString(got[name].Sum(nil))[:16]
		if sum != want[name] {
			t.Errorf("%q: %q, // recorded %q", name, sum, want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d digests recorded, %d computed", len(want), len(got))
	}
}
