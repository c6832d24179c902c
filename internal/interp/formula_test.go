package interp

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"sort"
	"testing"

	"repro/internal/aig"
	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/msl"
)

// TestFormulasPinned pins Invariant.Check's three obligations, on the
// plain and self-looped system, to digests recorded before they were
// built from bmc.Frame. The invariant is a fixed predicate over the
// latches with gates in it: (z_0 ∧ ¬z_last) ∨ ¬z_mid.
func TestFormulasPinned(t *testing.T) {
	want := map[string]string{
		"arbiter/init ⊆ inv":    "14aa380c1b25fb9f",
		"arbiter/inv inductive": "b1b4136e359bad7a",
		"arbiter/inv ∩ bad = ∅": "cb10f2ff41f27159",
		"counter/init ⊆ inv":    "d601f29c42537201",
		"counter/inv inductive": "91147cc404357f8d",
		"counter/inv ∩ bad = ∅": "ca08a912bd68cfbc",
		"fifo/init ⊆ inv":       "aadd3d883aca9844",
		"fifo/inv inductive":    "9cd7ce5797b4b8ac",
		"fifo/inv ∩ bad = ∅":    "fc90badd3a31508e",
		"random/init ⊆ inv":     "a874dfed2e17a570",
		"random/inv inductive":  "f49d43c1e2143d91",
		"random/inv ∩ bad = ∅":  "1afe549d9b5ee003",
		"xreg/init ⊆ inv":       "e54931b0efc2f520",
		"xreg/inv inductive":    "3861d94268edc660",
		"xreg/inv ∩ bad = ∅":    "a302a39bee6534d3",
	}
	got := map[string]hash.Hash{}
	for _, fam := range pinnedFamilies(t) {
		for _, sem := range []bmc.Semantics{bmc.Exact, bmc.AtMost} {
			sys := bmc.Prepare(fam.sys, sem)
			g := aig.New()
			z := make([]aig.Lit, sys.NumStateVars())
			for i := range z {
				z[i] = g.AddInput("")
			}
			g.AddOutput("inv", g.Or(g.And(z[0], z[len(z)-1].Not()), z[len(z)/2].Not()))
			for i, f := range (&Invariant{G: g}).obligations(sys) {
				addDigest(t, got, fam.name+"/"+obligationNames[i], f.WriteDIMACS)
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
