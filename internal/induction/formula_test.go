package induction

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
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// TestFormulasPinned pins, on both CNF modes and on the plain and
// self-looped system, what the stepper loads into its solver while it
// answers step(0)..step(8) in order: frames, bad-free units and the
// simple-path pairs its models repeat. The eager reference formula at
// depths 0–8 is pinned as well, to the digests the engine's step case
// had before it became the stepper.
func TestFormulasPinned(t *testing.T) {
	want := map[string]string{
		"arbiter/eager": "487477b3cc2d98f6",
		"arbiter/step":  "eab469bb25b29f9d",
		"counter/eager": "2faa1d5704fd8bdf",
		"counter/step":  "93b1cf612b8c8394",
		"fifo/eager":    "3a32c7cedc328d44",
		"fifo/step":     "e89d7d0a0c32039b",
		"random/eager":  "cd592e58b9afb25e",
		"random/step":   "ef7297b235a88c46",
		"xreg/eager":    "fa423df58b5602de",
		"xreg/step":     "d7b02412c75ffc68",
	}
	got := map[string]hash.Hash{}
	for _, fam := range pinnedFamilies(t) {
		for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
			for _, sem := range []bmc.Semantics{bmc.Exact, bmc.AtMost} {
				sys := bmc.Prepare(fam.sys, sem)
				st := newStepper(sys, Options{Mode: mode})
				for k := 0; k <= 8; k++ {
					addDigest(t, got, fam.name+"/eager", stepFormula(sys, k, mode).WriteDIMACS)
					// check's loop, hashing each batch before it loads.
					st.extend(k)
					for {
						addDigest(t, got, fam.name+"/step", st.f.WriteDIMACS)
						st.flush()
						if st.s.Solve(st.bads[k+1]) != sat.Sat || !st.separateRepeats(k) {
							break
						}
					}
				}
			}
		}
	}
	checkDigests(t, want, got)
}

// family is a named model of a test matrix.
type family struct {
	name string
	sys  *model.System
}

// pinnedFamilies are the models whose formulas TestFormulasPinned
// hashes, the same matrix internal/bmc's encoders are pinned on.
func pinnedFamilies(t *testing.T) []family {
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
	return []family{
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
