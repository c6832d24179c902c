package bmc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"testing"

	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/msl"
	"repro/internal/tseitin"
)

// pinnedFamilies are the models whose formulas TestFormulasPinned
// hashes: plain and input-driven circuits, a random AIG, and an MSL
// model with a free reset and a register outside the bad cone.
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

// TestFormulasPinned pins every formula the bmc encoders build on a
// fixed matrix — the families above, both CNF modes, both semantics,
// bounds 0–8 — to digests recorded before the encoders shared one frame
// core. A change in variable numbering, clause order or literal order
// moves a digest; so would any change in what the solvers are asked.
func TestFormulasPinned(t *testing.T) {
	want := map[string]string{
		"arbiter/interp":   "ad5e765dea97388e",
		"arbiter/linear":   "0ff28289307b59c7",
		"arbiter/squaring": "69bf164587b3157b",
		"arbiter/unroll":   "f7e624ab9b123768",
		"counter/interp":   "42a880fb00c957b4",
		"counter/linear":   "0b6efd5b19c48940",
		"counter/squaring": "116673f53bb08dea",
		"counter/unroll":   "8e23db7e2786cafa",
		"fifo/interp":      "ebe312aed1476b41",
		"fifo/linear":      "924d67e547c45b72",
		"fifo/squaring":    "c01871ea1199650d",
		"fifo/unroll":      "5f26976655a41038",
		"random/interp":    "71fb89d0f382cc01",
		"random/linear":    "f5a6bafd8a27fd1f",
		"random/squaring":  "490f27347beb2fe8",
		"random/unroll":    "d87ba0b45b7a56b3",
		"xreg/interp":      "fd0babe2bd4c26eb",
		"xreg/linear":      "0e742f2c466e4c39",
		"xreg/squaring":    "e0f53cf14b8b77f4",
		"xreg/unroll":      "1b9850513cf20326",
	}
	got := map[string]hash.Hash{}
	add := func(name string, write func(io.Writer) error) { addDigest(t, got, name, write) }
	for _, fam := range pinnedFamilies(t) {
		for _, mode := range []tseitin.Mode{tseitin.Full, tseitin.PlaistedGreenbaum} {
			for _, sem := range []bmc.Semantics{bmc.Exact, bmc.AtMost} {
				sys := bmc.Prepare(fam.sys, sem)
				for k := 0; k <= 8; k++ {
					add(fam.name+"/unroll", bmc.EncodeUnroll(sys, k, mode).F.WriteDIMACS)
					add(fam.name+"/linear", bmc.EncodeLinear(sys, k, mode).P.WriteQDIMACS)
					if k&(k-1) == 0 {
						se, err := bmc.EncodeSquaring(sys, k, mode)
						if err != nil {
							t.Fatal(err)
						}
						add(fam.name+"/squaring", se.P.WriteQDIMACS)
					}
					if k == 0 {
						continue
					}
					for _, emitR := range []func(*cnf.Formula, []cnf.Var){
						nil,
						func(f *cnf.Formula, state []cnf.Var) { f.AddUnit(cnf.NegLit(state[0])) },
					} {
						e := bmc.EncodeInterp(sys, k, mode, emitR)
						add(fam.name+"/interp", func(w io.Writer) error {
							if _, err := fmt.Fprintf(w, "A %d\n", e.NumA); err != nil {
								return err
							}
							return e.F.WriteDIMACS(w)
						})
					}
				}
			}
		}
	}
	checkDigests(t, want, got)
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
