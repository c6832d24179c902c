package msl

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/explicit"
)

const counterSrc = `
// An 8-bit counter with enable.
model counter
input en;
var count : 8 = 0;
next count = en ? count + 1 : count;
bad count == 10;
`

func TestParseCounter(t *testing.T) {
	f, err := Parse(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "counter" {
		t.Fatalf("model name %q", f.Name)
	}
	if len(f.Inputs) != 1 || f.Inputs[0].Name != "en" || f.Inputs[0].Width != 1 {
		t.Fatalf("inputs: %+v", f.Inputs)
	}
	if len(f.Decls) != 1 || f.Decls[0].Width != 8 || f.Decls[0].Init != 0 {
		t.Fatalf("decls: %+v", f.Decls)
	}
	if len(f.Nexts) != 1 || len(f.Bads) != 1 {
		t.Fatalf("stmts: %d nexts %d bads", len(f.Nexts), len(f.Bads))
	}
}

func TestElaborateCounterBehaviour(t *testing.T) {
	sys, err := Load(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumStateVars() != 8 || sys.NumInputs() != 1 {
		t.Fatalf("elaborated shape: %v", sys)
	}
	chk := explicit.New(sys)
	if got := chk.ShortestCounterexample(); got != 10 {
		t.Fatalf("shortest cex = %d, want 10", got)
	}
}

func TestOperatorSemantics(t *testing.T) {
	// One register per operator; behaviour checked by simulation against
	// a software model.
	src := `
model ops
input a : 4;
input b : 4;
var r_or  : 4 = 0;
var r_xor : 4 = 0;
var r_and : 4 = 0;
var r_add : 4 = 0;
var r_sub : 4 = 0;
var r_shl : 4 = 0;
var r_shr : 4 = 0;
var r_not : 4 = 0;
var r_eq  : 1 = 0;
var r_ne  : 1 = 0;
var r_lt  : 1 = 0;
var r_le  : 1 = 0;
var r_gt  : 1 = 0;
var r_ge  : 1 = 0;
var r_bit : 1 = 0;
var r_mux : 4 = 0;
next r_or  = a | b;
next r_xor = a ^ b;
next r_and = a & b;
next r_add = a + b;
next r_sub = a - b;
next r_shl = a << 1;
next r_shr = a >> 2;
next r_not = ~a;
next r_eq  = a == b;
next r_ne  = a != b;
next r_lt  = a < b;
next r_le  = a <= b;
next r_gt  = a > b;
next r_ge  = a >= b;
next r_bit = a[3];
next r_mux = a[0] ? a : b;
bad r_eq & r_ne; // impossible, keeps the model well-formed
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	e := aig.NewEvaluator(sys.Circ)
	n := sys.NumStateVars()
	for av := uint64(0); av < 16; av++ {
		for bv := uint64(0); bv < 16; bv++ {
			inputs := make([]bool, 8)
			for i := 0; i < 4; i++ {
				inputs[i] = av>>uint(i)&1 == 1
				inputs[4+i] = bv>>uint(i)&1 == 1
			}
			state := make([]bool, n)
			next, _ := e.StepBool(inputs, state)
			read := func(off, w int) uint64 {
				var v uint64
				for i := 0; i < w; i++ {
					if next[off+i] {
						v |= 1 << uint(i)
					}
				}
				return v
			}
			mask := uint64(0xF)
			checks := []struct {
				name string
				off  int
				w    int
				want uint64
			}{
				{"or", 0, 4, av | bv},
				{"xor", 4, 4, av ^ bv},
				{"and", 8, 4, av & bv},
				{"add", 12, 4, (av + bv) & mask},
				{"sub", 16, 4, (av - bv) & mask},
				{"shl", 20, 4, (av << 1) & mask},
				{"shr", 24, 4, av >> 2},
				{"not", 28, 4, ^av & mask},
				{"eq", 32, 1, b2u(av == bv)},
				{"ne", 33, 1, b2u(av != bv)},
				{"lt", 34, 1, b2u(av < bv)},
				{"le", 35, 1, b2u(av <= bv)},
				{"gt", 36, 1, b2u(av > bv)},
				{"ge", 37, 1, b2u(av >= bv)},
				{"bit", 38, 1, av >> 3 & 1},
				{"mux", 39, 4, mux(av, bv)},
			}
			for _, c := range checks {
				if got := read(c.off, c.w); got != c.want {
					t.Fatalf("a=%d b=%d op %s: got %d want %d", av, bv, c.name, got, c.want)
				}
			}
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mux(a, b uint64) uint64 {
	if a&1 == 1 {
		return a
	}
	return b
}

func TestInitX(t *testing.T) {
	src := `
model freeinit
var f : 2 = x;
next f = f;
bad f == 3;
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	chk := explicit.New(sys)
	if !chk.ReachableExact(0) {
		t.Fatalf("uninitialized register should allow bad at k=0")
	}
}

func TestInit1AndHex(t *testing.T) {
	src := `
model h
var r : 8 = 0xA5;
next r = r;
bad r == 0xA5;
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	chk := explicit.New(sys)
	if !chk.ReachableExact(0) {
		t.Fatalf("reset value not honored")
	}
}

func TestMultipleBadsDisjoin(t *testing.T) {
	src := `
model m
var r : 2 = 0;
next r = r + 1;
bad r == 2;
bad r == 1;
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	chk := explicit.New(sys)
	if got := chk.ShortestCounterexample(); got != 1 {
		t.Fatalf("disjunction of bads: shortest = %d, want 1", got)
	}
}

func TestVectorInput(t *testing.T) {
	src := `
model vi
input sel : 2;
var r : 2 = 0;
next r = sel;
bad r == 3;
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumInputs() != 2 {
		t.Fatalf("vector input width lost")
	}
	chk := explicit.New(sys)
	if got := chk.ShortestCounterexample(); got != 1 {
		t.Fatalf("shortest = %d, want 1", got)
	}
}

func TestTernaryLiteralArmsTakeContextWidth(t *testing.T) {
	// Both ternary arms are literals; the width must flow in from the
	// next-statement target, including through nesting.
	src := `
model tern
input a;
input b;
var r : 3 = 0;
next r = a ? (b ? 6 : 4) : 1;
bad r == 6;
`
	sys, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	chk := explicit.New(sys)
	if got := chk.ShortestCounterexample(); got != 1 {
		t.Fatalf("shortest = %d, want 1", got)
	}
}

func TestLiteralHintOverflowRejected(t *testing.T) {
	src := "model m\ninput a;\nvar r : 2 = 0;\nnext r = a ? 9 : 1;\nbad r == 1;\n"
	if _, err := Load(src); err == nil {
		t.Fatalf("literal 9 must not fit a 2-bit context")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"missing model", "input a;\n"},
		{"missing semi", "model m\nvar r : 1 = 0\nnext r = r;\nbad r;"},
		{"bad width", "model m\nvar r : 0 = 0;\nnext r = r;\nbad r;"},
		{"huge width", "model m\nvar r : 99 = 0;\nnext r = r;\nbad r;"},
		{"bad reset", "model m\nvar r : 1 = y;\nnext r = r;\nbad r;"},
		{"reset too big", "model m\nvar r : 2 = 7;\nnext r = r;\nbad r;"},
		{"stray char", "model m\nvar r : 1 = 0;\nnext r = r @ r;\nbad r;"},
		{"shift by expr", "model m\nvar r : 2 = 0;\nnext r = r << r;\nbad r == 1;"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestElaborateErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undeclared ref", "model m\nvar r : 1 = 0;\nnext r = q;\nbad r;"},
		{"duplicate decl", "model m\nvar r : 1 = 0;\nvar r : 1 = 0;\nnext r = r;\nbad r;"},
		{"input as next target", "model m\ninput i;\nvar r : 1 = 0;\nnext i = r;\nnext r = r;\nbad r;"},
		{"double next", "model m\nvar r : 1 = 0;\nnext r = r;\nnext r = r;\nbad r;"},
		{"missing next", "model m\nvar r : 1 = 0;\nbad r;"},
		{"no bad", "model m\nvar r : 1 = 0;\nnext r = r;"},
		{"width mismatch", "model m\nvar r : 2 = 0;\nvar s : 3 = 0;\nnext r = s;\nnext s = s;\nbad r == 1;"},
		{"cmp width mismatch", "model m\nvar r : 2 = 0;\nvar s : 3 = 0;\nnext r = r;\nnext s = s;\nbad r == s;"},
		{"literal no context", "model m\nvar r : 1 = 0;\nnext r = r;\nbad 1 == 1;"},
		{"index out of range", "model m\nvar r : 2 = 0;\nnext r = r;\nbad r[5];"},
		{"index literal", "model m\nvar r : 1 = 0;\nnext r = r;\nbad (1)[0];"},
		{"bad not bool", "model m\nvar r : 2 = 0;\nnext r = r;\nbad r;"},
		{"lnot on vector", "model m\nvar r : 2 = 0;\nnext r = r;\nbad !r == 1;"},
		{"literal too big", "model m\nvar r : 2 = 0;\nnext r = r + 9;\nbad r == 1;"},
	}
	for _, c := range cases {
		if _, err := Load(c.src); err == nil {
			t.Errorf("%s: expected elaboration error", c.name)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Load("model m\nvar r : 1 = 0;\nnext r = nosuch;\nbad r;")
	if err == nil {
		t.Fatal("expected error")
	}
	var e *Error
	if !asError(err, &e) {
		t.Fatalf("error is not *msl.Error: %T", err)
	}
	if e.Line != 3 {
		t.Fatalf("error line = %d, want 3", e.Line)
	}
	if !strings.Contains(err.Error(), "msl:3:") {
		t.Fatalf("error string lacks position: %q", err.Error())
	}
}

func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

// TestLoadRejectsDeepNesting feeds Load expressions nested a million
// levels deep in each shape the grammar nests: parentheses, an operator
// chain and prefix operators. Each is a positioned error, not a stack
// overflow, which no recover could catch. Prefix operators under a
// chain pass the parser, which counts each within the limit, but make a
// tree twice as deep: the elaborator rejects that one. An expression
// under the limit still loads.
func TestLoadRejectsDeepNesting(t *testing.T) {
	const n = 1_000_000
	src := func(expr string) string {
		return "model m\nvar x : 1 = 0;\nnext x = " + expr + ";\nbad x == 1;\n"
	}
	deepTree := strings.Repeat("~", maxNesting-1) + "x" + strings.Repeat(" & x", maxNesting-1)
	if _, err := Parse(src(deepTree)); err != nil {
		t.Errorf("prefix under chain should pass the parser: %v", err)
	}
	for name, expr := range map[string]string{
		"parentheses":        strings.Repeat("(", n) + "x" + strings.Repeat(")", n),
		"chain":              "x" + strings.Repeat(" & x", n),
		"prefix":             strings.Repeat("~", n) + "x",
		"prefix under chain": deepTree,
	} {
		_, err := Load(src(expr))
		var me *Error
		if !errors.As(err, &me) || !strings.Contains(me.Msg, "nested deeper than") || me.Line != 3 {
			t.Errorf("%s: got %v, want a line-3 nesting error", name, err)
		}
	}
	if _, err := Load(src(strings.Repeat("(~", maxNesting/3) + "x" + strings.Repeat(")", maxNesting/3))); err != nil {
		t.Errorf("nesting under the limit: %v", err)
	}
}

// FuzzLoadMSL: Load never panics, whatever the text, and a model it
// accepts writes out as AIGER that parses back with the same inputs,
// latches and outputs. Seeded from the CLI's test models.
func FuzzLoadMSL(f *testing.F) {
	seeds, err := filepath.Glob("../../cmd/bmc/testdata/*.msl")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed models: %v", err)
	}
	for _, p := range seeds {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Add(counterSrc)
	f.Fuzz(func(t *testing.T, src string) {
		sys, err := Load(src)
		if err != nil {
			return
		}
		var b strings.Builder
		if err := sys.Circ.WriteAAG(&b); err != nil {
			t.Fatal(err)
		}
		back, err := aig.ParseAAG(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("elaborated model does not round-trip through AIGER: %v", err)
		}
		if back.NumInputs() != sys.Circ.NumInputs() || back.NumLatches() != sys.Circ.NumLatches() || back.NumOutputs() != sys.Circ.NumOutputs() {
			t.Fatal("AIGER round trip changed the interface")
		}
	})
}
