package aig

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func encodeAAG(g *Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func parseAAGBytes(b []byte) (*Graph, error) {
	return ParseAAG(bytes.NewReader(b))
}

func TestParseAAGToggle(t *testing.T) {
	// The classic AIGER example: a toggle flip-flop with an enable-less
	// inverter feedback, output = latch.
	in := "aag 1 0 1 1 0\n2 3\n2\nl0 toggle\no0 out\n"
	g, err := ParseAAG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLatches() != 1 || g.NumOutputs() != 1 || g.NumInputs() != 0 {
		t.Fatalf("shape wrong: %v", g)
	}
	if g.Latches()[0].Name != "toggle" {
		t.Fatalf("latch name lost")
	}
	state, _ := InitialStates(g)
	e := NewEvaluator(g)
	want := false
	for step := 0; step < 6; step++ {
		next, outs := e.StepBool(nil, state)
		if outs[0] != want {
			t.Fatalf("step %d: out=%v want %v", step, outs[0], want)
		}
		state = next
		want = !want
	}
}

func TestParseAAGAndGate(t *testing.T) {
	// Half adder carry: two inputs, one AND.
	in := "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 x\ni1 y\no0 carry\n"
	g, err := ParseAAG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(g)
	for bits := 0; bits < 4; bits++ {
		_, outs := e.StepBool([]bool{bits&1 == 1, bits&2 == 2}, nil)
		if outs[0] != (bits == 3) {
			t.Fatalf("bits %02b: carry=%v", bits, outs[0])
		}
	}
}

func TestParseAAGUninitializedLatch(t *testing.T) {
	// Latch with reset field equal to its own literal: uninitialized.
	in := "aag 1 0 1 1 0\n2 2 2\n2\n"
	g, err := ParseAAG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	_, free := InitialStates(g)
	if len(free) != 1 {
		t.Fatalf("expected one uninitialized latch, got %v", free)
	}
}

func TestParseAAGConstantOutput(t *testing.T) {
	in := "aag 0 0 0 2 0\n0\n1\n"
	g, err := ParseAAG(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(g)
	_, outs := e.StepBool(nil, nil)
	if outs[0] != false || outs[1] != true {
		t.Fatalf("constant outputs wrong: %v", outs)
	}
}

func TestParseAAGErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad magic", "aig 0 0 0 0 0\n"},
		{"bad counts", "aag 0 0 0 1 1\n"},
		{"odd input literal", "aag 1 1 0 0 0\n3\n"},
		{"undefined literal", "aag 2 1 0 1 0\n2\n4\n"},
		{"bad latch reset", "aag 2 0 1 0 0\n2 2 4\n"},
		{"cyclic and", "aag 2 0 0 1 1\n4\n4 4 4\n"},
	}
	for _, c := range cases {
		if _, err := ParseAAG(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestWriteAAGHeaderCounts(t *testing.T) {
	g := buildCounter(3, 5)
	b, err := encodeAAG(g)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(b), "\n", 2)[0]
	var m, i, l, o, a int
	if _, err := fmtSscanf(first, &m, &i, &l, &o, &a); err != nil {
		t.Fatalf("bad header %q: %v", first, err)
	}
	if i != 0 || l != 3 || o != 1 {
		t.Fatalf("header counts wrong: %q", first)
	}
	if m != i+l+a {
		t.Fatalf("M should equal I+L+A for canonical output: %q", first)
	}
}

func fmtSscanf(s string, m, i, l, o, a *int) (int, error) {
	var tag string
	n, err := sscan(s, &tag, m, i, l, o, a)
	return n, err
}

// sscan is a tiny field scanner avoiding fmt.Sscanf's space semantics.
func sscan(s string, tag *string, nums ...*int) (int, error) {
	fields := strings.Fields(s)
	if len(fields) != len(nums)+1 {
		return 0, errFieldCount
	}
	*tag = fields[0]
	for i, f := range fields[1:] {
		v := 0
		for _, ch := range f {
			if ch < '0' || ch > '9' {
				return i, errFieldCount
			}
			v = v*10 + int(ch-'0')
		}
		*nums[i] = v
	}
	return len(nums), nil
}

var errFieldCount = &fieldErr{}

type fieldErr struct{}

func (*fieldErr) Error() string { return "bad field count" }

func TestSymbolTableRoundtrip(t *testing.T) {
	g := New()
	a := g.AddInput("req")
	l := g.AddLatch("busy", Init1)
	g.SetNext(l, g.Or(l, a))
	g.AddOutput("grant", g.And(l, a))
	b, err := encodeAAG(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseAAGBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.Inputs()[0].Node() == 0 || back.NameOf(back.Inputs()[0].Node()) != "req" {
		t.Fatalf("input name lost")
	}
	if back.Latches()[0].Name != "busy" {
		t.Fatalf("latch name lost")
	}
	if back.Outputs()[0].Name != "grant" {
		t.Fatalf("output name lost")
	}
	if back.Latches()[0].Init != Init1 {
		t.Fatalf("latch init lost")
	}
}

// TestParseAAGHeaderBounds parses headers whose counts are far larger
// than the text behind them. Nothing is sized from the header, so each
// parses or fails on a few kilobytes: a 2e8 M with one constant output,
// 1e8 inputs that never arrive, counts whose sum overflows int, and a
// cyclic AND under a huge M, which once recursed until the stack ran
// out.
func TestParseAAGHeaderBounds(t *testing.T) {
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{"aag 200000000 0 0 1 0\n0\n", true},
		{"aag 100000000 100000000 0 0 0\n", false},
		{"aag 4611686018427387904 4611686018427387904 4611686018427387904 0 0\n", false},
		{"aag 2147483647 0 0 1 1\n2\n2 2 2\n", false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseAAG(strings.NewReader(tc.text))
		runtime.ReadMemStats(&after)
		if (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok=%v", tc.text, err, tc.ok)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b >= 1<<20 {
			t.Errorf("%q: %d bytes allocated, want under 1 MiB", tc.text, b)
		}
	}
}

// FuzzParseAAG: ParseAAG never panics, and a graph it accepts survives
// WriteAAG → ParseAAG with the same inputs, latches (names and resets
// too), outputs and simulated behaviour.
func FuzzParseAAG(f *testing.F) {
	for _, s := range []string{
		"aag 1 0 1 1 0\n2 3\n2\n",
		"aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 y\n",
		"aag 2 1 1 1 0\n2\n4 2 4\n4\nl0 r\nc\ncomment\n",
		"aag 200000000 0 0 1 0\n0\n",
		"aag 2147483647 0 0 1 1\n2\n2 2 2\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		g, err := ParseAAG(strings.NewReader(text))
		if err != nil {
			return
		}
		b, err := encodeAAG(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := parseAAGBytes(b)
		if err != nil {
			t.Fatalf("written graph does not parse: %v\n%s", err, b)
		}
		if back.NumInputs() != g.NumInputs() || back.NumLatches() != g.NumLatches() || back.NumOutputs() != g.NumOutputs() {
			t.Fatalf("round trip changed the interface: %d/%d/%d inputs/latches/outputs, want %d/%d/%d",
				back.NumInputs(), back.NumLatches(), back.NumOutputs(), g.NumInputs(), g.NumLatches(), g.NumOutputs())
		}
		for i, il := range g.Inputs() {
			if back.NameOf(back.Inputs()[i].Node()) != g.NameOf(il.Node()) {
				t.Fatalf("input %d renamed", i)
			}
		}
		for i, l := range g.Latches() {
			if bl := back.Latches()[i]; bl.Name != l.Name || bl.Init != l.Init {
				t.Fatalf("latch %d: %q/%v, want %q/%v", i, bl.Name, bl.Init, l.Name, l.Init)
			}
		}
		for i, o := range g.Outputs() {
			if back.Outputs()[i].Name != o.Name {
				t.Fatalf("output %d renamed", i)
			}
		}
		if simulate(t, g, 8, rand.New(rand.NewSource(1))) != simulate(t, back, 8, rand.New(rand.NewSource(1))) {
			t.Fatal("behaviour differs after the round trip")
		}
	})
}
