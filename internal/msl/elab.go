package msl

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/model"
)

// signal is an elaborated expression value: a bit vector of AIG literals.
type signal []aig.Lit

type symbol struct {
	width int
	bits  []aig.Lit
	isReg bool
	line  int
}

// Elaborate compiles a parsed file into a transition system. The bad
// predicate is the disjunction of all bad statements.
func Elaborate(f *File) (*model.System, error) {
	g := aig.New()
	syms := make(map[string]*symbol)

	for _, in := range f.Inputs {
		if _, dup := syms[in.Name]; dup {
			return nil, errAt(in.Line, 1, "duplicate declaration of %q", in.Name)
		}
		bits := make([]aig.Lit, in.Width)
		for i := range bits {
			name := in.Name
			if in.Width > 1 {
				name = fmt.Sprintf("%s[%d]", in.Name, i)
			}
			bits[i] = g.AddInput(name)
		}
		syms[in.Name] = &symbol{width: in.Width, bits: bits, line: in.Line}
	}
	for _, d := range f.Decls {
		if _, dup := syms[d.Name]; dup {
			return nil, errAt(d.Line, 1, "duplicate declaration of %q", d.Name)
		}
		bits := make([]aig.Lit, d.Width)
		for i := range bits {
			name := d.Name
			if d.Width > 1 {
				name = fmt.Sprintf("%s[%d]", d.Name, i)
			}
			init := aig.Init0
			if d.InitX {
				init = aig.InitX
			} else if d.Init>>uint(i)&1 == 1 {
				init = aig.Init1
			}
			bits[i] = g.AddLatch(name, init)
		}
		syms[d.Name] = &symbol{width: d.Width, bits: bits, isReg: true, line: d.Line}
	}

	el := &elaborator{g: g, syms: syms}

	// Next-state equations: every register needs exactly one.
	assigned := make(map[string]bool)
	for _, nx := range f.Nexts {
		sym, ok := syms[nx.Name]
		if !ok {
			return nil, errAt(nx.Line, 1, "next for undeclared name %q", nx.Name)
		}
		if !sym.isReg {
			return nil, errAt(nx.Line, 1, "next target %q is an input", nx.Name)
		}
		if assigned[nx.Name] {
			return nil, errAt(nx.Line, 1, "register %q assigned twice", nx.Name)
		}
		assigned[nx.Name] = true
		val, err := el.eval(nx.Expr, sym.width)
		if err != nil {
			return nil, err
		}
		for i := range sym.bits {
			g.SetNext(sym.bits[i], val[i])
		}
	}
	for _, d := range f.Decls {
		if !assigned[d.Name] {
			return nil, errAt(d.Line, 1, "register %q has no next equation", d.Name)
		}
	}

	if len(f.Bads) == 0 {
		return nil, errAt(1, 1, "model %q declares no bad statement", f.Name)
	}
	bad := aig.False
	for _, b := range f.Bads {
		v, err := el.eval(b.Expr, 1)
		if err != nil {
			return nil, err
		}
		bad = g.Or(bad, v[0])
	}
	g.AddOutput("bad", bad)
	return model.New(f.Name, g, g.NumOutputs()-1), nil
}

// Load parses and elaborates MSL source in one step.
func Load(src string) (*model.System, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Elaborate(f)
}

type elaborator struct {
	g     *aig.Graph
	syms  map[string]*symbol
	depth int // evalHint recursion depth, bounded by maxNesting
}

// eval elaborates e, coercing it to wantWidth (0 = any width). Numeric
// literals adapt to the requested width; sized expressions must match.
func (el *elaborator) eval(e Expr, wantWidth int) (signal, error) {
	sig, width, err := el.evalHint(e, wantWidth)
	if err != nil {
		return nil, err
	}
	if width == 0 { // unsized literal
		n := e.(*Num)
		if wantWidth == 0 {
			line, col := e.Pos()
			return nil, errAt(line, col, "literal %d has no width from context", n.Value)
		}
		if wantWidth < 64 && n.Value >= uint64(1)<<uint(wantWidth) {
			line, col := e.Pos()
			return nil, errAt(line, col, "literal %d does not fit in %d bits", n.Value, wantWidth)
		}
		return signal(aig.ConstVec(wantWidth, n.Value)), nil
	}
	if wantWidth != 0 && width != wantWidth {
		line, col := e.Pos()
		return nil, errAt(line, col, "width mismatch: expression has %d bits, context needs %d", width, wantWidth)
	}
	return sig, nil
}

// evalAny elaborates e and returns its natural width; width 0 marks an
// unsized numeric literal (sig is nil in that case).
func (el *elaborator) evalAny(e Expr) (signal, int, error) { return el.evalHint(e, 0) }

// evalHint is evalAny with a width hint from the surrounding context,
// which lets literal-only ternary arms and operands adopt the expected
// width (hint 0 = no expectation).
func (el *elaborator) evalHint(e Expr, hint int) (signal, int, error) {
	el.depth++
	defer func() { el.depth-- }()
	if el.depth > maxNesting {
		line, col := e.Pos()
		return nil, 0, errAt(line, col, "expression nested deeper than %d levels", maxNesting)
	}
	g := el.g
	switch n := e.(type) {
	case *Num:
		if hint > 0 {
			if hint < 64 && n.Value >= uint64(1)<<uint(hint) {
				line, col := n.Pos()
				return nil, 0, errAt(line, col, "literal %d does not fit in %d bits", n.Value, hint)
			}
			return signal(aig.ConstVec(hint, n.Value)), hint, nil
		}
		return nil, 0, nil
	case *Ref:
		sym, ok := el.syms[n.Name]
		if !ok {
			line, col := n.Pos()
			return nil, 0, errAt(line, col, "undeclared name %q", n.Name)
		}
		return signal(sym.bits), sym.width, nil
	case *Index:
		x, w, err := el.evalAny(n.X)
		if err != nil {
			return nil, 0, err
		}
		if w == 0 {
			line, col := n.Pos()
			return nil, 0, errAt(line, col, "cannot index a literal")
		}
		if n.Bit < 0 || n.Bit >= w {
			line, col := n.Pos()
			return nil, 0, errAt(line, col, "bit index %d out of range for %d-bit value", n.Bit, w)
		}
		return signal{x[n.Bit]}, 1, nil
	case *Unary:
		x, w, err := el.evalAny(n.X)
		if err != nil {
			return nil, 0, err
		}
		line, col := n.Pos()
		if w == 0 {
			return nil, 0, errAt(line, col, "operator %s needs a sized operand", n.Op)
		}
		switch n.Op {
		case "~":
			return signal(aig.NotVec(x)), w, nil
		case "!":
			if w != 1 {
				return nil, 0, errAt(line, col, "'!' needs a 1-bit operand, got %d bits", w)
			}
			return signal{x[0].Not()}, 1, nil
		}
		return nil, 0, errAt(line, col, "unknown unary operator %s", n.Op)
	case *Binary:
		return el.evalBinary(n)
	case *Cond:
		c, err := el.eval(n.C, 1)
		if err != nil {
			return nil, 0, err
		}
		// Determine the arm width from whichever side is sized, falling
		// back to the context hint.
		tSig, tw, err := el.evalHint(n.T, hint)
		if err != nil {
			return nil, 0, err
		}
		eSig, ew, err := el.evalHint(n.E, hint)
		if err != nil {
			return nil, 0, err
		}
		switch {
		case tw == 0 && ew == 0:
			line, col := n.Pos()
			return nil, 0, errAt(line, col, "ternary arms have no width from context")
		case tw == 0:
			tSig, err = el.eval(n.T, ew)
			tw = ew
		case ew == 0:
			eSig, err = el.eval(n.E, tw)
			ew = tw
		}
		if err != nil {
			return nil, 0, err
		}
		if tw != ew {
			line, col := n.Pos()
			return nil, 0, errAt(line, col, "ternary arm widths differ: %d vs %d", tw, ew)
		}
		return signal(g.MuxVec(c[0], tSig, eSig)), tw, nil
	}
	return nil, 0, fmt.Errorf("msl: unknown expression node %T", e)
}

func (el *elaborator) evalBinary(n *Binary) (signal, int, error) {
	g := el.g
	line, col := n.Pos()

	// Shifts take a constant amount (already enforced by the parser).
	if n.Op == "<<" || n.Op == ">>" {
		x, w, err := el.evalAny(n.X)
		if err != nil {
			return nil, 0, err
		}
		if w == 0 {
			return nil, 0, errAt(line, col, "shift needs a sized operand")
		}
		amt := int(n.Y.(*Num).Value)
		out := make(signal, w)
		for i := range out {
			src := i - amt
			if n.Op == ">>" {
				src = i + amt
			}
			if src >= 0 && src < w {
				out[i] = x[src]
			} else {
				out[i] = aig.False
			}
		}
		return out, w, nil
	}

	// Resolve operand widths jointly: literals adapt to the sized side.
	xSig, xw, err := el.evalAny(n.X)
	if err != nil {
		return nil, 0, err
	}
	ySig, yw, err := el.evalAny(n.Y)
	if err != nil {
		return nil, 0, err
	}
	switch {
	case xw == 0 && yw == 0:
		return nil, 0, errAt(line, col, "operands of %s have no width from context", n.Op)
	case xw == 0:
		xSig, err = el.eval(n.X, yw)
		xw = yw
	case yw == 0:
		ySig, err = el.eval(n.Y, xw)
		yw = xw
	}
	if err != nil {
		return nil, 0, err
	}
	if xw != yw {
		return nil, 0, errAt(line, col, "operand widths of %s differ: %d vs %d", n.Op, xw, yw)
	}

	switch n.Op {
	case "|":
		return signal(g.OrVec(xSig, ySig)), xw, nil
	case "^":
		return signal(g.XorVec(xSig, ySig)), xw, nil
	case "&":
		return signal(g.AndVec(xSig, ySig)), xw, nil
	case "+":
		sum, _ := g.AddVec(xSig, ySig, aig.False)
		return signal(sum), xw, nil
	case "-":
		// x - y = x + ~y + 1.
		diff, _ := g.AddVec(xSig, aig.NotVec(ySig), aig.True)
		return signal(diff), xw, nil
	case "==":
		return signal{g.EqVec(xSig, ySig)}, 1, nil
	case "!=":
		return signal{g.EqVec(xSig, ySig).Not()}, 1, nil
	case "<":
		return signal{g.LtVec(xSig, ySig)}, 1, nil
	case ">":
		return signal{g.LtVec(ySig, xSig)}, 1, nil
	case "<=":
		return signal{g.LtVec(ySig, xSig).Not()}, 1, nil
	case ">=":
		return signal{g.LtVec(xSig, ySig).Not()}, 1, nil
	}
	return nil, 0, errAt(line, col, "unknown operator %s", n.Op)
}
