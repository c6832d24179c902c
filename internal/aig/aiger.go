package aig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteAAG writes the graph in the ASCII AIGER 1.9 format ("aag").
// Nodes are renumbered canonically: variables 1..I are the inputs,
// I+1..I+L the latches, and the AND gates follow in topological order.
func (g *Graph) WriteAAG(w io.Writer) error {
	bw := bufio.NewWriter(w)

	// Renumbering: our node index -> aiger variable.
	varOf := make([]uint32, g.NumNodes())
	next := uint32(1)
	for _, n := range g.inputs {
		varOf[n] = next
		next++
	}
	for i := range g.latches {
		varOf[g.latches[i].Node] = next
		next++
	}
	var andNodes []uint32
	for n := uint32(1); n < uint32(g.NumNodes()); n++ {
		if g.kinds[n] == KindAnd {
			varOf[n] = next
			next++
			andNodes = append(andNodes, n)
		}
	}
	maxVar := next - 1

	relit := func(l Lit) uint32 {
		if l.Node() == 0 {
			return uint32(l) // constants keep their value
		}
		return varOf[l.Node()]<<1 | uint32(l&1)
	}

	if _, err := fmt.Fprintf(bw, "aag %d %d %d %d %d\n",
		maxVar, len(g.inputs), len(g.latches), len(g.outputs), len(andNodes)); err != nil {
		return err
	}
	for _, n := range g.inputs {
		fmt.Fprintf(bw, "%d\n", varOf[n]<<1)
	}
	for i := range g.latches {
		l := &g.latches[i]
		me := varOf[l.Node] << 1
		switch l.Init {
		case Init0:
			fmt.Fprintf(bw, "%d %d\n", me, relit(l.Next)) // default init is 0
		case Init1:
			fmt.Fprintf(bw, "%d %d 1\n", me, relit(l.Next))
		case InitX:
			fmt.Fprintf(bw, "%d %d %d\n", me, relit(l.Next), me)
		}
	}
	for i := range g.outputs {
		fmt.Fprintf(bw, "%d\n", relit(g.outputs[i].L))
	}
	for _, n := range andNodes {
		a := g.ands[n]
		fmt.Fprintf(bw, "%d %d %d\n", varOf[n]<<1, relit(a.a), relit(a.b))
	}
	// Symbol table.
	for i, n := range g.inputs {
		if g.names[n] != "" {
			fmt.Fprintf(bw, "i%d %s\n", i, g.names[n])
		}
	}
	for i := range g.latches {
		if g.latches[i].Name != "" {
			fmt.Fprintf(bw, "l%d %s\n", i, g.latches[i].Name)
		}
	}
	for i := range g.outputs {
		if g.outputs[i].Name != "" {
			fmt.Fprintf(bw, "o%d %s\n", i, g.outputs[i].Name)
		}
	}
	return bw.Flush()
}

// headerHint caps how many entries a count in an AIGER header may
// preallocate. Past it a collection grows as its lines arrive, so a
// header cannot make ParseAAG allocate for lines that never come, while
// typical models still parse with every collection sized once.
const headerHint = 1 << 12

type aagLatch struct {
	lit, next uint32
	init      Init
}

// ParseAAG reads an ASCII AIGER ("aag") file into a fresh graph.
func ParseAAG(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	readLine := func() (string, bool) {
		for sc.Scan() {
			t := strings.TrimSpace(sc.Text())
			if t != "" {
				return t, true
			}
		}
		return "", false
	}

	header, ok := readLine()
	if !ok {
		return nil, fmt.Errorf("aig: empty input")
	}
	hf := strings.Fields(header)
	if len(hf) != 6 || hf[0] != "aag" {
		return nil, fmt.Errorf("aig: bad header %q", header)
	}
	// A literal 2v+1 must fit in uint32, so no count or variable index
	// exceeds 2^31-1, and no sum of three overflows int.
	nums := make([]int, 5)
	for i := range nums {
		v, err := strconv.ParseUint(hf[i+1], 10, 31)
		if err != nil {
			return nil, fmt.Errorf("aig: bad header field %q", hf[i+1])
		}
		nums[i] = int(v)
	}
	maxVar, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nIn+nLatch+nAnd > maxVar {
		return nil, fmt.Errorf("aig: header M=%d too small for I+L+A=%d", maxVar, nIn+nLatch+nAnd)
	}

	parseFields := func(what string, n int) ([]uint32, error) {
		line, ok := readLine()
		if !ok {
			return nil, fmt.Errorf("aig: unexpected EOF reading %s", what)
		}
		fs := strings.Fields(line)
		if len(fs) < n {
			return nil, fmt.Errorf("aig: %s line %q has %d fields, want at least %d", what, line, len(fs), n)
		}
		out := make([]uint32, len(fs))
		for i, f := range fs {
			v, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("aig: bad number %q in %s line", f, what)
			}
			out[i] = uint32(v)
		}
		return out, nil
	}

	inputLits := make([]uint32, 0, min(nIn, headerHint))
	for range nIn {
		fs, err := parseFields("input", 1)
		if err != nil {
			return nil, err
		}
		if fs[0]&1 == 1 || fs[0] == 0 {
			return nil, fmt.Errorf("aig: input literal %d must be positive and non-constant", fs[0])
		}
		inputLits = append(inputLits, fs[0])
	}
	latchDefs := make([]aagLatch, 0, min(nLatch, headerHint))
	for range nLatch {
		fs, err := parseFields("latch", 2)
		if err != nil {
			return nil, err
		}
		ld := aagLatch{lit: fs[0], next: fs[1], init: Init0}
		if fs[0]&1 == 1 || fs[0] == 0 {
			return nil, fmt.Errorf("aig: latch literal %d must be positive and non-constant", fs[0])
		}
		if len(fs) >= 3 {
			switch fs[2] {
			case 0:
				ld.init = Init0
			case 1:
				ld.init = Init1
			case fs[0]:
				ld.init = InitX
			default:
				return nil, fmt.Errorf("aig: latch %d has invalid reset %d", fs[0], fs[2])
			}
		}
		latchDefs = append(latchDefs, ld)
	}
	outputLits := make([]uint32, 0, min(nOut, headerHint))
	for range nOut {
		fs, err := parseFields("output", 1)
		if err != nil {
			return nil, err
		}
		outputLits = append(outputLits, fs[0])
	}
	type andDef struct{ lhs, a, b uint32 }
	andByVar := make(map[uint32]andDef, min(nAnd, headerHint))
	for range nAnd {
		fs, err := parseFields("and", 3)
		if err != nil {
			return nil, err
		}
		if fs[0]&1 == 1 || fs[0] == 0 {
			return nil, fmt.Errorf("aig: and literal %d must be positive and non-constant", fs[0])
		}
		andByVar[fs[0]>>1] = andDef{fs[0], fs[1], fs[2]}
	}

	// Symbol table and comments.
	inNames := make([]string, nIn)
	latchNames := make([]string, nLatch)
	outNames := make([]string, nOut)
	for {
		line, ok := readLine()
		if !ok {
			break
		}
		if line == "c" || strings.HasPrefix(line, "c ") {
			break // comment section: ignore the rest
		}
		kind := line[0]
		rest := line[1:]
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("aig: bad symbol line %q", line)
		}
		idx, err := strconv.Atoi(rest[:sp])
		if err != nil {
			return nil, fmt.Errorf("aig: bad symbol index in %q", line)
		}
		name := rest[sp+1:]
		switch kind {
		case 'i':
			if idx >= nIn {
				return nil, fmt.Errorf("aig: input symbol index %d out of range", idx)
			}
			inNames[idx] = name
		case 'l':
			if idx >= nLatch {
				return nil, fmt.Errorf("aig: latch symbol index %d out of range", idx)
			}
			latchNames[idx] = name
		case 'o':
			if idx >= nOut {
				return nil, fmt.Errorf("aig: output symbol index %d out of range", idx)
			}
			outNames[idx] = name
		default:
			return nil, fmt.Errorf("aig: unknown symbol kind %q", string(kind))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Build the graph: inputs, latches, then ANDs resolved on demand.
	g := New()
	litOf := make(map[uint32]Lit, nIn+nLatch+nAnd) // aiger var -> our literal
	for i, al := range inputLits {
		litOf[al>>1] = g.AddInput(inNames[i])
	}
	latchLits := make([]Lit, nLatch)
	for i, ld := range latchDefs {
		latchLits[i] = g.AddLatch(latchNames[i], ld.init)
		litOf[ld.lit>>1] = latchLits[i]
	}

	// An acyclic definition nests at most one level per AND line, so
	// deeper recursion is a cycle. (Bounding it by the header's M would
	// let a cycle under a huge M recurse until the stack ran out.)
	var resolve func(al uint32, depth int) (Lit, error)
	resolve = func(al uint32, depth int) (Lit, error) {
		if depth > len(andByVar) {
			return 0, fmt.Errorf("aig: cyclic combinational definition near literal %d", al)
		}
		v := al >> 1
		if v == 0 {
			return Lit(al), nil // constant
		}
		if l, ok := litOf[v]; ok {
			if al&1 == 1 {
				return l.Not(), nil
			}
			return l, nil
		}
		ad, ok := andByVar[v]
		if !ok {
			return 0, fmt.Errorf("aig: literal %d is undefined", al)
		}
		a, err := resolve(ad.a, depth+1)
		if err != nil {
			return 0, err
		}
		b, err := resolve(ad.b, depth+1)
		if err != nil {
			return 0, err
		}
		// Structural rewriting may fold the gate to a constant or an
		// existing (possibly negated) node; the stored literal is the
		// value of the aiger variable's positive phase.
		l := g.And(a, b)
		litOf[v] = l
		if al&1 == 1 {
			return l.Not(), nil
		}
		return l, nil
	}

	for i, ld := range latchDefs {
		nl, err := resolve(ld.next, 0)
		if err != nil {
			return nil, err
		}
		g.SetNext(latchLits[i], nl)
	}
	for i, ol := range outputLits {
		l, err := resolve(ol, 0)
		if err != nil {
			return nil, err
		}
		g.AddOutput(outNames[i], l)
	}
	return g, nil
}
