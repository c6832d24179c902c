package aig

// Cone returns the cone of influence of the given root literals as a
// per-node membership table: the nodes they transitively depend on
// through combinational fanin and latch next-state functions. The
// constant node is always a member. The graph is only read, so
// concurrent calls on one graph are safe.
func Cone(g *Graph, roots ...Lit) []bool {
	inCone := make([]bool, g.NumNodes())
	inCone[0] = true
	next := make(map[uint32]Lit, len(g.latches))
	for _, l := range g.latches {
		next[l.Node] = l.Next
	}
	stack := append([]Lit(nil), roots...)
	for len(stack) > 0 {
		n := stack[len(stack)-1].Node()
		stack = stack[:len(stack)-1]
		if inCone[n] {
			continue
		}
		inCone[n] = true
		switch g.kinds[n] {
		case KindAnd:
			stack = append(stack, g.ands[n].a, g.ands[n].b)
		case KindLatch:
			stack = append(stack, next[n])
		}
	}
	return inCone
}

// ConeOfInfluence returns a new graph containing only the logic that the
// given outputs depend on (see Cone), with those outputs as its own, in
// order. The outputs need not be outputs of g: any literal of g may be
// named. Latches and inputs outside the cone are dropped; the kept ones
// keep their relative order. The second return value maps old latch
// indices to new ones (-1 when dropped).
func ConeOfInfluence(g *Graph, outs ...Output) (*Graph, []int) {
	roots := make([]Lit, len(outs))
	for i, o := range outs {
		roots[i] = o.L
	}
	inCone := Cone(g, roots...)

	out := New()
	newLit := make([]Lit, g.NumNodes())
	mapped := make([]bool, g.NumNodes())
	newLit[0], mapped[0] = False, true

	for _, n := range g.inputs {
		if inCone[n] {
			newLit[n] = out.AddInput(g.names[n])
			mapped[n] = true
		}
	}
	latchMap := make([]int, len(g.latches))
	for i := range latchMap {
		latchMap[i] = -1
	}
	for i := range g.latches {
		l := &g.latches[i]
		if inCone[l.Node] {
			latchMap[i] = out.NumLatches()
			newLit[l.Node] = out.AddLatch(l.Name, l.Init)
			mapped[l.Node] = true
		}
	}
	var rebuild func(l Lit) Lit
	rebuild = func(l Lit) Lit {
		n := l.Node()
		if !mapped[n] {
			a := g.ands[n]
			newLit[n] = out.And(rebuild(a.a), rebuild(a.b))
			mapped[n] = true
		}
		if l.IsNeg() {
			return newLit[n].Not()
		}
		return newLit[n]
	}
	for i := range g.latches {
		if latchMap[i] >= 0 {
			out.SetNext(newLit[g.latches[i].Node], rebuild(g.latches[i].Next))
		}
	}
	for _, o := range outs {
		out.AddOutput(o.Name, rebuild(o.L))
	}
	return out, latchMap
}
