// Package circuits builds the benchmark transition systems of the
// reproduction: thirteen parameterized families of sequential circuits
// standing in for the thirteen proprietary Intel test cases of the
// paper's evaluation. The families cover the structural variety that
// stresses BMC engines differently: deterministic deep counters (long
// counterexamples, no branching), input-driven data paths (wide successor
// fan-out), safe control logic (unsatisfiable instances requiring full
// exhaustion), and unstructured random logic.
package circuits

import (
	"fmt"
	mathbits "math/bits"
	"math/rand"

	"repro/internal/aig"
	"repro/internal/model"
)

// Counter is an n-bit free-running counter; bad when the count reaches
// target. The counterexample has exactly length target; the system is
// deterministic, the best case for jSAT's depth-first search.
func Counter(n int, target uint64) *model.System {
	g := aig.New()
	state := latchVec(g, n, "c")
	next, _ := g.IncVec(state)
	setNextVec(g, state, next)
	g.AddOutput("bad", g.EqConst(state, target))
	return model.New(fmt.Sprintf("counter%d-t%d", n, target), g, 0)
}

// CounterEnable is an n-bit counter that increments only when the enable
// input is high; bad at target. Counterexamples exist at every bound ≥
// target (idle cycles pad the path), so exact-k instances become
// satisfiable from k = target onward.
func CounterEnable(n int, target uint64) *model.System {
	g := aig.New()
	en := g.AddInput("en")
	state := latchVec(g, n, "c")
	inc, _ := g.IncVec(state)
	next := g.MuxVec(en, inc, state)
	setNextVec(g, state, next)
	g.AddOutput("bad", g.EqConst(state, target))
	return model.New(fmt.Sprintf("counteren%d-t%d", n, target), g, 0)
}

// TokenRing is an n-stage one-hot token ring; the token starts at stage 0
// and advances each cycle; bad when it reaches the last stage:
// counterexample length n-1, then periodically every n.
func TokenRing(n int) *model.System {
	g := aig.New()
	state := make([]aig.Lit, n)
	for i := range state {
		init := aig.Init0
		if i == 0 {
			init = aig.Init1
		}
		state[i] = g.AddLatch(fmt.Sprintf("t%d", i), init)
	}
	for i := range state {
		g.SetNext(state[i], state[(i+n-1)%n])
	}
	g.AddOutput("bad", state[n-1])
	return model.New(fmt.Sprintf("tokenring%d", n), g, 0)
}

// LFSR is an n-bit Galois linear-feedback shift register seeded with 1;
// bad when the register holds target. With a primitive-like tap mask the
// orbit is long, producing deep deterministic counterexamples.
func LFSR(n int, taps uint64, target uint64) *model.System {
	g := aig.New()
	state := make([]aig.Lit, n)
	for i := range state {
		init := aig.Init0
		if i == 0 {
			init = aig.Init1 // seed 1
		}
		state[i] = g.AddLatch(fmt.Sprintf("r%d", i), init)
	}
	out := state[0]
	next := make([]aig.Lit, n)
	for i := 0; i < n-1; i++ {
		if taps>>uint(i+1)&1 == 1 {
			next[i] = g.Xor(state[i+1], out)
		} else {
			next[i] = state[i+1]
		}
	}
	next[n-1] = out
	for i := range state {
		g.SetNext(state[i], next[i])
	}
	g.AddOutput("bad", g.EqConst(state, target))
	return model.New(fmt.Sprintf("lfsr%d-t%d", n, target), g, 0)
}

// DeepCounter is the deep-bug counter family: a free-running counter
// wide enough that its shortest counterexample sits at exactly depth —
// the regime (depth 500–4096 in the E11 workload) where k → k+1
// deepening needs one solver invocation per bound and a geometric or
// squaring schedule needs O(log depth).
func DeepCounter(depth uint64) *model.System {
	n := mathbits.Len64(depth) + 1
	return Counter(n, depth)
}

// DeepLFSR is the deep-bug LFSR family: the bad target is the register
// value reached after exactly depth steps from the seed, verified by
// simulation to be the state's *first* occurrence, so the shortest
// counterexample depth is exactly depth. Panics when the register's
// orbit revisits the target earlier (the family would be mislabeled) —
// pick a wider register or different taps.
func DeepLFSR(n int, taps uint64, depth int) *model.System {
	probe := LFSR(n, taps, 0)
	e := aig.NewEvaluator(probe.Circ)
	state, _ := aig.InitialStates(probe.Circ)
	pack := func(s []bool) uint64 {
		var v uint64
		for i, b := range s {
			if b {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	firstSeen := map[uint64]int{pack(state): 0}
	target := pack(state)
	for i := 1; i <= depth; i++ {
		state, _ = e.StepBool(nil, state)
		target = pack(state)
		if _, ok := firstSeen[target]; !ok {
			firstSeen[target] = i
		}
	}
	if first := firstSeen[target]; first != depth {
		panic(fmt.Sprintf("circuits: DeepLFSR(%d, %#x, %d): target state first occurs at step %d; widen the register or change the taps", n, taps, depth, first))
	}
	return LFSR(n, taps, target)
}

// GrayCounter is an n-bit Gray-code counter (binary core with Gray
// output); bad when the Gray pattern equals target.
func GrayCounter(n int, target uint64) *model.System {
	g := aig.New()
	state := latchVec(g, n, "b")
	next, _ := g.IncVec(state)
	setNextVec(g, state, next)
	gray := make([]aig.Lit, n)
	for i := 0; i < n-1; i++ {
		gray[i] = g.Xor(state[i], state[i+1])
	}
	gray[n-1] = state[n-1]
	g.AddOutput("bad", g.EqConst(gray, target))
	return model.New(fmt.Sprintf("gray%d-t%d", n, target), g, 0)
}

// Johnson is an n-stage Johnson (twisted-ring) counter; bad when the
// register holds target. Period 2n.
func Johnson(n int, target uint64) *model.System {
	g := aig.New()
	state := latchVec(g, n, "j")
	for i := n - 1; i > 0; i-- {
		g.SetNext(state[i], state[i-1])
	}
	g.SetNext(state[0], state[n-1].Not())
	g.AddOutput("bad", g.EqConst(state, target))
	return model.New(fmt.Sprintf("johnson%d-t%d", n, target), g, 0)
}

// TrafficLight is a two-road traffic-light controller with a phase timer.
// Each road cycles Red→Green→Yellow under a shared timer; the controller
// is correct by construction, so the "both green" bad state is
// unreachable — unsatisfiable instances at every bound.
func TrafficLight(timerBits int) *model.System {
	g := aig.New()
	// Phase: 2 bits — 0: A green, 1: A yellow, 2: B green, 3: B yellow.
	p0 := g.AddLatch("p0", aig.Init0)
	p1 := g.AddLatch("p1", aig.Init0)
	timer := latchVec(g, timerBits, "tm")
	timerMax := g.EqConst(timer, (uint64(1)<<uint(timerBits))-1)
	inc, _ := g.IncVec(timer)
	zero := aig.ConstVec(timerBits, 0)
	setNextVec(g, timer, g.MuxVec(timerMax, zero, inc))
	// Advance phase when the timer wraps.
	phase := []aig.Lit{p0, p1}
	incPhase, _ := g.IncVec(phase)
	nextPhase := g.MuxVec(timerMax, incPhase, phase)
	g.SetNext(p0, nextPhase[0])
	g.SetNext(p1, nextPhase[1])
	// Each road's green indicator is a registered decode of the phase,
	// so the safety property is a genuine state predicate (two latches),
	// not a combinationally false expression.
	aGreen := g.AddLatch("greenA", aig.Init1) // phase 0 at reset
	bGreen := g.AddLatch("greenB", aig.Init0)
	g.SetNext(aGreen, g.And(nextPhase[0].Not(), nextPhase[1].Not())) // phase 0
	g.SetNext(bGreen, g.And(nextPhase[0].Not(), nextPhase[1]))       // phase 2
	g.AddOutput("bad", g.And(aGreen, bGreen))
	return model.New(fmt.Sprintf("traffic%d", timerBits), g, 0)
}

// Arbiter is an n-client round-robin arbiter: requests are captured into
// pending latches each cycle; a one-hot grant token rotates; a client is
// granted when its captured request coincides with the token. Two
// simultaneous grants are impossible — unsatisfiable at every bound —
// but the captured-request register gives every state 2^n distinct
// successors, a realistic input-rich profile that is hostile to
// explicit successor enumeration.
func Arbiter(n int) *model.System {
	g := aig.New()
	reqs := make([]aig.Lit, n)
	for i := range reqs {
		reqs[i] = g.AddInput(fmt.Sprintf("req%d", i))
	}
	pending := make([]aig.Lit, n)
	for i := range pending {
		pending[i] = g.AddLatch(fmt.Sprintf("pend%d", i), aig.Init0)
		g.SetNext(pending[i], reqs[i])
	}
	token := make([]aig.Lit, n)
	for i := range token {
		init := aig.Init0
		if i == 0 {
			init = aig.Init1
		}
		token[i] = g.AddLatch(fmt.Sprintf("tok%d", i), init)
	}
	for i := range token {
		g.SetNext(token[i], token[(i+n-1)%n])
	}
	grants := make([]aig.Lit, n)
	for i := range grants {
		grants[i] = g.And(token[i], pending[i])
	}
	// bad: two grants at once.
	bad := aig.False
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			bad = g.Or(bad, g.And(grants[i], grants[j]))
		}
	}
	g.AddOutput("bad", bad)
	return model.New(fmt.Sprintf("arbiter%d", n), g, 0)
}

// MutexBroken is a token mutex with an injected bug: a "steal" input
// forges a second token once a hidden counter saturates, so mutual
// exclusion fails, but only at depth ≥ 2^cntBits — deep, input-dependent
// counterexamples. noiseBits adds a register bank that captures unrelated
// inputs each cycle, multiplying the successor fan-out without touching
// the property — the wide-but-irrelevant branching typical of industrial
// designs.
func MutexBroken(cntBits, noiseBits int) *model.System {
	g := aig.New()
	steal := g.AddInput("steal")
	for i := 0; i < noiseBits; i++ {
		nin := g.AddInput(fmt.Sprintf("nz%d", i))
		nl := g.AddLatch(fmt.Sprintf("noise%d", i), aig.Init0)
		g.SetNext(nl, nin)
	}
	// Two critical-section flags; normally exclusive via token t.
	t := g.AddLatch("tok", aig.Init0)
	a := g.AddLatch("csA", aig.Init0)
	b := g.AddLatch("csB", aig.Init0)
	cnt := latchVec(g, cntBits, "h")
	sat := g.EqConst(cnt, (uint64(1)<<uint(cntBits))-1)
	inc, _ := g.IncVec(cnt)
	setNextVec(g, cnt, g.MuxVec(sat, cnt, inc))
	// Token alternates; A enters when token=0, B when token=1; the bug:
	// once the hidden counter saturates and steal is raised, B enters
	// regardless of the token.
	g.SetNext(t, t.Not())
	g.SetNext(a, t.Not())
	g.SetNext(b, g.Or(t, g.And(sat, steal)))
	g.AddOutput("bad", g.And(a, b))
	return model.New(fmt.Sprintf("mutex%d-n%d", cntBits, noiseBits), g, 0)
}

// FIFO models occupancy of a queue with push/pop inputs via a counter;
// bad on overflow (push while full, no pop). With constant pushing the
// overflow attempt happens once the counter saturates, at depth 2^bits-1.
func FIFO(bits int) *model.System {
	g := aig.New()
	push := g.AddInput("push")
	pop := g.AddInput("pop")
	cnt := latchVec(g, bits, "n")
	full := g.EqConst(cnt, (uint64(1)<<uint(bits))-1)
	empty := g.EqConst(cnt, 0)
	inc, _ := g.IncVec(cnt)
	dec, _ := g.AddVec(cnt, aig.ConstVec(bits, (uint64(1)<<uint(bits))-1), aig.False) // -1 mod 2^bits
	doPush := g.And(push, g.And(full.Not(), pop.Not()))
	doPop := g.And(pop, g.And(empty.Not(), push.Not()))
	next := g.MuxVec(doPush, inc, g.MuxVec(doPop, dec, cnt))
	setNextVec(g, cnt, next)
	g.AddOutput("bad", g.And(full, g.And(push, pop.Not())))
	return model.New(fmt.Sprintf("fifo%d", bits), g, 0)
}

// Handshake is a four-phase req/ack handshake pair with a transaction
// counter; bad when the protocol invariant (ack implies req seen) is
// violated — unreachable by construction: unsatisfiable instances.
func Handshake(cntBits int) *model.System {
	g := aig.New()
	start := g.AddInput("start")
	req := g.AddLatch("req", aig.Init0)
	ack := g.AddLatch("ack", aig.Init0)
	// req rises on start when idle, falls when ack high; ack follows req.
	idle := g.And(req.Not(), ack.Not())
	g.SetNext(req, g.Or(g.And(idle, start), g.And(req, ack.Not())))
	g.SetNext(ack, req)
	cnt := latchVec(g, cntBits, "x")
	inc, _ := g.IncVec(cnt)
	done := g.And(req.Not(), ack)
	setNextVec(g, cnt, g.MuxVec(done, inc, cnt))
	// Invariant: ack ⇒ (req held in previous cycle) — by construction
	// ack copies req, so ack ∧ ¬prevReq is impossible; track prevReq.
	prevReq := g.AddLatch("prevReq", aig.Init0)
	g.SetNext(prevReq, req)
	g.AddOutput("bad", g.And(ack, prevReq.Not()))
	return model.New(fmt.Sprintf("handshake%d", cntBits), g, 0)
}

// Pipeline is an n-stage valid-bit pipeline with a stall input; bad when
// a bubble overtakes a valid transaction (impossible) OR — in this
// satisfiable variant — when all stages are simultaneously valid, which
// takes n fill steps.
func Pipeline(n int) *model.System {
	g := aig.New()
	feed := g.AddInput("feed")
	stall := g.AddInput("stall")
	valid := make([]aig.Lit, n)
	for i := range valid {
		valid[i] = g.AddLatch(fmt.Sprintf("v%d", i), aig.Init0)
	}
	// On stall, stages hold; otherwise shift, feeding stage 0.
	for i := n - 1; i > 0; i-- {
		g.SetNext(valid[i], g.Ite(stall, valid[i], valid[i-1]))
	}
	g.SetNext(valid[0], g.Ite(stall, valid[0], feed))
	g.AddOutput("bad", g.AndN(valid...))
	return model.New(fmt.Sprintf("pipeline%d", n), g, 0)
}

// RandomAIG is a seeded random sequential circuit: nLatch latches,
// nInput inputs, nAnd random AND gates; bad is a random conjunction of
// depth-mixed signals. Reachability is irregular — the "unstructured
// industrial logic" stand-in.
func RandomAIG(seed int64, nInput, nLatch, nAnd, badWidth int) *model.System {
	rng := rand.New(rand.NewSource(seed))
	g := aig.New()
	var pool []aig.Lit
	for i := 0; i < nInput; i++ {
		pool = append(pool, g.AddInput(fmt.Sprintf("i%d", i)))
	}
	latches := make([]aig.Lit, nLatch)
	for i := range latches {
		latches[i] = g.AddLatch(fmt.Sprintf("l%d", i), aig.Init(rng.Intn(2)))
		pool = append(pool, latches[i])
	}
	pick := func() aig.Lit {
		l := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			l = l.Not()
		}
		return l
	}
	for i := 0; i < nAnd; i++ {
		pool = append(pool, g.And(pick(), pick()))
	}
	for _, l := range latches {
		g.SetNext(l, pick())
	}
	bad := aig.True
	for i := 0; i < badWidth; i++ {
		bad = g.And(bad, pick())
	}
	g.AddOutput("bad", bad)
	return model.New(fmt.Sprintf("random-s%d", seed), g, 0)
}

// ParityGuard is a w-bit capture register guarded by a parity bit: every
// cycle the register loads the input vector and the guard latch loads the
// input's parity. The bad predicate — register parity disagreeing with
// the guard — is protected by an inductive invariant and therefore
// unreachable. The reachable space is 2^w states wide with 2^w distinct
// successors per state: trivial for clause-learning SAT, hostile to
// explicit-successor enumeration (jSAT's weak spot, by design).
func ParityGuard(w int) *model.System {
	g := aig.New()
	ins := make([]aig.Lit, w)
	for i := range ins {
		ins[i] = g.AddInput(fmt.Sprintf("d%d", i))
	}
	reg := latchVec(g, w, "q")
	guard := g.AddLatch("par", aig.Init0)
	for i := range reg {
		g.SetNext(reg[i], ins[i])
	}
	inPar := aig.False
	for _, in := range ins {
		inPar = g.Xor(inPar, in)
	}
	g.SetNext(guard, inPar)
	regPar := aig.False
	for _, q := range reg {
		regPar = g.Xor(regPar, q)
	}
	g.AddOutput("bad", g.Xor(regPar, guard))
	return model.New(fmt.Sprintf("parityguard%d", w), g, 0)
}

// Factorizer captures two w-bit operands from inputs into registers and
// multiplies them combinationally; bad fires when the product equals the
// target and both operands exceed one. Satisfiable instances therefore
// embed integer factoring — the classic combinatorially hard workload
// for CNF solvers — and every state has 2^(2w) successors, drowning
// explicit successor enumeration.
func Factorizer(w int, target uint64) *model.System {
	g := aig.New()
	aIn := make([]aig.Lit, w)
	bIn := make([]aig.Lit, w)
	for i := 0; i < w; i++ {
		aIn[i] = g.AddInput(fmt.Sprintf("a%d", i))
		bIn[i] = g.AddInput(fmt.Sprintf("b%d", i))
	}
	aReg := latchVec(g, w, "ra")
	bReg := latchVec(g, w, "rb")
	for i := 0; i < w; i++ {
		g.SetNext(aReg[i], aIn[i])
		g.SetNext(bReg[i], bIn[i])
	}
	prod := g.MulVec(aReg, bReg)
	one := aig.ConstVec(w, 1)
	aBig := g.LtVec(one, aReg)
	bBig := g.LtVec(one, bReg)
	hit := g.EqConst(prod, target)
	g.AddOutput("bad", g.AndN(hit, aBig, bBig))
	return model.New(fmt.Sprintf("factor%d-t%d", w, target), g, 0)
}

// WithNoise appends `bits` capture registers fed by fresh free inputs to
// the system's circuit (mutating it). The property is untouched, but
// every state gains a factor of 2^bits distinct successors — the
// wide-but-irrelevant input branching of realistic designs. The
// registers lie outside the bad predicate's cone of influence, which
// is all the BMC engines encode, so only the explicit-state oracle
// still enumerates them.
func WithNoise(sys *model.System, bits int) *model.System {
	g := sys.Circ
	for i := 0; i < bits; i++ {
		in := g.AddInput(fmt.Sprintf("noise_in%d", i))
		l := g.AddLatch(fmt.Sprintf("noise%d", i), aig.Init0)
		g.SetNext(l, in)
	}
	return &model.System{Name: fmt.Sprintf("%s+n%d", sys.Name, bits), Circ: g, Bad: sys.Bad}
}

func latchVec(g *aig.Graph, n int, prefix string) []aig.Lit {
	out := make([]aig.Lit, n)
	for i := range out {
		out[i] = g.AddLatch(fmt.Sprintf("%s%d", prefix, i), aig.Init0)
	}
	return out
}

func setNextVec(g *aig.Graph, latches, next []aig.Lit) {
	for i := range latches {
		g.SetNext(latches[i], next[i])
	}
}
