package main

import (
	"fmt"
	"math/rand"
	"sync"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/service"
)

// serve-hit draws requests the way cmd/bmcload does by default: model
// popularity zipf(1.2) over its 32-model corpus, the bound uniform in
// 1..16, half of the requests deepening, every request naming sat-incr.
const (
	hitZipf     = 1.2
	hitModels   = 32
	hitBoundMax = 16
	hitDeepen   = 0.5
)

// hitFactorTargets are cmd/bmcload's factorizer targets: primes well
// inside the width-10 product range, so every bound is unreachable.
var hitFactorTargets = []uint64{
	249989, 250007, 250013, 250027, 250031, 250037, 250043, 250049,
	250051, 250057, 250073, 250091, 250109, 250123, 250147, 250153,
}

// hitModel is one model of the serve-hit distribution and every request
// that can be drawn for it, by deepen flag and bound.
type hitModel struct {
	build    func() *model.System
	label    string
	terminal bool                      // proved SAFE during warm-up
	reqs     [2][hitBoundMax]*serveReq // [1] deepens; index bound-1
}

// serveHit: every request is a verdict-cache hit, so its time goes to
// parsing, ModelHash, HTTP/JSON, routing and the proxy hop.
type serveHit struct {
	models []*hitModel // zipf rank order
	cl     *shardCluster
	gen    []*rand.Rand
	zipf   []*rand.Zipf
	seed   int64
	check  checker
}

func newServeHit(seed int64) (*serveHit, error) {
	h := &serveHit{seed: seed}
	// Already-proved models: Johnson counters with a target outside
	// their 2n-state orbit are safe; the explicit-state oracle confirms
	// each one.
	var terminals []*hitModel
	for n := 4; n <= 8 && len(terminals) < 8; n++ {
		for _, t := range []uint64{5, 9} {
			n, t := n, t
			build := func() *model.System { return circuits.Johnson(n, t) }
			if sebmc.ShortestCounterexample(build()) == -1 {
				terminals = append(terminals, &hitModel{label: fmt.Sprintf("johnson%d-%d", n, t), terminal: true, build: build})
			}
		}
	}
	// cmd/bmcload's corpus in its rank order: factorizers alternating
	// with deep counters of depth 16+2i, all deeper than any bound drawn.
	// A terminal model follows every fourth, so they spread over the
	// popularity ranks.
	for i := 0; i < hitModels; i++ {
		i := i
		if i%2 == 0 {
			t := hitFactorTargets[i/2]
			h.models = append(h.models, &hitModel{label: fmt.Sprintf("factor10-%d", t), build: func() *model.System { return circuits.Factorizer(10, t) }})
		} else {
			d := uint64(16 + 2*i)
			h.models = append(h.models, &hitModel{label: fmt.Sprintf("deepcounter%d", d), build: func() *model.System { return circuits.DeepCounter(d) }})
		}
		if i%4 == 3 && len(terminals) > 0 {
			h.models = append(h.models, terminals[0])
			terminals = terminals[1:]
		}
	}
	return h, nil
}

func (h *serveHit) roundDone(int) bool { return true }

// slices: a window holds well over 9000 hits, so each of nine slices
// keeps at least ten beyond its p99.
func (h *serveHit) slices() (int, int) { return 9, 9 }

func (h *serveHit) callers() int       { return len(shardAddrs) }
func (h *serveHit) checker() *checker  { return &h.check }
func (h *serveHit) probe() probe       { return h.cl.probe() }
func (h *serveHit) peakBytes() float64 { return h.cl.peakBytes() }

func (h *serveHit) teardown() {
	if h.cl != nil {
		h.cl.stop()
		h.cl = nil
	}
}

// setup builds the request bodies, starts the cluster and sends every
// request in the distribution once, so all of them are cached.
func (h *serveHit) setup() error {
	cl, err := startCluster()
	if err != nil {
		return err
	}
	h.cl = cl
	// Per model, the request that does the work goes first: a prove
	// fills a terminal model's bound-free entry, which then answers
	// every bound; a deepen to the largest bound proves every smaller
	// bound in the model's session.
	warm := make([][]*serveReq, len(h.models))
	for i, m := range h.models {
		sys := m.build()
		text := aag(sys)
		owner := cl.owner(sebmc.ModelHash(sys))
		status := "UNREACHABLE"
		if m.terminal {
			status = "SAFE"
			warm[i] = append(warm[i], &serveReq{label: "prove/" + m.label, req: service.CheckRequest{Prove: true, Model: text, Format: "aag"}, status: status, foundAt: -1, owner: owner})
		}
		for _, deepen := range []bool{true, false} {
			d, verb := 0, "check"
			if deepen {
				d, verb = 1, "deepen"
			}
			for b := hitBoundMax; b >= 1; b-- {
				r := &serveReq{
					label:  fmt.Sprintf("%s/%s/k%d", verb, m.label, b),
					req:    service.CheckRequest{Bound: b, Engine: "sat-incr", Deepen: deepen, Model: text, Format: "aag"},
					status: status, foundAt: -1, owner: owner,
				}
				m.reqs[d][b-1] = r
				warm[i] = append(warm[i], r)
			}
		}
	}
	h.warm(warm)
	h.gen, h.zipf = nil, nil
	for c := 0; c < h.callers(); c++ {
		r := rand.New(rand.NewSource(h.seed*7919 + int64(c)))
		h.gen = append(h.gen, r)
		h.zipf = append(h.zipf, rand.NewZipf(r, hitZipf, 1, uint64(len(h.models)-1)))
	}
	return nil
}

// warm sends every model's requests once, in order, the models split
// over the callers' clients.
func (h *serveHit) warm(perModel [][]*serveReq) {
	var wg sync.WaitGroup
	for c := 0; c < h.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(perModel); i += h.callers() {
				for _, r := range perModel[i] {
					if s := callServe(h.cl, &h.check, c, []*serveReq{r}, nil); s.decided != 1 {
						h.check.failf("%s: warm-up did not decide (%s)", r.label, s.path)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// step draws a model by zipf popularity, then a deepen flag and a
// bound, as cmd/bmcload does.
func (h *serveHit) step(c int, tr *tracer) sample {
	m := h.models[h.zipf[c].Uint64()]
	d := 0
	if h.gen[c].Float64() < hitDeepen {
		d = 1
	}
	r := m.reqs[d][h.gen[c].Intn(hitBoundMax)]
	return callServe(h.cl, &h.check, c, []*serveReq{r}, tr)
}

func (h *serveHit) gate(delta probe) {
	cacheGate(&h.check, "serve-hit", delta, func(rate float64) bool { return rate >= 0.99 })
}

func (h *serveHit) layers(m metrics, w *window, _ *layerTimes, delta probe) {
	serveLayers(m, w, delta)
	var owned []float64
	for _, s := range w.samples {
		if s.owned {
			owned = append(owned, msOf(s.lat))
		}
	}
	m.set("service.hit_rtt_ms.p50", median(owned))
}
