package main

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"sync"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/service"
)

// missKinds are the serve-miss request kinds, with equal shares: each
// run of six requests of a caller holds every kind once, in a seeded
// order. cmd/bmcload's default deepen share is 0.5; cold, resume and
// counter requests deepen and the other three do not, so equal shares
// keep that split and favor no kind within either half.
var missKinds = []string{
	"cold",      // a factorizer seen for the first time: cold session build
	"resume",    // one bound deeper on a factorizer seen earlier: warm session
	"counter",   // a new reachable deep counter: deepening and witness replay
	"prove",     // a new safe model: interpolation, certificate replay, replication
	"portfolio", // no engine named: bmcd's default portfolio race
	"batch",     // new factorizers through /v1/batch
}

const (
	// missBatch is the size of one /v1/batch request: two items per
	// shard when the owners split evenly.
	missBatch = 4
	// missMaxBound and missResumeWin are cmd/bmcload's -bound-max and
	// -models defaults: resumes deepen a factorizer one bound at a time
	// up to missMaxBound, picking among the missResumeWin most recently
	// seen ones.
	missMaxBound  = 16
	missResumeWin = 32
	// missWidth is the factorizer width of the timed stream. Width 10,
	// cmd/bmcload's, costs three times as much per bound, which would
	// leave a window too few verdicts for its p99.
	missWidth = 9
)

// missModel is a base model of the serve-miss stream with its answer.
// The stream sends it salted, so the service never saw it before.
type missModel struct {
	label string
	build func() *model.System
	text  string // AAG text, built by setup
	// group is what the model's cost mostly follows: the Johnson
	// counter's size, the deep counter's width.
	group   int
	status  string
	foundAt int // exact shortest depth for deepen requests, -1 for none
}

// serveMiss: every request misses the verdict cache, so the time goes
// to cache fills, session builds, resumes and evictions, replication
// and SAT search on persistent solvers.
type serveMiss struct {
	seed                       int64
	cl                         *shardCluster
	factors, johnson, counters []*missModel
	gens                       []*missGen
	check                      checker
}

// missGen is one caller's request stream. Callers salt models with
// their own index, so each stream is the same whatever the other does.
type missGen struct {
	rng                        *rand.Rand
	caller                     int
	kinds                      []int // the rest of the current run of six
	factors, johnson, counters *cycle
	seen                       []seenFactor
	proves                     int
}

type seenFactor struct {
	m     *missModel
	salt  string
	bound int
}

// cycle hands out a list of base models in a fixed order. After each
// pass it starts over under a new salt, so it never runs out however
// fast the service answers, and every model it hands out is new.
type cycle struct {
	models     []*missModel
	caller     int
	next, pass int
}

func (c *cycle) take() (*missModel, string) {
	if c.next == len(c.models) {
		c.next, c.pass = 0, c.pass+1
	}
	m := c.models[c.next]
	c.next++
	return m, fmt.Sprintf("c%d.p%d", c.caller, c.pass)
}

// salted renames the model's bad output. ModelHash covers the symbol
// table, so the service sees a model it has never seen, while the
// circuit, and with it the work and the answer, stays the same.
func salted(text, salt string) string {
	i := strings.LastIndex(text, "\no0 ")
	if i < 0 {
		panic("bmcbench: model without a named output")
	}
	j := i + 1 + strings.IndexByte(text[i+1:], '\n')
	return text[:j] + "." + salt + text[j:]
}

func newServeMiss(seed int64) (*serveMiss, error) {
	m := &serveMiss{seed: seed}
	// Factorizer targets: as many primes as cmd/bmcload's corpus has
	// factorizers (16), starting where bmcload's width-10 targets start
	// in their product range (249989 of 1023²), so each bound is real
	// multiplier search, not magnitude reasoning. Prime: unreachable at
	// every bound, by construction.
	maxProd := uint64((1<<missWidth - 1) * (1<<missWidth - 1))
	for _, t := range primesFrom(249989*maxProd/(1023*1023), 16) {
		t := t
		m.factors = append(m.factors, &missModel{
			label: fmt.Sprintf("factor%d-%d", missWidth, t), group: missWidth,
			build:  func() *model.System { return circuits.Factorizer(missWidth, t) },
			status: "UNREACHABLE", foundAt: -1,
		})
	}
	// Safe Johnson counters of 6 to 8 bits, eight of each size spread
	// evenly over the safe targets, each checked by the explicit-state
	// oracle. Interpolation on 9-bit ones takes 100–300 ms depending on
	// the target, so the tail would follow which targets a seed draws.
	// The pools are small, so a window cycles through each several
	// times and every seed sends the same models, salted.
	for n := 6; n <= 8; n++ {
		var safe []uint64
		for t := uint64(0); t < 1<<n; t++ {
			if sebmc.ShortestCounterexample(circuits.Johnson(n, t)) == -1 {
				safe = append(safe, t)
			}
		}
		for i := 0; i < 8; i++ {
			n, t := n, safe[i*len(safe)/8]
			m.johnson = append(m.johnson, &missModel{
				label: fmt.Sprintf("johnson%d-%d", n, t), group: n,
				build:  func() *model.System { return circuits.Johnson(n, t) },
				status: "SAFE", foundAt: -1,
			})
		}
	}
	// Reachable counters: an n-bit counter from 0 first equals d at
	// exactly step d. Depths 64..112, widths from the smallest that
	// holds them up to 17 bits.
	for n := bits.Len(127) + 1; n <= 17; n += 3 {
		for d := 64; d <= 112; d += 16 {
			n, d := n, d
			m.counters = append(m.counters, &missModel{
				label: fmt.Sprintf("counter%d-%d", n, d), group: n,
				build:  func() *model.System { return circuits.Counter(n, uint64(d)) },
				status: "REACHABLE", foundAt: d,
			})
		}
	}
	return m, nil
}

func (m *serveMiss) roundDone(int) bool { return true }

// slices: a window holds about 1100 requests, enough for ten beyond
// p99 only when it is not cut.
func (m *serveMiss) slices() (int, int) { return 5, 1 }
func (m *serveMiss) callers() int       { return len(shardAddrs) }
func (m *serveMiss) checker() *checker  { return &m.check }
func (m *serveMiss) probe() probe       { return m.cl.probe() }
func (m *serveMiss) peakBytes() float64 { return m.cl.peakBytes() }

func (m *serveMiss) teardown() {
	if m.cl != nil {
		m.cl.stop()
		m.cl = nil
	}
}

// setup builds the model texts, starts the cluster, fills both shards'
// session pools with warm-up-only sessions and seeds each caller's
// stream.
func (m *serveMiss) setup() error {
	for _, list := range [][]*missModel{m.factors, m.johnson, m.counters} {
		for _, mm := range list {
			mm.text = aag(mm.build())
		}
	}
	cl, err := startCluster()
	if err != nil {
		return err
	}
	m.cl = cl
	if err := m.prefill(); err != nil {
		return err
	}
	m.gens = nil
	for c := 0; c < m.callers(); c++ {
		rng := rand.New(rand.NewSource(m.seed*7919 + int64(c)))
		factors := append([]*missModel(nil), m.factors...)
		rng.Shuffle(len(factors), func(i, j int) { factors[i], factors[j] = factors[j], factors[i] })
		m.gens = append(m.gens, &missGen{
			rng: rng, caller: c,
			factors:  &cycle{models: factors, caller: c},
			johnson:  &cycle{models: interleave(m.johnson, rng), caller: c},
			counters: &cycle{models: interleave(m.counters, rng), caller: c},
		})
	}
	return nil
}

// prefill deepens width-8 factorizers, a width the timed stream never
// uses, until neither shard's session pool has room for one more
// session of the average size it holds. The workload's working set is
// larger than the session budget: from the first timed request on,
// every new session evicts an older one.
func (m *serveMiss) prefill() error {
	primes := primesFrom(10000, 4000)
	full := func() bool {
		for _, srv := range m.cl.servers {
			s := srv.Metrics().Sessions
			if s.Live == 0 || s.Bytes+s.Bytes/s.Live <= s.Budget {
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for c := 0; c < m.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !full() {
				mu.Lock()
				if next == len(primes) {
					mu.Unlock()
					return
				}
				t := primes[next]
				next++
				mu.Unlock()
				mm := &missModel{label: fmt.Sprintf("factor8-%d", t), status: "UNREACHABLE", foundAt: -1,
					text: aag(circuits.Factorizer(8, t))}
				r := mm.request("prefill", "", service.CheckRequest{Bound: 4, Engine: "sat-incr", Deepen: true})
				callServe(m.cl, &m.check, c, []*serveReq{r}, nil)
			}
		}(c)
	}
	wg.Wait()
	if !full() {
		return fmt.Errorf("prefill ran out of models before the session pools filled")
	}
	return nil
}

// request is one request for the model under the given salt.
func (mm *missModel) request(kind, salt string, req service.CheckRequest) *serveReq {
	req.Model, req.Format = mm.text, "aag"
	label := kind + "/" + mm.label
	if salt != "" {
		req.Model = salted(mm.text, salt)
		label += "@" + salt
	}
	return &serveReq{label: label, req: req, status: mm.status, foundAt: mm.foundAt, owner: -1}
}

// next returns caller c's next request (several for a batch).
func (g *missGen) next() []*serveReq {
	if len(g.kinds) == 0 {
		g.kinds = g.rng.Perm(len(missKinds))
	}
	kind := missKinds[g.kinds[0]]
	g.kinds = g.kinds[1:]
	if kind == "resume" && len(g.seen) == 0 {
		kind = "cold"
	}
	switch kind {
	case "cold":
		f, salt := g.factors.take()
		g.seen = append(g.seen, seenFactor{f, salt, 1})
		return []*serveReq{f.request(kind, salt, service.CheckRequest{Bound: 1, Engine: "sat-incr", Deepen: true})}
	case "resume":
		lo := max(0, len(g.seen)-missResumeWin)
		i := lo + g.rng.Intn(len(g.seen)-lo)
		g.seen[i].bound++
		f := g.seen[i]
		if f.bound >= missMaxBound {
			g.seen = append(g.seen[:i], g.seen[i+1:]...)
		}
		return []*serveReq{f.m.request(kind, f.salt, service.CheckRequest{Bound: f.bound, Engine: "sat-incr", Deepen: true})}
	case "counter":
		c, salt := g.counters.take()
		return []*serveReq{c.request(kind, salt, service.CheckRequest{Bound: c.foundAt, Engine: "sat-incr", Deepen: true})}
	case "prove":
		j, salt := g.johnson.take()
		// Alternate the race (Prove) with interpolation alone, whose
		// SAFE always carries a certificate.
		req := service.CheckRequest{Prove: true}
		if g.proves%2 == 1 {
			req = service.CheckRequest{Engine: "interp"}
		}
		g.proves++
		r := j.request(kind, salt, req)
		r.path = "prove"
		return []*serveReq{r}
	case "portfolio":
		f, salt := g.factors.take()
		r := f.request(kind, salt, service.CheckRequest{Bound: 1})
		r.path = "portfolio"
		return []*serveReq{r}
	default: // batch
		out := make([]*serveReq, missBatch)
		for i := range out {
			f, salt := g.factors.take()
			out[i] = f.request(kind, salt, service.CheckRequest{Bound: 1, Engine: "sat"})
		}
		return out
	}
}

func (m *serveMiss) step(c int, tr *tracer) sample {
	return callServe(m.cl, &m.check, c, m.gens[c].next(), tr)
}

func (m *serveMiss) gate(delta probe) {
	cacheGate(&m.check, "serve-miss", delta, func(rate float64) bool { return rate <= 0.01 })
}

func (m *serveMiss) layers(mm metrics, w *window, _ *layerTimes, delta probe) {
	serveLayers(mm, w, delta)
	run := map[string][]float64{}
	var overhead, batch []float64
	wins := map[string]int{}
	portfolios, proves, inductions := 0, 0, 0
	for _, s := range w.samples {
		switch {
		case s.path == "batch":
			batch = append(batch, msOf(s.lat))
		case s.server >= 0:
			run[s.path] = append(run[s.path], msOf(s.server))
			overhead = append(overhead, msOf(s.lat-s.server))
		}
		switch s.path {
		case "portfolio":
			portfolios++
			wins[s.by]++
		case "prove":
			if s.proveRace {
				proves++
				if s.by == "induction" {
					inductions++
				}
			}
		}
	}
	for _, p := range []string{"cold", "resume", "prove", "portfolio"} {
		mm.set("service.run_ms."+p+".p50", median(run[p]))
	}
	mm.set("service.run_ms.batch.p50", median(batch))
	mm.set("service.overhead_ms.p50", median(overhead))
	if portfolios > 0 {
		for _, arm := range []string{"sat", "sat-incr", "jsat"} {
			mm.set("portfolio.win_frac."+arm, float64(wins[arm])/float64(portfolios))
		}
	}
	if proves > 0 {
		mm.set("induction.win_frac", float64(inductions)/float64(proves))
	}
}

// interleave shuffles the models of each group, then interleaves the
// groups evenly, so every seed sends the same mix of groups at every
// point of the stream and only the order within a group differs. A
// model's cost follows mostly from its group.
func interleave(ms []*missModel, rng *rand.Rand) []*missModel {
	groups := map[int][]*missModel{}
	var keys []int
	for _, m := range ms {
		if groups[m.group] == nil {
			keys = append(keys, m.group)
		}
		groups[m.group] = append(groups[m.group], m)
	}
	sort.Ints(keys)
	type keyed struct {
		pos float64
		m   *missModel
	}
	var all []keyed
	for _, k := range keys {
		g := groups[k]
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		for i, m := range g {
			all = append(all, keyed{(float64(i) + 0.5) / float64(len(g)), m})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].pos < all[b].pos })
	out := make([]*missModel, len(all))
	for i, k := range all {
		out[i] = k.m
	}
	return out
}

// primesFrom returns the first n primes at or above lo.
func primesFrom(lo uint64, n int) []uint64 {
	var out []uint64
	for p := max(lo, 2); len(out) < n; p++ {
		prime := true
		for d := uint64(2); d*d <= p; d++ {
			if p%d == 0 {
				prime = false
				break
			}
		}
		if prime {
			out = append(out, p)
		}
	}
	return out
}
