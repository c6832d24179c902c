// Command bmcbench is the repository's end-to-end benchmark. It runs one
// of three seeded workloads in a single process, with at most two
// callers, and prints seven end-to-end metrics by name, with unit and
// sample count:
//
//   - engines: the library as the CLI and the examples use it, one caller
//     in a closed loop over a pool of bounded checks, factorizer UNSAT
//     proofs, deepening runs, QBF checks and Prove, shuffled afresh by
//     the seed for every round;
//   - serve-hit: two in-process bmcd shards (bmcd's default settings,
//     joined as a proxy cluster), warmed until every request in the
//     distribution is a verdict-cache hit, and two closed-loop callers,
//     each with one connection to its own entry shard;
//   - serve-miss: the same cluster and callers, where every request
//     misses the verdict cache.
//
// A run sets its workload up three times (setup_s is the median), then
// measures for --seconds: callers start operations until then, and an
// engines caller also finishes its round, so every round is the same
// work. Budgets are conflict, query and node counts, never timeouts.
//
// Every verdict is checked against an answer known before timing
// starts; a wrong verdict, or a witness or certificate that does not
// replay, makes the command exit 1. Setup failures, such as a taken
// shard port, exit 2.
//
// With --trace 1 the run measures half its time untraced and half with
// spans around every call the benchmark makes into a layer, prints the
// per-layer metrics and the tracing overhead, and writes the spans to
// .bench_build/spans/ under the working directory. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Usage (from the repository root):
//
//	bash bmcbench/run.sh --workload engines --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not move it.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// sample is one closed-loop step of one caller.
type sample struct {
	lat      time.Duration // as timed by the caller
	verdicts int           // verdicts asked for (a batch asks for several)
	decided  int           // verdicts that came back decided
	path     string        // how the answer was produced, for the path mix
	owned    bool          // serve: the entry shard owns the model
	key      string        // serve: the request, for per-request comparisons
	server   time.Duration // serve: the server's elapsed_ms, -1 when absent
	by       string        // serve: the engine or arm that decided
	// proveRace marks a serve prove request, raced by sebmc.Prove.
	proveRace bool
	// end is when the step finished, since the window started; cpu is
	// the process CPU time then.
	end, cpu time.Duration
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// probe is a cumulative reading of counters the workload's system
// exports; a window's counters are the difference of two probes.
type probe map[string]float64

// workload is one of the benchmark's traffic mixes.
type workload interface {
	// setup builds the inputs, starts what the workload runs against
	// and warms it up; teardown stops all of it.
	setup() error
	teardown()
	callers() int
	// step runs caller c's next operation. tr is nil in untraced runs.
	step(c int, tr *tracer) sample
	// roundDone reports whether caller c is between rounds of its
	// stream; a window only ends there, so every window measures whole
	// rounds.
	roundDone(c int) bool
	// slices is the number of equal slices a window is cut into, in
	// completion order. Each timing metric is the median of its
	// per-slice values, so a burst of noise on a shared host moves a
	// few slices, not the result. tail is the same for p99, cut only
	// so far that every slice still holds ten samples beyond its p99.
	slices() (k, tail int)
	probe() probe
	// peakBytes is the largest solver footprint seen so far.
	peakBytes() float64
	// gate checks a window's counters against the workload's path mix.
	gate(delta probe)
	// layers adds the workload's own per-layer metrics for a traced
	// window.
	layers(m metrics, w *window, lt *layerTimes, delta probe)
	// checker collects wrong answers.
	checker() *checker
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "engines":
		return newEngines(seed)
	case "serve-hit":
		return newServeHit(seed)
	case "serve-miss":
		return newServeMiss(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want engines, serve-hit or serve-miss)", name)
}

// checker records wrong verdicts from any caller.
type checker struct {
	mu    sync.Mutex
	wrong []string
}

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.wrong) < 100 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.wrong...)
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	samples []sample // in completion order
	wall    time.Duration
	cpu0    time.Duration // process CPU time at the start
	tracers []*tracer
}

func (w *window) attempted() (n, decided int) {
	for _, s := range w.samples {
		n += s.verdicts
		decided += s.decided
	}
	return n, decided
}

// measure runs every caller in a closed loop until dur has passed and
// returns what they saw. A caller past the deadline finishes its
// current round; the window ends when the last one has.
func measure(wl workload, dur time.Duration, traced bool) *window {
	n := wl.callers()
	per := make([][]sample, n)
	w := &window{}
	if traced {
		origin := time.Now()
		for c := 0; c < n; c++ {
			w.tracers = append(w.tracers, newTracer(origin))
		}
	}
	w.cpu0 = cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		var tr *tracer
		if traced {
			tr = w.tracers[c]
		}
		wg.Add(1)
		go func(c int, tr *tracer) {
			defer wg.Done()
			for time.Now().Before(deadline) || !wl.roundDone(c) {
				s := wl.step(c, tr)
				s.end, s.cpu = time.Since(start), cpuTime()
				per[c] = append(per[c], s)
			}
		}(c, tr)
	}
	wg.Wait()
	w.wall = time.Since(start)
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].end < w.samples[j].end })
	return w
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the nearest-rank q-quantile, 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("bmcbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them from its untraced window.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_ms.p50", "ms"},
	{"latency_ms.p99", "ms"},
	{"verdicts_per_s", "1/s"},
	{"cpu_ms_per_verdict", "ms"},
	{"decided_frac", "ratio"},
	{"peak_solver_bytes", "bytes"},
}

// perLayer lists the traced run's metrics. A layer the workload does
// not call reports 0.
var perLayer = []struct{ name, unit string }{
	{"sebmc.load_us.p50", "us"},
	{"sebmc.hash_us.p50", "us"},
	{"model.reduce_us.p50", "us"},
	{"sebmc.validate_us.p50", "us"},
	{"service.hit_rtt_ms.p50", "ms"},
	{"cluster.proxied_frac", "ratio"},
	{"cluster.proxy_extra_ms.p50", "ms"},
	{"service.cache_hit_rate", "ratio"},
	{"service.shard0.cache_hit_rate", "ratio"},
	{"service.shard1.cache_hit_rate", "ratio"},
	{"service.session_hit_rate", "ratio"},
	{"service.bounds_skipped", "count/verdict"},
	{"service.run_ms.cold.p50", "ms"},
	{"service.run_ms.resume.p50", "ms"},
	{"service.run_ms.prove.p50", "ms"},
	{"service.run_ms.portfolio.p50", "ms"},
	{"service.run_ms.batch.p50", "ms"},
	{"service.overhead_ms.p50", "ms"},
	{"cluster.replicated_out", "count/verdict"},
	{"cluster.replicate_dropped", "count/verdict"},
	{"cluster.hedges_fired", "count/verdict"},
	{"portfolio.win_frac.sat", "ratio"},
	{"portfolio.win_frac.sat-incr", "ratio"},
	{"portfolio.win_frac.jsat", "ratio"},
	{"bmc.encode_ms", "ms/round"},
	{"bmc.clauses", "count/round"},
	{"bmc.clauses_per_s", "1/s"},
	{"bmc.incr.clauses_added", "count/round"},
	{"bmc.deepen.invocations", "count/run"},
	{"sat.solve_ms", "ms/round"},
	{"sat.props_per_s", "1/s"},
	{"sat.conflicts", "count/round"},
	{"sat.peak_bytes", "bytes"},
	{"jsat.check_ms", "ms/round"},
	{"jsat.queries", "count/round"},
	{"jsat.queries_per_s", "1/s"},
	{"jsat.cache_hit_rate", "ratio"},
	{"jsat.trail_reuse_rate", "ratio"},
	{"jsat.peak_bytes", "bytes"},
	{"qbf.solve_ms", "ms/round"},
	{"qbf.nodes", "count/round"},
	{"qbf.nodes_per_s", "1/s"},
	{"interp.prove_ms.p50", "ms"},
	{"interp.iterations", "count/run"},
	{"induction.win_frac", "ratio"},
	{"trace.overhead.latency_p50_frac", "ratio"},
	{"trace.overhead.verdicts_per_s_frac", "ratio"},
	{"trace.overhead.cpu_per_verdict_frac", "ratio"},
}

// Every span layer also reports its self time per operation and its
// share of the time callers spent inside operations.
func init() {
	for l := layer(0); l < numLayers; l++ {
		perLayer = append(perLayer,
			struct{ name, unit string }{l.String() + ".self_ms", "ms/op"},
			struct{ name, unit string }{l.String() + ".self_share", "ratio"})
	}
	for _, d := range endToEnd {
		metricUnits[d.name] = d.unit
	}
	for _, d := range perLayer {
		metricUnits[d.name] = d.unit
	}
}

var metricUnits = map[string]string{}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// errWrong marks a run that saw a wrong verdict.
var errWrong = errors.New("wrong verdicts")

// run sets the workload up, measures it and returns the result. A wrong
// verdict returns the result with Correct false and errWrong.
func run(cfg config, wl workload, out io.Writer) (result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := wl.setup(); err != nil {
			wl.teardown()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			wl.teardown()
		}
	}
	defer wl.teardown()
	setupS := median(setups)
	fmt.Fprintf(out, "workload %s seed %d: setup %.3fs (median of %d: %s)\n",
		cfg.workload, cfg.seed, setupS, setupReps, fmtList(setups, "%.3f"))

	dur := time.Duration(cfg.seconds * float64(time.Second))
	measured := func(label string, d time.Duration, traced bool) (*window, metrics, probe) {
		before := wl.probe()
		w := measure(wl, d, traced)
		delta := diff(before, wl.probe())
		wl.gate(delta)
		m := e2e(w, wl, setupS)
		printWindow(out, label, w, wl, m, delta)
		return w, m, delta
	}
	var res result
	if !cfg.trace {
		w, m, _ := measured("untraced", dur, false)
		res.Metrics = m
		res.Attempted, res.Failed = counts(w)
	} else {
		plain, pm, _ := measured("untraced half", dur/2, false)
		tw, tm, delta := measured("traced half", dur/2, true)
		res.Metrics = layerMetrics(wl, tw, delta)
		res.Metrics.set("trace.overhead.latency_p50_frac", tm["latency_ms.p50"].Value/pm["latency_ms.p50"].Value-1)
		res.Metrics.set("trace.overhead.verdicts_per_s_frac", 1-tm["verdicts_per_s"].Value/pm["verdicts_per_s"].Value)
		res.Metrics.set("trace.overhead.cpu_per_verdict_frac", tm["cpu_ms_per_verdict"].Value/pm["cpu_ms_per_verdict"].Value-1)
		printLayers(out, res.Metrics)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, tw.tracers); err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
		a1, f1 := counts(plain)
		a2, f2 := counts(tw)
		res.Attempted, res.Failed = a1+a2, f1+f2
	}
	wrong := wl.checker().failures()
	res.Correct = len(wrong) == 0
	if !res.Correct {
		for _, msg := range wrong {
			fmt.Fprintf(out, "WRONG: %s\n", msg)
		}
		return res, errWrong
	}
	return res, nil
}

func counts(w *window) (attempted, failed int) {
	n, decided := w.attempted()
	return n, n - decided
}

func diff(before, after probe) probe {
	d := probe{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// slice cuts a window's samples into k equal runs of consecutive
// completions.
func (w *window) slice(k int) [][]sample {
	out := make([][]sample, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, w.samples[i*len(w.samples)/k:(i+1)*len(w.samples)/k])
	}
	return out
}

// e2e computes the end-to-end metrics of one window: each timing is the
// median of its values over the window's slices.
func e2e(w *window, wl workload, setupS float64) metrics {
	latencies := func(sl []sample) []float64 {
		lat := make([]float64, len(sl))
		for i, s := range sl {
			lat[i] = msOf(s.lat)
		}
		return lat
	}
	k, tail := wl.slices()
	var p50, p99, rate, cpu []float64
	prevEnd, prevCPU := time.Duration(0), w.cpu0
	for _, sl := range w.slice(k) {
		if len(sl) == 0 {
			continue
		}
		decided := 0
		for _, s := range sl {
			decided += s.decided
		}
		last := sl[len(sl)-1]
		p50 = append(p50, quantile(latencies(sl), 0.50))
		rate = append(rate, float64(decided)/(last.end-prevEnd).Seconds())
		cpu = append(cpu, msOf(last.cpu-prevCPU)/float64(max(decided, 1)))
		prevEnd, prevCPU = last.end, last.cpu
	}
	for _, sl := range w.slice(tail) {
		if len(sl) > 0 {
			p99 = append(p99, quantile(latencies(sl), 0.99))
		}
	}
	n, decided := w.attempted()
	m := metrics{}
	m.set("setup_s", setupS)
	m.set("latency_ms.p50", median(p50))
	m.set("latency_ms.p99", median(p99))
	m.set("verdicts_per_s", median(rate))
	m.set("cpu_ms_per_verdict", median(cpu))
	m.set("decided_frac", float64(decided)/float64(max(n, 1)))
	m.set("peak_solver_bytes", wl.peakBytes())
	return m
}

// layerMetrics derives the per-layer metrics of a traced window: the
// common span-derived ones here, the workload's own in wl.layers.
func layerMetrics(wl workload, w *window, delta probe) metrics {
	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0)
	}
	lt := analyze(w.tracers)
	m.set("sebmc.load_us.p50", lt.p50(layerLoad, time.Microsecond))
	m.set("sebmc.hash_us.p50", lt.p50(layerHash, time.Microsecond))
	m.set("model.reduce_us.p50", lt.p50(layerReduce, time.Microsecond))
	m.set("sebmc.validate_us.p50", lt.p50(layerValidate, time.Microsecond))
	if ops := len(lt.durs[layerOp]); ops > 0 {
		for l := layer(0); l < numLayers; l++ {
			m.set(l.String()+".self_ms", float64(lt.self[l])/float64(time.Millisecond)/float64(ops))
			m.set(l.String()+".self_share", float64(lt.self[l])/float64(lt.rootTotal))
		}
	}
	wl.layers(m, w, lt, delta)
	return m
}

func printWindow(out io.Writer, label string, w *window, wl workload, m metrics, delta probe) {
	n, decided := w.attempted()
	fmt.Fprintf(out, "%s window: %.2fs wall, %d calls, %d verdicts asked, %d decided\n",
		label, w.wall.Seconds(), len(w.samples), n, decided)
	k, tail := wl.slices()
	per := len(w.samples) / tail
	beyond := per - int(math.Ceil(0.99*float64(per)))
	for _, d := range endToEnd {
		extra := ""
		switch d.name {
		case "latency_ms.p50", "verdicts_per_s", "cpu_ms_per_verdict":
			extra = fmt.Sprintf("  (n=%d, slices=%d)", len(w.samples), k)
		case "latency_ms.p99":
			extra = fmt.Sprintf("  (n=%d, slices=%d of %d samples, %d beyond p99 in each)", len(w.samples), tail, per, beyond)
		case "decided_frac":
			extra = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(out, "  %-22s %14.4f %-6s%s\n", d.name, m[d.name].Value, d.unit, extra)
	}
	mix := map[string]int{}
	for _, s := range w.samples {
		mix[s.path]++
	}
	keys := make([]string, 0, len(mix))
	for k := range mix {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, mix[k])
	}
	fmt.Fprintf(out, "  path mix: %s\n", strings.Join(parts, " "))
	if len(delta) > 0 {
		keys = keys[:0]
		for k := range delta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts = parts[:0]
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%g", k, delta[k]))
		}
		fmt.Fprintf(out, "  counters: %s\n", strings.Join(parts, " "))
	}
}

func printLayers(out io.Writer, m metrics) {
	fmt.Fprintln(out, "per-layer metrics (traced half):")
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", d.name, m[d.name].Value, d.unit)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "engines, serve-hit or serve-miss")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "bmcbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bmcbench: %v\n", err)
		os.Exit(2)
	}
	res, err := run(cfg, wl, os.Stdout)
	if err != nil && !errors.Is(err, errWrong) {
		fmt.Fprintf(os.Stderr, "bmcbench: %v\n", err)
		os.Exit(2)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "bmcbench: %v\n", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}
