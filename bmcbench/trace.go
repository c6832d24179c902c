package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer names one kind of call the benchmark makes into the repository.
// Spans are recorded by the benchmark around these calls only; nothing
// inside the program is instrumented.
type layer uint8

const (
	layerOp       layer = iota // one operation or request, as its caller sees it
	layerLoad                  // sebmc.LoadAIGER
	layerHash                  // sebmc.ModelHash
	layerReduce                // (*System).Reduce, timed beside ModelHash
	layerEncode                // bmc.Prepare + bmc.EncodeUnroll
	layerSATLoad               // loading an encoding into a sat.Solver
	layerSATSolve              // (*sat.Solver).Solve
	layerIncr                  // IncrementalUnroller CheckBound / Deepen / DeepenGeometric
	layerJSAT                  // (*jsat.Solver).Check
	layerQBF                   // bmc.SolveLinear / bmc.SolveSquaring
	layerProve                 // sebmc.Prove
	layerValidate              // Witness.Validate / Certificate.Validate
	layerClient                // one service.Client call
	numLayers
)

var layerNames = [numLayers]string{
	"bench.op", "sebmc.load", "sebmc.hash", "model.reduce", "bmc.encode",
	"sat.load", "sat.solve", "bmc.incr", "jsat.check", "qbf.solve",
	"sebmc.prove", "sebmc.validate", "service.client",
}

func (l layer) String() string { return layerNames[l] }

// span is one timed call. Spans of one operation share req; parent is
// the index of the enclosing span in the same tracer, -1 for a root.
type span struct {
	layer      layer
	parent     int32
	req        int32
	start, end time.Duration // since the tracer's origin
}

// tracer records spans in memory for one caller. A nil *tracer records
// nothing, so untraced runs go through the same code.
type tracer struct {
	origin time.Time
	req    int32
	spans  []span
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

// root opens the span of a new operation.
func (t *tracer) root() int32 {
	if t == nil {
		return -1
	}
	t.req++
	return t.begin(layerOp, -1)
}

func (t *tracer) begin(l layer, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{layer: l, parent: parent, req: t.req, start: time.Since(t.origin)})
	return int32(len(t.spans) - 1)
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.end = time.Since(t.origin)
	return s.end - s.start
}

// layerTimes is what the spans say about each layer: call durations
// (for percentiles) and total self time.
type layerTimes struct {
	durs [numLayers][]time.Duration
	self [numLayers]time.Duration
	// rootTotal is the summed duration of all root spans: the time the
	// callers spent inside operations.
	rootTotal time.Duration
}

// analyze computes per-layer durations and self times. A span's self
// time is its duration minus the part of it that its children cover.
func analyze(ts []*tracer) *layerTimes {
	lt := &layerTimes{}
	for _, t := range ts {
		children := make([][]int32, len(t.spans))
		for i, s := range t.spans {
			if s.parent >= 0 {
				children[s.parent] = append(children[s.parent], int32(i))
			}
		}
		for i, s := range t.spans {
			d := s.end - s.start
			lt.durs[s.layer] = append(lt.durs[s.layer], d)
			lt.self[s.layer] += d - covered(t.spans, s, children[i])
			if s.parent < 0 {
				lt.rootTotal += d
			}
		}
	}
	return lt
}

// covered returns how much of parent's interval the union of its
// children's intervals covers.
func covered(spans []span, parent span, kids []int32) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s < parent.start {
			s = parent.start
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// p50 returns the median duration of a layer's calls in the given unit,
// 0 when the layer was not called.
func (lt *layerTimes) p50(l layer, unit time.Duration) float64 {
	return quantile(durationsIn(lt.durs[l], unit), 0.5)
}

// totalMS returns the summed duration of a layer's calls in ms.
func (lt *layerTimes) totalMS(l layer) float64 {
	var sum time.Duration
	for _, d := range lt.durs[l] {
		sum += d
	}
	return float64(sum) / float64(time.Millisecond)
}

func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// writeSpans dumps every span as one JSON line, once, at the end of a
// traced run.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Caller  int    `json:"caller"`
		ID      int32  `json:"id"`
		Parent  int32  `json:"parent"`
		Req     int32  `json:"req"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	for c, t := range ts {
		for i, s := range t.spans {
			l := line{c, int32(i), s.parent, s.req, s.layer.String(), int64(s.start), int64(s.end)}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
