package main

import (
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/service"
)

// counterOps keeps only the engines workload's bounded checks on the
// Table-1 counter, so a run takes well under a second.
func counterOps(t *testing.T) *engines {
	t.Helper()
	e, err := newEngines(1)
	if err != nil {
		t.Fatal(err)
	}
	var keep []engineOp
	for _, op := range e.ops {
		if op.kind == opCheck && op.model == "counter" {
			keep = append(keep, op)
		}
	}
	if len(keep) == 0 {
		t.Fatal("no counter checks in the engines pool")
	}
	e.ops = keep
	return e
}

func TestEnginesRunIsCorrect(t *testing.T) {
	res, err := run(config{workload: "engines", seed: 1, seconds: 0.2}, counterOps(t), io.Discard)
	if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run = %+v, %v; want a correct run with no failures", res, err)
	}
}

// A flipped expected answer must fail the run: the benchmark checks
// every verdict, it does not just time it.
func TestFlippedExpectedAnswerFailsRun(t *testing.T) {
	e := counterOps(t)
	flipped := false
	for i := range e.ops {
		if e.ops[i].k == e.ops[i].depth {
			e.ops[i].depth = -1 // claim the REACHABLE check is safe
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no check at the counterexample depth to flip")
	}
	res, err := run(config{workload: "engines", seed: 1, seconds: 0.2}, e, io.Discard)
	if !errors.Is(err, errWrong) || res.Correct {
		t.Fatalf("run = %+v, %v; want Correct false and errWrong", res, err)
	}
}

func TestServeAnswerChecks(t *testing.T) {
	req := &serveReq{label: "r", status: "UNREACHABLE", foundAt: -1}
	for _, tc := range []struct {
		name    string
		res     *service.JobResult
		decided bool
		wrong   bool
	}{
		{"right", &service.JobResult{Status: "UNREACHABLE", FoundAt: -1}, true, false},
		{"flipped", &service.JobResult{Status: "REACHABLE", FoundAt: 3, WitnessValidated: true}, true, true},
		{"unknown", &service.JobResult{Status: "UNKNOWN"}, false, false},
		{"error", &service.JobResult{Status: service.StatusError}, false, false},
	} {
		var chk checker
		if got := checkServe(&chk, req, tc.res); got != tc.decided {
			t.Errorf("%s: decided = %v, want %v", tc.name, got, tc.decided)
		}
		if got := len(chk.failures()) > 0; got != tc.wrong {
			t.Errorf("%s: wrong = %v, want %v", tc.name, got, tc.wrong)
		}
	}
}

// A salted model is new to the service (another ModelHash) but the same
// circuit, so it has the same answer.
func TestSaltedModelIsNewButSame(t *testing.T) {
	text := aag(circuits.Counter(8, 100))
	load := func(s string) *sebmc.System {
		sys, err := sebmc.LoadAIGER(strings.NewReader(s), 0)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	base, salt1, salt2 := load(text), load(salted(text, "c0.p1")), load(salted(text, "c0.p2"))
	if h := sebmc.ModelHash(base); h == sebmc.ModelHash(salt1) || sebmc.ModelHash(salt1) == sebmc.ModelHash(salt2) {
		t.Fatal("salting did not change the model hash")
	}
	if got := sebmc.ShortestCounterexample(salt1); got != 100 {
		t.Fatalf("salted counter reaches bad at %d, want 100", got)
	}
}

// The serve-miss stream never runs out of models, and every run of six
// requests holds each kind once.
func TestMissStreamCyclesAndStratifies(t *testing.T) {
	m, err := newServeMiss(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]*missModel{m.factors, m.johnson, m.counters} {
		for _, mm := range list {
			mm.text = aag(mm.build())
		}
	}
	rng := rand.New(rand.NewSource(1))
	g := &missGen{rng: rng,
		factors:  &cycle{models: m.factors},
		johnson:  &cycle{models: interleave(m.johnson, rng)},
		counters: &cycle{models: interleave(m.counters, rng)},
	}
	seen := map[string]bool{}
	for run := 0; run < 200; run++ {
		kinds := map[string]int{}
		for i := 0; i < len(missKinds); i++ {
			reqs := g.next()
			kind, _, _ := strings.Cut(reqs[0].label, "/")
			kinds[kind]++
			for _, r := range reqs {
				if seen[r.label] && kind != "resume" {
					t.Fatalf("request %s sent twice", r.label)
				}
				seen[r.label] = true
			}
		}
		// The very first resume has no factorizer to resume yet.
		if run > 0 && len(kinds) != len(missKinds) {
			t.Fatalf("run %d of six holds kinds %v, want each once", run, kinds)
		}
	}
	if g.johnson.pass < 2 || g.counters.pass < 2 {
		t.Fatalf("pools did not cycle: johnson pass %d, counters pass %d", g.johnson.pass, g.counters.pass)
	}
}
