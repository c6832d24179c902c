package service

// Tests for the checking service, mirroring the repo's concurrency
// test discipline (concurrent_test.go): every answer the server gives
// is compared against the explicit-state oracle, every witness must
// replay, every server is drained at the end and the goroutine count
// must settle — run under -race in CI, these prove the queue, cache,
// session pool and drain are data-race free and correct.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	sebmc "repro"
	"repro/internal/circuits"
	"repro/internal/explicit"
)

const cexMSL = `
model cex
var c : 3 = 0;
next c = c + 1;
bad c == 5;
`

const safeMSL = `
model safe
var c : 2 = 0;
next c = c == 2 ? 0 : c + 1;
bad c == 3;
`

// aagSource serializes a programmatic circuit for submission over the
// wire, with the bad predicate as output 0 (the service's convention).
func aagSource(t *testing.T, sys *sebmc.System) string {
	t.Helper()
	red := sys.Reduce()
	var b strings.Builder
	if err := red.Circ.WriteAAG(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// newTestServer builds a server + HTTP front end whose cleanup drains
// the pool, closes every client connection, and then asserts that the
// goroutine count settles back — the leak discipline of
// concurrent_test.go applied to the service layer.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	before := runtime.NumGoroutine()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		drain(t, s)
		http.DefaultClient.CloseIdleConnections()
		ts.Close()
		settleGoroutines(t, before)
	})
	return s, ts.URL
}

// submit validates one request and passes it through the admission gate
// as a miss, the way a /v1/check that is not cached enters: the job is
// queued, or the gate's refusal comes back.
func (s *Server) submit(req CheckRequest) (*job, error) {
	j, err := s.newJob(req, nil)
	if err != nil {
		return nil, err
	}
	refused, err := s.admit([]*job{j}, []*JobResult{nil})
	if err == nil && refused != nil {
		err = refused[0]
	}
	return j, err
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// checkWait posts one check, waits for its 200 answer and returns the
// result.
func checkWait(t *testing.T, base string, req CheckRequest) *JobResult {
	t.Helper()
	var st checkResponse
	if code := postJSON(t, base+"/v1/check", req, &st); code != http.StatusOK {
		t.Fatalf("check: HTTP %d", code)
	}
	if st.Result == nil {
		t.Fatal("check answered without a result")
	}
	return st.Result
}

func TestServiceCheckKnownVerdicts(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 2, DefaultEngine: sebmc.EnginePortfolio})

	r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Witness: true})
	if r.Status != "REACHABLE" {
		t.Fatalf("cex model at k=5: %s, want REACHABLE", r.Status)
	}
	if !r.WitnessValidated || r.Witness == "" {
		t.Fatalf("reachable verdict served without a replayed witness: %+v", r)
	}
	if r.DecidedBy == "" {
		t.Fatal("decisive result not tagged with the deciding engine")
	}

	r = checkWait(t, url, CheckRequest{Model: safeMSL, Bound: 6, Deepen: true})
	if r.Status != "UNREACHABLE" || r.FoundAt != -1 {
		t.Fatalf("safe model deepen to 6: %s found_at %d, want UNREACHABLE/-1", r.Status, r.FoundAt)
	}
}

func TestServiceVerdictCacheHit(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 2, DefaultEngine: sebmc.EngineSAT})

	req := CheckRequest{Model: cexMSL, Bound: 5, Witness: true}
	first := checkWait(t, url, req)
	if first.Cached {
		t.Fatal("first answer claims to be cached")
	}
	second := checkWait(t, url, req)
	if !second.Cached {
		t.Fatal("repeated identical request missed the verdict cache")
	}
	if second.Status != first.Status || second.Witness != first.Witness || !second.WitnessValidated {
		t.Fatalf("cached answer differs: first %+v, second %+v", first, second)
	}

	// The cached witness is stored even when the requester did not ask
	// for the trace; a later requester who does ask gets it for free.
	third := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5})
	if !third.Cached || third.Witness != "" {
		t.Fatalf("witness-less request: cached=%v witness=%q, want cached with witness stripped", third.Cached, third.Witness)
	}

	var m MetricsSnapshot
	if code := getJSON(t, url+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	if m.Cache.Hits != 2 || m.Cache.Misses != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 2/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.Entries != 1 || m.Cache.Bytes <= 0 {
		t.Fatalf("cache accounting: entries=%d bytes=%d", m.Cache.Entries, m.Cache.Bytes)
	}
}

// TestServiceSessionResume is the acceptance-criterion test at the HTTP
// layer: the same model deepened at bound k and then k+4 must land on a
// warm session the second time — visible both in the response
// (session_hit) and in /metrics — instead of re-encoding from cold.
func TestServiceSessionResume(t *testing.T) {
	for _, engine := range []string{"sat-incr", "jsat"} {
		t.Run(engine, func(t *testing.T) {
			_, url := newTestServer(t, Config{Workers: 2})

			r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 3, Deepen: true, Engine: engine})
			if r.Status != "UNREACHABLE" {
				t.Fatalf("deepen to 3: %s, want UNREACHABLE", r.Status)
			}
			if r.SessionHit {
				t.Fatal("first sight of the model claims a session hit")
			}
			if r.Iterations != 4 {
				t.Fatalf("cold deepen to 3 ran %d bounds, want 4", r.Iterations)
			}

			r = checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 7, Deepen: true, Engine: engine, Witness: true})
			if r.Status != "REACHABLE" || r.FoundAt != 5 {
				t.Fatalf("deepen to 7: %s at %d, want REACHABLE at 5", r.Status, r.FoundAt)
			}
			if !r.SessionHit {
				t.Fatal("repeated model at a deeper bound did not hit the warm session")
			}
			if r.Iterations != 2 {
				t.Fatalf("warm deepen solved %d bounds, want 2 (resumed at 4)", r.Iterations)
			}
			if !r.WitnessValidated {
				t.Fatal("warm-session witness was not replayed")
			}

			var m MetricsSnapshot
			getJSON(t, url+"/metrics", &m)
			if m.Sessions.Hits != 1 || m.Sessions.Misses != 1 {
				t.Fatalf("session counters: hits=%d misses=%d, want 1/1", m.Sessions.Hits, m.Sessions.Misses)
			}
			if m.Sessions.Live != 1 || m.Sessions.Bytes <= 0 {
				t.Fatalf("session accounting: live=%d bytes=%d", m.Sessions.Live, m.Sessions.Bytes)
			}
		})
	}
}

// TestServiceGeometricSchedule drives the schedule field end to end:
// a geometric deepen answers with the same shortest depth as linear,
// reports the bounds it skipped, keeps distinct cache entries per
// schedule, and the skipped-bounds metric counts fresh computes only.
func TestServiceGeometricSchedule(t *testing.T) {
	deepMSL := "model deep\nvar c : 6 = 0;\nnext c = c + 1;\nbad c == 40;\n"
	_, url := newTestServer(t, Config{Workers: 2})

	lin := checkWait(t, url, CheckRequest{Model: deepMSL, Bound: 63, Deepen: true, Engine: "sat-incr"})
	geo := checkWait(t, url, CheckRequest{Model: deepMSL, Bound: 63, Deepen: true, Engine: "sat-incr", Schedule: "geometric"})
	if lin.Status != "REACHABLE" || geo.Status != "REACHABLE" || lin.FoundAt != 40 || geo.FoundAt != 40 {
		t.Fatalf("schedules disagree: linear %s@%d, geometric %s@%d",
			lin.Status, lin.FoundAt, geo.Status, geo.FoundAt)
	}
	if geo.Cached {
		t.Fatal("geometric run hit the linear run's cache entry — schedule missing from the verdict key")
	}
	if geo.Iterations >= lin.Iterations {
		t.Fatalf("geometric ran %d bounds, linear %d — no speedup at depth 40", geo.Iterations, lin.Iterations)
	}
	// Bounds 0..40 decided in geo.Iterations invocations: the rest were
	// covered by doubling jumps.
	if want := 41 - geo.Iterations; geo.BoundsSkipped != want {
		t.Fatalf("bounds_skipped=%d, want %d (41 covered in %d invocations)",
			geo.BoundsSkipped, want, geo.Iterations)
	}

	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.DeepenBoundsSkipped != int64(geo.BoundsSkipped) {
		t.Fatalf("deepen_bounds_skipped=%d, want %d", m.DeepenBoundsSkipped, geo.BoundsSkipped)
	}

	// A cache hit re-serves the recorded savings without moving the
	// metric.
	again := checkWait(t, url, CheckRequest{Model: deepMSL, Bound: 63, Deepen: true, Engine: "sat-incr", Schedule: "geometric"})
	if !again.Cached || again.BoundsSkipped != geo.BoundsSkipped {
		t.Fatalf("cached geometric answer: cached=%v bounds_skipped=%d, want true/%d",
			again.Cached, again.BoundsSkipped, geo.BoundsSkipped)
	}
	getJSON(t, url+"/metrics", &m)
	if m.DeepenBoundsSkipped != int64(geo.BoundsSkipped) {
		t.Fatalf("cache hit moved deepen_bounds_skipped to %d", m.DeepenBoundsSkipped)
	}

	// Unknown schedule names are rejected up front.
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: deepMSL, Bound: 8, Deepen: true, Schedule: "fibonacci"}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown schedule: HTTP %d, want 400", code)
	}
}

// TestServiceCacheMixedBoundsAndSemantics submits one model across a
// grid of bounds, semantics and engines, twice: the first pass must
// match the explicit-state oracle, the second must be answered
// entirely from the verdict cache with identical verdicts — keys must
// not collide across the grid.
func TestServiceCacheMixedBoundsAndSemantics(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 4})

	sys := circuits.TokenRing(5) // cex at k=4, then every 5
	src := aagSource(t, sys)
	loaded, err := sebmc.LoadAIGER(strings.NewReader(src), 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle := explicit.New(loaded)

	type cell struct {
		req  CheckRequest
		want bool
	}
	var grid []cell
	for k := 0; k <= 7; k++ {
		for _, sem := range []string{"exact", "atmost"} {
			for _, engine := range []string{"sat-incr", "jsat"} {
				want := oracle.ReachableExact(k)
				if sem == "atmost" {
					want = oracle.ReachableWithin(k)
				}
				grid = append(grid, cell{
					req:  CheckRequest{Model: src, Format: "aag", Bound: k, Semantics: sem, Engine: engine},
					want: want,
				})
			}
		}
	}
	verdicts := make([]string, len(grid))
	for i, c := range grid {
		r := checkWait(t, url, c.req)
		if got := r.Status == "REACHABLE"; got != c.want || r.Status == "UNKNOWN" {
			t.Fatalf("k=%d %s %s: got %s, oracle says reachable=%v",
				c.req.Bound, c.req.Semantics, c.req.Engine, r.Status, c.want)
		}
		if r.Cached {
			t.Fatalf("k=%d %s %s: first pass claims cached — key collision",
				c.req.Bound, c.req.Semantics, c.req.Engine)
		}
		verdicts[i] = r.Status
	}
	for i, c := range grid {
		r := checkWait(t, url, c.req)
		if !r.Cached {
			t.Fatalf("k=%d %s %s: second pass missed the cache",
				c.req.Bound, c.req.Semantics, c.req.Engine)
		}
		if r.Status != verdicts[i] {
			t.Fatalf("k=%d %s %s: cached verdict %s differs from computed %s",
				c.req.Bound, c.req.Semantics, c.req.Engine, r.Status, verdicts[i])
		}
	}
}

// TestServiceSubmitStorm mirrors the batch-layer stress test at the
// HTTP layer: a storm of concurrent checks across several models and
// bounds, every verdict checked against the oracle.
func TestServiceSubmitStorm(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 4, QueueDepth: 512, DefaultEngine: sebmc.EnginePortfolio})

	systems := []*sebmc.System{
		circuits.Counter(3, 5),
		circuits.CounterEnable(2, 2),
		circuits.TokenRing(5),
		circuits.TrafficLight(2),
		circuits.FIFO(2),
	}
	const maxK = 6
	engines := []string{"portfolio", "sat-incr", "jsat"}
	var wg sync.WaitGroup
	for si, sys := range systems {
		src := aagSource(t, sys)
		oracle := explicit.New(sys)
		for k := 0; k <= maxK; k++ {
			eng := engines[(si+k)%len(engines)]
			want := oracle.ReachableExact(k)
			body := jsonBody(t, CheckRequest{Model: src, Format: "aag", Bound: k, Engine: eng})
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(url+"/v1/check", "application/json", body)
				if err != nil {
					t.Errorf("sys %d %s k=%d: %v", si, eng, k, err)
					return
				}
				defer resp.Body.Close()
				var st checkResponse
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK || st.Result == nil {
					t.Errorf("sys %d %s k=%d: HTTP %d (%v), result %v", si, eng, k, resp.StatusCode, err, st.Result)
					return
				}
				switch res := st.Result; {
				case res.Status == "UNKNOWN":
					t.Errorf("sys %d %s k=%d: UNKNOWN without a budget", si, eng, k)
				case (res.Status == "REACHABLE") != want:
					t.Errorf("sys %d %s k=%d: server says %s, oracle says reachable=%v", si, eng, k, res.Status, want)
				case res.Status == "REACHABLE" && !res.WitnessValidated:
					t.Errorf("sys %d %s k=%d: reachable verdict without witness replay", si, eng, k)
				}
			}()
		}
	}
	wg.Wait()
}

func TestServiceBatch(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 4, DefaultEngine: sebmc.EnginePortfolio})

	batch := BatchRequest{Jobs: []CheckRequest{
		{Model: cexMSL, Bound: 5, Witness: true},
		{Model: safeMSL, Bound: 5},
		{Model: cexMSL, Bound: 4, Engine: "sat"},
	}}
	var resp BatchResponse
	if code := postJSON(t, url+"/v1/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(resp.Results))
	}
	wantStatus := []string{"REACHABLE", "UNREACHABLE", "UNREACHABLE"}
	for i, r := range resp.Results {
		if r.Status != wantStatus[i] {
			t.Fatalf("batch item %d: %s, want %s", i, r.Status, wantStatus[i])
		}
	}
	if resp.Results[0].Witness == "" || !resp.Results[0].WitnessValidated {
		t.Fatal("batch lost the requested witness")
	}

	// Second submission of the same batch is served from cache.
	var again BatchResponse
	postJSON(t, url+"/v1/batch", batch, &again)
	for i, r := range again.Results {
		if !r.Cached {
			t.Fatalf("batch rerun item %d missed the cache", i)
		}
		if r.Status != wantStatus[i] {
			t.Fatalf("batch rerun item %d: %s, want %s", i, r.Status, wantStatus[i])
		}
	}

	// A batch may mix deepen and plain checks: every item is its own
	// job, keyed by its own deepen flag.
	mixed := BatchRequest{Jobs: []CheckRequest{
		{Model: cexMSL, Bound: 5},
		{Model: safeMSL, Bound: 5, Deepen: true},
	}}
	var mixedResp BatchResponse
	if code := postJSON(t, url+"/v1/batch", mixed, &mixedResp); code != http.StatusOK {
		t.Fatalf("mixed batch: HTTP %d, want 200", code)
	}
	if len(mixedResp.Results) != 2 || mixedResp.Results[0].Status != "REACHABLE" || mixedResp.Results[1].Status != "UNREACHABLE" {
		t.Fatalf("mixed batch: %+v, want [REACHABLE UNREACHABLE]", mixedResp.Results)
	}

	// Cached batch items count as completed too: submitted and
	// completed must balance or /metrics reads as lost work.
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.Submitted != 8 || m.Completed != 8 {
		t.Fatalf("batch metrics: submitted=%d completed=%d, want 8/8", m.Submitted, m.Completed)
	}
}

// TestServiceBatchItemTimeout: batch items are ordinary jobs, each with
// its own cancel flag derived from the batch's, so one item running
// out of its timeout_ms stops that item alone. The single worker runs
// the timing-out item first; its siblings still run afterwards and
// answer exactly as they would on their own.
func TestServiceBatchItemTimeout(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	batch := BatchRequest{Jobs: []CheckRequest{
		{Model: aagSource(t, circuits.ParityGuard(10)), Format: "aag", Bound: 8, Engine: "jsat", TimeoutMS: 50},
		{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true},
		{Model: safeMSL, Bound: 5, Engine: "sat"},
	}}
	var resp BatchResponse
	if code := postJSON(t, url+"/v1/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("batch: HTTP %d", code)
	}
	want := []string{"UNKNOWN", "REACHABLE", "UNREACHABLE"}
	for i, r := range resp.Results {
		if r.Status != want[i] {
			t.Fatalf("batch item %d: %s, want %s", i, r.Status, want[i])
		}
	}
	if !resp.Results[1].WitnessValidated {
		t.Fatal("sibling of the timed-out item lost its replayed witness")
	}
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.TimedOut != 1 || m.Cancelled != 0 {
		t.Fatalf("timeout accounting: timed_out=%d cancelled=%d, want 1/0", m.TimedOut, m.Cancelled)
	}
}

// TestServiceBatchDisconnectCancels: a client going away mid-batch
// cancels every item — the running one and those still queued behind
// it — so the worker comes free, every item is accounted as cancelled,
// and (through the cleanup's settle) no goroutine outlives the batch.
func TestServiceBatchDisconnectCancels(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	src := aagSource(t, circuits.ParityGuard(10))
	const items = 4
	batch := BatchRequest{}
	for i := 0; i < items; i++ {
		batch.Jobs = append(batch.Jobs, CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "jsat"})
	}
	body, _ := json.Marshal(batch)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/batch", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	waitFor(t, "the first item to start", func() bool {
		m := s.Metrics()
		return m.Submitted == items && m.QueueDepth == items-1
	})
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the aborted batch request to error")
	}
	waitFor(t, "every item to be cancelled", func() bool { return s.Metrics().Cancelled == items })
	if m := s.Metrics(); m.Completed != items || m.TimedOut != 0 {
		t.Fatalf("disconnect accounting: completed=%d timed_out=%d, want %d/0", m.Completed, m.TimedOut, items)
	}

	// The worker is free again: the next job completes.
	if r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}); r.Status != "REACHABLE" {
		t.Fatalf("job after the cancelled batch: %s, want REACHABLE", r.Status)
	}
}

// TestServiceCancelRunningJob pins cooperative cancellation through the
// Go client: ParityGuard's fan-out makes jSAT effectively
// non-terminating at this bound, so only a working context -> closed
// request -> CancelFlag -> solver-poll chain lets this test finish, and
// the job counts as cancelled, not timed out.
func TestServiceCancelRunningJob(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})

	src := aagSource(t, circuits.ParityGuard(10))
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := NewClient(url).Check(ctx, CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "jsat"})
		errc <- err
	}()
	waitUntil(t, 30*time.Second, "the job to start", func() bool {
		return s.Metrics().Submitted == 1 && len(s.queue) == 0
	})
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled check: %v, want context.Canceled", err)
	}
	waitUntil(t, 30*time.Second, "the cancelled job to finish", func() bool { return s.Metrics().Completed == 1 })
	if m := s.Metrics(); m.Cancelled != 1 || m.TimedOut != 0 {
		t.Fatalf("cancel accounting: cancelled=%d timed_out=%d, want 1/0", m.Cancelled, m.TimedOut)
	}
}

// TestServiceWaitDisconnectCancels: a client going away must cancel its
// check and free the worker.
func TestServiceWaitDisconnectCancels(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})

	src := aagSource(t, circuits.ParityGuard(10))
	body, _ := json.Marshal(CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "jsat"})
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/check", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the single worker has picked the job up, then vanish.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var m MetricsSnapshot
		getJSON(t, url+"/metrics", &m)
		if m.Submitted == 1 && m.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it sink into the solver
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected the aborted request to error")
	}

	// The worker must come free again: the next job completes.
	r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"})
	if r.Status != "REACHABLE" {
		t.Fatalf("job after disconnect-cancel: %s, want REACHABLE", r.Status)
	}
}

// TestServiceDrain proves the SIGTERM contract at the library layer:
// draining finishes queued and in-flight jobs, rejects new ones with
// ErrDraining, flips /healthz to 503, and stops the worker pool.
func TestServiceDrain(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	var jobs []*job
	for i := 0; i < 4; i++ {
		j, err := s.submit(CheckRequest{Model: safeMSL, Bound: 6, Deepen: true, Engine: "sat"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	drain(t, s)

	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d not finished by the drain", i)
		}
		if got := j.result.Status; got != "UNREACHABLE" {
			t.Fatalf("job %d drained with %s, want UNREACHABLE", i, got)
		}
	}
	if _, err := s.submit(CheckRequest{Model: safeMSL, Bound: 2}); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	if code := getJSON(t, url+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", code)
	}
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: safeMSL, Bound: 2}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
	batch := BatchRequest{Jobs: []CheckRequest{{Model: safeMSL, Bound: 2}, {Model: cexMSL, Bound: 2}}}
	if code := postJSON(t, url+"/v1/batch", batch, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("batch while draining: HTTP %d, want 503", code)
	}
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if !m.Draining || m.Completed != 4 {
		t.Fatalf("metrics after drain: draining=%v completed=%d", m.Draining, m.Completed)
	}
	// Both rejected submissions — single and batch items — are counted.
	if m.Rejected != 4 {
		t.Fatalf("rejected counter: %d, want 4 (2 singles + 2 batch items)", m.Rejected)
	}
}

// TestServiceQueueFullRejects pins the bounded-queue contract: with the
// single worker pinned down and the one queue slot taken, the next
// submission is turned away with 503 instead of queueing unboundedly.
func TestServiceQueueFullRejects(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	src := aagSource(t, circuits.ParityGuard(10))
	blocker, err := s.submit(CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "jsat"})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 30*time.Second, "the blocker to start", func() bool { return len(s.queue) == 0 })
	if _, err := s.submit(CheckRequest{Model: safeMSL, Bound: 2, Engine: "sat"}); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}
	if _, err := s.submit(CheckRequest{Model: safeMSL, Bound: 2, Engine: "sat"}); err != ErrQueueFull {
		t.Fatalf("over-full submit: %v, want ErrQueueFull", err)
	}
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: safeMSL, Bound: 2, Engine: "sat"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-full HTTP submit: %d, want 503", code)
	}
	// Batches are admitted against the same bound: with the queue at
	// capacity this batch of two cannot fit and must be turned away.
	batch := BatchRequest{Jobs: []CheckRequest{{Model: safeMSL, Bound: 2}, {Model: cexMSL, Bound: 2}}}
	if code := postJSON(t, url+"/v1/batch", batch, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("batch past queue capacity: HTTP %d, want 503", code)
	}
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.Rejected < 4 {
		t.Fatalf("rejected counter: %d, want >= 4", m.Rejected)
	}
	blocker.cancel.Set()
}

// TestServiceHitAnsweredWhileQueueFull: a verdict-cache hit takes no
// queue slot. With the single worker pinned down and the one queue slot
// taken, a miss is turned away with 503, while a hit — single or batch
// item — is answered at once from the handler.
func TestServiceHitAnsweredWhileQueueFull(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	hit := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}
	if r := checkWait(t, url, hit); r.Cached || r.Status != "REACHABLE" {
		t.Fatalf("fill: %+v, want a fresh REACHABLE", r)
	}

	src := aagSource(t, circuits.ParityGuard(10))
	blocker, err := s.submit(CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "jsat"})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.cancel.Set()
	waitUntil(t, 30*time.Second, "the blocker to start", func() bool { return len(s.queue) == 0 })
	if _, err := s.submit(CheckRequest{Model: safeMSL, Bound: 2, Engine: "sat"}); err != nil {
		t.Fatalf("filling the queue: %v", err)
	}
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: safeMSL, Bound: 3, Engine: "sat"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("miss with the queue full: HTTP %d, want 503", code)
	}
	if r := checkWait(t, url, hit); !r.Cached || r.Status != "REACHABLE" {
		t.Fatalf("hit with the queue full: %+v, want a cached REACHABLE", r)
	}
	var br BatchResponse
	if code := postJSON(t, url+"/v1/batch", BatchRequest{Jobs: []CheckRequest{hit, hit}}, &br); code != http.StatusOK {
		t.Fatalf("batch of hits with the queue full: HTTP %d, want 200", code)
	}
	for i, r := range br.Results {
		if !r.Cached || r.Status != "REACHABLE" {
			t.Fatalf("batch item %d: %+v, want a cached REACHABLE", i, r)
		}
	}
	select {
	case <-blocker.done:
		t.Fatal("the blocker finished early; the queue was not held full")
	default:
	}
}

// TestServiceCheckAnswersOnItsConnection: a check lives as long as its
// request. A body without "wait", which earlier releases answered 202
// with a job ID, is answered 200 with its result, miss and hit alike;
// the answer names no job, and the job endpoints answer 404.
func TestServiceCheckAnswersOnItsConnection(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}
	for _, cached := range []bool{false, true} {
		resp, err := http.Post(url+"/v1/check", "application/json", jsonBody(t, req))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		var fields map[string]json.RawMessage
		if err != nil || resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &fields) != nil {
			t.Fatalf("cached=%v: HTTP %d (%s), want 200", cached, resp.StatusCode, raw)
		}
		for _, name := range []string{"id", "state"} {
			if _, ok := fields[name]; ok {
				t.Errorf("cached=%v: the answer carries %q: %s", cached, name, raw)
			}
		}
		var st checkResponse
		if json.Unmarshal(raw, &st) != nil || st.Result == nil || st.Result.Status != "REACHABLE" || st.Result.Cached != cached {
			t.Fatalf("cached=%v: %s, want a REACHABLE result with cached=%v", cached, raw, cached)
		}
	}
	for _, ep := range [][2]string{
		{http.MethodGet, "/v1/jobs/job-000001"},
		{http.MethodGet, "/v1/results/job-000001"},
		{http.MethodDelete, "/v1/jobs/job-000001"},
	} {
		hreq, err := http.NewRequest(ep[0], url+ep[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", ep[0], ep[1], resp.StatusCode)
		}
	}
	if m := s.Metrics(); m.Submitted != 2 || m.Completed != 2 {
		t.Fatalf("jobs submitted=%d completed=%d, want 2/2", m.Submitted, m.Completed)
	}
}

// TestServiceCompactJSON: a response body is compact JSON — the object
// and the encoder's trailing newline, no indentation to encode or ship —
// for a /v1/check hit and for /metrics alike.
func TestServiceCompactJSON(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}
	checkWait(t, url, req)
	get := map[string]func() (*http.Response, error){
		"hit": func() (*http.Response, error) {
			return http.Post(url+"/v1/check", "application/json", jsonBody(t, req))
		},
		"metrics": func() (*http.Response, error) { return http.Get(url + "/metrics") },
	}
	for name, do := range get {
		resp, err := do()
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, %v", name, resp.StatusCode, err)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compact.WriteByte('\n')
		if !bytes.Equal(body, compact.Bytes()) {
			t.Errorf("%s body is not compact JSON:\n%s", name, body)
		}
		var st checkResponse
		if name == "hit" && (json.Unmarshal(body, &st) != nil || st.Result == nil || !st.Result.Cached) {
			t.Errorf("hit: %s, want a cached answer", body)
		}
	}
}

// TestServiceDrainingRefusesHits: a draining standalone server answers
// a cached key 503, exactly as it answers a miss; it does not even look
// the key up.
func TestServiceDrainingRefusesHits(t *testing.T) {
	s, url := newTestServer(t, Config{Workers: 1})
	req := CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat"}
	checkWait(t, url, req)
	if r := checkWait(t, url, req); !r.Cached {
		t.Fatalf("repeat: %+v, want a cached answer", r)
	}
	drain(t, s)
	hits := s.Metrics().Cache.Hits
	if code := postJSON(t, url+"/v1/check", req, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("cached key while draining: HTTP %d, want 503", code)
	}
	if got := s.Metrics().Cache.Hits; got != hits {
		t.Fatalf("a draining server looked the key up: cache hits %d -> %d", hits, got)
	}
}

// TestServiceTimeoutMetric: a job stopped by its own timeout_ms budget
// is reported as timed out, not as a client cancellation.
func TestServiceTimeoutMetric(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})

	src := aagSource(t, circuits.ParityGuard(10))
	r := checkWait(t, url, CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "jsat", TimeoutMS: 50})
	if r.Status != "UNKNOWN" {
		t.Fatalf("budgeted ParityGuard run: %s, want UNKNOWN", r.Status)
	}
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.TimedOut != 1 || m.Cancelled != 0 {
		t.Fatalf("timeout accounting: timed_out=%d cancelled=%d, want 1/0", m.TimedOut, m.Cancelled)
	}
}

// TestServiceSessionPoolEviction: a tiny session budget must evict idle
// sessions instead of growing without bound, and evicted models still
// answer correctly (cold again).
func TestServiceSessionPoolEviction(t *testing.T) {
	// 1-byte budget: nothing idle survives.
	_, url := newTestServer(t, Config{Workers: 1, SessionBytes: 1, CacheBytes: -1})

	for i := 0; i < 3; i++ {
		r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat-incr"})
		if r.Status != "REACHABLE" {
			t.Fatalf("round %d: %s, want REACHABLE", i, r.Status)
		}
		if r.SessionHit {
			t.Fatalf("round %d: session survived a 1-byte budget", i)
		}
	}
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.Sessions.Live != 0 {
		t.Fatalf("sessions live after eviction rounds: %d, want 0", m.Sessions.Live)
	}
}

// TestServiceSessionSeedFromCache: a session built for a key whose
// earlier session was evicted resumes from the longest prefix the
// verdict cache proves for it. The second deepen reports session_hit
// false (the session is new) but solves only the two bounds past the
// cached deepen's prefix 0..4.
func TestServiceSessionSeedFromCache(t *testing.T) {
	// 1-byte budget: every session is evicted as soon as it is released.
	_, url := newTestServer(t, Config{Workers: 1, SessionBytes: 1})
	src := aagSource(t, circuits.Counter(3, 7)) // reaches 7 only at step 7
	req := CheckRequest{Model: src, Format: "aag", Bound: 4, Engine: "sat-incr", Deepen: true}
	if r := checkWait(t, url, req); r.Status != "UNREACHABLE" {
		t.Fatalf("first deepen: %s, want UNREACHABLE", r.Status)
	}
	req.Bound = 6
	r := checkWait(t, url, req)
	if r.Status != "UNREACHABLE" || r.Cached || r.SessionHit {
		t.Fatalf("second deepen: %s cached=%v session_hit=%v, want a fresh UNREACHABLE on a new session",
			r.Status, r.Cached, r.SessionHit)
	}
	if r.Iterations != 2 || r.BoundsSkipped != 5 {
		t.Fatalf("second deepen: iterations=%d bounds_skipped=%d, want 2/5 (seeded with the cached prefix 0..4)",
			r.Iterations, r.BoundsSkipped)
	}
}

// TestServiceSessionSeedIgnoresPlainChecks: only a deepen UNREACHABLE
// seeds a session. Under exact semantics a plain check's UNREACHABLE
// proves its own bound, not the bounds below it: TokenRing(5) is
// reachable at exactly 4 and 9, so a cached plain check at 8 answers
// UNREACHABLE, and a deepen seeded from it would skip 4 and report 9.
func TestServiceSessionSeedIgnoresPlainChecks(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1, SessionBytes: 1})
	sys := circuits.TokenRing(5)
	oracle := explicit.New(sys)
	for k := 0; k <= 10; k++ {
		if got, want := oracle.ReachableExact(k), k == 4 || k == 9; got != want {
			t.Fatalf("oracle: TokenRing(5) reachable at exactly %d = %v, want %v", k, got, want)
		}
	}
	src := aagSource(t, sys)
	if r := checkWait(t, url, CheckRequest{Model: src, Format: "aag", Bound: 8, Engine: "sat-incr"}); r.Status != "UNREACHABLE" {
		t.Fatalf("plain check at 8: %s, want UNREACHABLE", r.Status)
	}
	r := checkWait(t, url, CheckRequest{Model: src, Format: "aag", Bound: 10, Engine: "sat-incr", Deepen: true})
	if r.Status != "REACHABLE" || r.FoundAt != 4 || r.SessionHit {
		t.Fatalf("deepen to 10 on a fresh session: %s found_at=%d session_hit=%v, want REACHABLE at 4",
			r.Status, r.FoundAt, r.SessionHit)
	}
}

// TestServiceSessionSeedWalkStopsOnTimeout: the seed walk takes one
// cache lookup per bound below the request, so its length is the
// client's choice; the job's own budget must stop it like it stops the
// solver. A deepen to a huge bound on a new session answers UNKNOWN
// within its timeout instead of pinning the worker in the walk.
func TestServiceSessionSeedWalkStopsOnTimeout(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})
	start := time.Now()
	r := checkWait(t, url, CheckRequest{Model: safeMSL, Bound: 1 << 40, Engine: "sat-incr", Deepen: true, TimeoutMS: 100})
	if r.Status != "UNKNOWN" {
		t.Fatalf("deepen to 2^40 under a 100ms budget: %s, want UNKNOWN", r.Status)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deepen to 2^40 under a 100ms budget took %v", elapsed)
	}
}

// TestServiceModelsPastParserLimits posts models that used to take a
// shard down: an MSL expression nested a million parentheses deep, whose
// parse overflowed the goroutine stack (fatal, past any recover), and
// AIGER headers whose counts the parser once allocated for up front or
// overflowed int with (a makeslice panic that dropped the connection).
// Each answers on its own connection, and the shard keeps serving.
func TestServiceModelsPastParserLimits(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})

	const n = 1_000_000
	deep := "model m\nvar x : 1 = 0;\nnext x = " + strings.Repeat("(", n) + "x" + strings.Repeat(")", n) + ";\nbad x == 1;\n"
	for _, tc := range []struct {
		req  CheckRequest
		want int
	}{
		{CheckRequest{Model: deep, Format: "msl", Bound: 1}, http.StatusBadRequest},
		{CheckRequest{Model: "aag 4611686018427387904 4611686018427387904 4611686018427387904 0 0\n", Format: "aag", Bound: 1}, http.StatusBadRequest},
		{CheckRequest{Model: "aag 100000000 100000000 0 0 0\n", Format: "aag", Bound: 1}, http.StatusBadRequest},
		{CheckRequest{Model: "aag 200000000 0 0 1 0\n0\n", Format: "aag", Bound: 1}, http.StatusOK},
	} {
		if code := postJSON(t, url+"/v1/check", tc.req, nil); code != tc.want {
			t.Errorf("%.40q: HTTP %d, want %d", tc.req.Model, code, tc.want)
		}
	}
	if code := getJSON(t, url+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz after the oversized models: HTTP %d", code)
	}
}

func TestServiceBadRequests(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})

	cases := []CheckRequest{
		{Model: "", Bound: 3},                             // empty model
		{Model: "model broken\ngibberish;", Bound: 3},     // parse error
		{Model: cexMSL, Bound: -1},                        // negative bound
		{Model: cexMSL, Bound: 3, Engine: "warp-drive"},   // unknown engine
		{Model: cexMSL, Bound: 3, Semantics: "sometimes"}, // unknown semantics
		{Model: cexMSL, Bound: 3, Format: "verilog"},      // unknown format
	}
	for i, c := range cases {
		if code := postJSON(t, url+"/v1/check", c, nil); code != http.StatusBadRequest {
			t.Fatalf("bad request %d: HTTP %d, want 400", i, code)
		}
	}
	// A body is one JSON object, for a check and a batch alike: data
	// after it is a 400, not ignored.
	for path, v := range map[string]any{
		"/v1/check": CheckRequest{Model: cexMSL, Bound: 3},
		"/v1/batch": BatchRequest{Jobs: []CheckRequest{{Model: cexMSL, Bound: 3}}},
	} {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+path, "application/json", strings.NewReader(string(body)+` {"bound":4}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with data after the JSON object: HTTP %d, want 400", path, resp.StatusCode)
		}
	}
	var m MetricsSnapshot
	getJSON(t, url+"/metrics", &m)
	if m.Submitted != 0 {
		t.Fatalf("bad requests counted as submissions: %d", m.Submitted)
	}
}
