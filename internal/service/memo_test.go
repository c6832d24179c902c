package service

// Model-memo tests: a model whose text a shard has already parsed is
// answered from the verdict cache without parsing it again, on the entry
// shard and on the owner alike; a bad model is never memoized; a memo
// hit that misses the verdict cache still gets its parse; and finished
// jobs keep only their answer.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/circuits"
)

// memoStats fetches a server's model_memo section over /metrics.
func memoStats(t *testing.T, url string) (hits, misses int64, entries int) {
	t.Helper()
	var m MetricsSnapshot
	if code := getJSON(t, url+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	return m.ModelMemo.Hits, m.ModelMemo.Misses, m.ModelMemo.Entries
}

func TestServiceModelMemo(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 1})

	// A parse failure is never memoized: the same bad text is parsed, and
	// refused, every time.
	bad := CheckRequest{Model: "model broken\ngibberish;", Bound: 3}
	for i := 0; i < 2; i++ {
		if code := postJSON(t, url+"/v1/check", bad, nil); code != http.StatusBadRequest {
			t.Fatalf("bad model, try %d: HTTP %d, want 400", i, code)
		}
	}
	if hits, misses, entries := memoStats(t, url); hits != 0 || misses != 2 || entries != 0 {
		t.Fatalf("after two bad models: hits=%d misses=%d entries=%d, want 0/2/0", hits, misses, entries)
	}

	// The format is part of the key: text that parsed as MSL is still
	// parsed, and refused, as AAG.
	if r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 3, Engine: "sat"}); r.Status != "UNREACHABLE" {
		t.Fatalf("cex model at k=3: %s, want UNREACHABLE", r.Status)
	}
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: cexMSL, Format: "aag", Bound: 3}, nil); code != http.StatusBadRequest {
		t.Fatalf("MSL text sent as aag: HTTP %d, want 400", code)
	}

	// A repeated check is a memo hit and a verdict-cache hit.
	hits, misses, _ := memoStats(t, url)
	if r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 3, Engine: "sat"}); !r.Cached {
		t.Fatalf("repeated check not cached: %+v", r)
	}
	if h, m, _ := memoStats(t, url); h != hits+1 || m != misses {
		t.Fatalf("repeated check: hits %d->%d misses %d->%d, want +1 and unchanged", hits, h, misses, m)
	}

	// A memo hit that misses the verdict cache: the worker parses the
	// text itself, since a cold sat run and the witness replay both need
	// the model.
	r := checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 5, Engine: "sat", Witness: true})
	if r.Cached || r.Status != "REACHABLE" || r.FoundAt != 5 || !r.WitnessValidated {
		t.Fatalf("memo hit, cache miss at k=5: %+v, want a fresh REACHABLE at 5 with a validated witness", r)
	}
	if h, m, _ := memoStats(t, url); h != hits+2 || m != misses {
		t.Fatalf("memo-hit cache miss: hits %d->%d misses %d->%d, want +2 and unchanged", hits, h, misses, m)
	}

	// The memo is an LRU bounded by its capacity.
	memo := newModelMemo(2)
	a, b, c := modelDigest("msl", "a"), modelDigest("msl", "b"), modelDigest("msl", "c")
	memo.put(a, "A")
	memo.put(b, "B")
	memo.put(c, "C")
	if _, ok := memo.get(a); ok {
		t.Fatal("the oldest key survived an insert past capacity")
	}
	memo.get(b) // b is now the most recently used
	memo.put(a, "A")
	if _, ok := memo.get(c); ok {
		t.Fatal("the least recently used key survived an insert past capacity")
	}
	if h, ok := memo.get(b); !ok || h != "B" {
		t.Fatalf("recently used key: %q %v, want B", h, ok)
	}
	if _, _, entries := memo.stats(); entries != 2 {
		t.Fatalf("memo of capacity 2 holds %d entries", entries)
	}
	if modelDigest("msl", "x") == modelDigest("aag", "x") {
		t.Fatal("same text in two formats shares a memo key")
	}
}

// TestServiceClusterHitParsesNothing: a verdict asked through the
// non-owner costs no parse on either shard — the entry shard routes the
// miss on the memoized hash and adopts the owner's replica through its
// memo — and the repeat is answered by the entry shard itself, from
// that replica: one memo hit there, and the owner sees nothing.
func TestServiceClusterHitParsesNothing(t *testing.T) {
	servers, urls := newTestCluster(t, 2, Config{Workers: 2})
	src := aagSource(t, circuits.DeepCounter(8))
	owner := ownerIndex(t, servers, urls, src)
	entry := 1 - owner
	req := CheckRequest{Model: src, Format: "aag", Bound: 4, Engine: "sat"}

	if r, shard := checkWaitShard(t, urls[entry], req); r.Cached || shard != urls[owner] {
		t.Fatalf("first check: cached=%v answered by %s, want a fresh answer from the owner", r.Cached, shard)
	}
	// The fill replicates to the entry shard (the key's failover shard),
	// which adopts it through the memo the proxied request filled. Wait
	// for the push's own memo lookup too: an anti-entropy pull can land
	// the entry first, and it consults no memo.
	waitUntil(t, 10*time.Second, "the fill to reach the entry shard", func() bool {
		h, m, _ := servers[entry].models.stats()
		return replSnap(t, servers[entry]).ReplicatedIn >= 1 && h+m >= 2
	})
	var hits, misses [2]int64
	for i, u := range urls {
		hits[i], misses[i], _ = memoStats(t, u)
	}
	if misses[entry] != 1 {
		t.Fatalf("entry shard parsed %d times, want 1: replica adoption must hit the memo", misses[entry])
	}
	forwarded := servers[owner].Metrics().Cluster.ForwardedIn

	if r, shard := checkWaitShard(t, urls[entry], req); !r.Cached || shard != urls[entry] {
		t.Fatalf("repeat: cached=%v answered by %s, want a cached answer from the entry shard %s", r.Cached, shard, urls[entry])
	}
	if h, m, _ := memoStats(t, urls[entry]); h != hits[entry]+1 || m != misses[entry] {
		t.Errorf("entry shard across the repeat: hits %d->%d misses %d->%d, want +1 and unchanged", hits[entry], h, misses[entry], m)
	}
	if h, m, _ := memoStats(t, urls[owner]); h != hits[owner] || m != misses[owner] {
		t.Errorf("owner across the repeat: hits %d->%d misses %d->%d, want both unchanged", hits[owner], h, misses[owner], m)
	}
	if got := servers[owner].Metrics().Cluster.ForwardedIn; got != forwarded {
		t.Errorf("owner forwarded_in %d->%d across the repeat, want unchanged", forwarded, got)
	}
}

// hitBody is a width-10 factorizer check, the model serve-hit sends most.
func hitBody(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(CheckRequest{Model: aagSource(t, circuits.Factorizer(10, 249989)), Bound: 2, Engine: "sat"})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveCheck posts one /v1/check body straight into the handler.
func serveCheck(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
	return rec
}

// checkRecorded decodes a recorded check's 200 answer.
func checkRecorded(t *testing.T, rec *httptest.ResponseRecorder) *JobResult {
	t.Helper()
	var st checkResponse
	if rec.Code != http.StatusOK {
		t.Fatalf("check: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil || st.Result == nil {
		t.Fatalf("check: %v, result %v", err, st.Result)
	}
	return st.Result
}

// hitAllocLimit is twice the 50 allocations one cached check of the
// width-10 factorizer measured through the handler, request and
// recorder included. A hit that parses the model costs thousands.
const hitAllocLimit = 2 * 50

// TestServiceHitAllocBudget gates the cost of a verdict-cache hit: a
// digest, a lookup and the JSON on either side, never a parse.
func TestServiceHitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New(Config{Workers: 1})
	defer drain(t, s)
	h, body := s.Handler(), hitBody(t)
	checkRecorded(t, serveCheck(h, body)) // the miss that fills the cache
	if r := checkRecorded(t, serveCheck(h, body)); !r.Cached {
		t.Fatalf("repeat: %+v, want a cached answer", r)
	}
	got := testing.AllocsPerRun(50, func() { serveCheck(h, body) })
	if got > hitAllocLimit {
		t.Errorf("a cached check allocates %.0f/op, over the limit %d", got, hitAllocLimit)
	}
}

// TestServiceHitByteBudget gates the bytes a verdict-cache hit of the
// width-10 factorizer allocates, request and recorder included: under
// twice its body. The handler reads the body once; decoding the model
// out of it would allocate its text twice more.
func TestServiceHitByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	s := New(Config{Workers: 1})
	defer drain(t, s)
	h, body := s.Handler(), hitBody(t)
	checkRecorded(t, serveCheck(h, body)) // the miss that fills the cache
	if r := checkRecorded(t, serveCheck(h, body)); !r.Cached {
		t.Fatalf("repeat: %+v, want a cached answer", r)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serveCheck(h, body)
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, 2*uint64(len(body)); got >= limit {
		t.Errorf("a cached check of a %d-byte body allocates %d bytes, over the limit %d", len(body), got, limit)
	}
}

// TestServiceFinishedJobsReleaseModels: the server keeps nothing of a
// finished check, so 1,024 cached checks leave the live heap under
// 4 MiB.
func TestServiceFinishedJobsReleaseModels(t *testing.T) {
	if raceEnabled {
		t.Skip("heap measurements are not meaningful under the race detector")
	}
	s := New(Config{Workers: 1})
	defer drain(t, s)
	h, body := s.Handler(), hitBody(t)
	checkRecorded(t, serveCheck(h, body))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 1024; i++ {
		serveCheck(h, body)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if r := checkRecorded(t, serveCheck(h, body)); !r.Cached {
		t.Fatalf("repeat: %+v, want a cached answer", r)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 4<<20 {
		t.Fatalf("1024 cached checks grew the live heap by %.1f MiB, want under 4", float64(grown)/(1<<20))
	}
}
