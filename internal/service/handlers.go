package service

// The HTTP face of bmcd. All endpoints speak JSON:
//
//	POST   /v1/check        submit one job; {"wait":true} (or ?wait=1)
//	                        blocks for the result and cancels the job if
//	                        the client disconnects. 202 + job id
//	                        otherwise. A verdict-cache hit is answered
//	                        at once, on the handler goroutine: 200, or
//	                        202 with the result already in the status.
//	                        The body is one JSON object; trailing data
//	                        is a 400.
//	                        {"prove":true} (or {"engine":"interp"}) asks
//	                        for a terminal verdict: a SAFE answer holds
//	                        at every depth, carries a replayable
//	                        invariant certificate ({"certificate":true}
//	                        echoes it), and is cached bound-free — once
//	                        a model has a terminal verdict, "bound" is
//	                        advisory and any requested bound answers
//	                        from cache.
//	POST   /v1/batch        submit several models at once; synchronous.
//	                        Every item is an ordinary job — same cache,
//	                        sessions and timeouts as /v1/check; a cached
//	                        item is answered in place, the rest queue —
//	                        every item is validated before any runs
//	                        (one bad item is a 400 for the batch; so is
//	                        trailing data), and the batch meets the one
//	                        admission gate once: the watermark and the
//	                        admit faultpoint once, not once per item. It
//	                        is admitted whole or not at all; an item the
//	                        breaker refuses is answered in place with
//	                        ERROR while the rest run.
//	GET    /v1/jobs/{id}    job status (result embedded once done)
//	GET    /v1/results/{id} result only; 202 while still running
//	DELETE /v1/jobs/{id}    cooperative cancel
//	GET    /metrics         MetricsSnapshot JSON
//	GET    /healthz         200 ok / 503 draining
//
// Clustered shards additionally expose the peer-to-peer endpoints
// GET /v1/cluster/health (gossip), POST /v1/cluster/replicate (verdict
// write-behind, also what carries warm state off a draining shard) and
// GET /v1/cluster/repair (anti-entropy pulls); see router.go and
// replication.go.
//
// Every check that enters a shard, /v1/check (a set of one) or the
// items of a /v1/batch, passes one admission gate (Server.admit); a
// cached check differs only in needing no queue slot and not meeting
// the quarantine breaker. Submissions during a drain get 503 with
// Retry-After, which is what a load balancer in front of a rolling
// restart wants to see.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	sebmc "repro"
)

const maxBodyBytes = 16 << 20

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/check", s.handleCheck)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/cluster/health", s.handleClusterHealth)
	mux.HandleFunc("POST /v1/cluster/replicate", s.handleClusterReplicate)
	mux.HandleFunc("GET /v1/cluster/repair", s.handleClusterRepair)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A clustered shard names itself on every response; a proxied
		// answer overwrites this with the shard that actually solved it,
		// so the header always reports where the work ran.
		if cs := s.clusterView(); cs != nil {
			w.Header().Set(shardHeader, cs.self.ID)
		}
		mux.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError writes the JSON error body; every 503 carries a live
// Retry-After, not a hardcoded constant. For an open quarantined key it
// is the time left until the breaker half-opens; otherwise it is
// computed from queue depth and the mean recent job wall-clock — a
// backing-off client waits about as long as the queue actually needs
// to drain. A quarantine rejection is marked as refusing the key, not
// the shard, so a proxying peer relays it instead of shedding the key.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		var open *openKeyError
		if errors.As(err, &open) {
			w.Header().Set("Retry-After", strconv.Itoa(open.retryAfter))
		} else {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
	}
	if errors.Is(err, ErrQuarantined) {
		w.Header().Set(rejectHeader, "quarantined")
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func submitCode(err error) int {
	if errors.Is(err, ErrDraining) || errors.Is(err, ErrQueueFull) ||
		errors.Is(err, ErrQuarantined) || errors.Is(err, ErrOverloaded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	var req CheckRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		req.Wait = true
	}
	j, err := s.newJob(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// A proxied request carries the sender's remaining budget: clamp the
	// local solving budget to it, so a chain of hops can never keep
	// working past the client's own deadline.
	if ms := r.Header.Get(deadlineHeader); ms != "" {
		if v, perr := strconv.ParseInt(ms, 10, 64); perr == nil && v > 0 {
			if d := time.Duration(v) * time.Millisecond; j.timeout <= 0 || j.timeout > d {
				j.timeout = d
			}
		}
	}
	// A verdict-cache hit is answered on this shard, from its own cache
	// (its own fills plus what replication and repair delivered): no
	// proxy hop, no queue slot, no worker. Only a miss is routed:
	// clustered, the model hash decides which shard runs it, and
	// routeCheck answers true when the request was proxied away. What
	// stays here is a set of one for the admission gate.
	items, hits := [1]*job{j}, [1]*JobResult{}
	s.batchHits(items[:], hits[:])
	if hits[0] != nil {
		s.noteHitServed(r, j)
	} else if s.routeCheck(w, r, j, body) {
		return
	}
	refused, err := s.admit(items[:], hits[:])
	if err == nil && refused != nil {
		err = refused[0]
	}
	if err != nil {
		s.writeError(w, submitCode(err), err)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, j.status()) // a hit's status carries its result
		return
	}
	// Synchronous mode: the client going away cancels the job — the
	// worker observes the flag within a few conflicts and publishes an
	// UNKNOWN result, so the queue never clogs with abandoned work. A
	// hit is finished already.
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.cancel.Set()
		<-j.done
		return // client is gone; nothing to write
	}
	writeJSON(w, http.StatusOK, j.status())
}

// readBody reads a request body once, capped at maxBodyBytes, into a
// buffer sized from Content-Length when the client sent one: the
// handler decodes these bytes, and a proxied miss forwards them as
// they are.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// BatchRequest submits several checks at once.
type BatchRequest struct {
	Jobs []CheckRequest `json:"jobs"`
}

// BatchResponse carries one result per submitted job, in order.
type BatchResponse struct {
	Results []*JobResult `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	if len(req.Jobs) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("service: empty batch"))
		return
	}
	for _, jr := range req.Jobs {
		if jr.Deepen != req.Jobs[0].Deepen {
			s.writeError(w, http.StatusBadRequest, errors.New("service: batch mixes deepen and plain checks; split it"))
			return
		}
	}
	// Every item is parsed once, here: a bad item answers 400 before
	// anything runs or fans out. Each item's cancel flag derives from the
	// batch's disconnect flag: a client going away stops every item,
	// while an item's own timeout (which answer fires on its flag) stops
	// only that item.
	items := make([]*job, len(req.Jobs))
	for i, jr := range req.Jobs {
		j, err := s.newJob(jr)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: batch job %d: %w", i, err))
			return
		}
		items[i] = j
	}
	parent := newBatchCancel(r)
	for _, j := range items {
		j.cancel = sebmc.DeriveCancel(parent)
	}
	// Clustered: fan the batch out by owning shard, unless a peer
	// already routed it here — a forwarded partition always runs
	// locally, whatever this shard's ring says.
	if cs := s.clusterView(); cs != nil {
		if r.Header.Get(forwardHeader) == "" {
			s.clusterBatch(w, r, items)
			return
		}
		s.metrics.clusterForwardedIn.Add(int64(len(items)))
	}
	hits := make([]*JobResult, len(items))
	s.batchHits(items, hits)
	results, err := s.localBatch(items, hits)
	if err != nil {
		s.writeError(w, submitCode(err), err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// batchHits is the one verdict-cache lookup of the handlers, for a
// /v1/check (a set of one) and a batch alike, made before the gate
// takes s.mu: it sets hits[i] to item i's cached answer, nil on a miss.
// A draining shard looks nothing up, so its items meet the gate as
// misses and are refused there.
func (s *Server) batchHits(items []*job, hits []*JobResult) {
	if s.Draining() {
		return
	}
	for i, j := range items {
		hits[i], _ = s.cached(j)
	}
}

// localBatch runs a parsed batch on this shard and waits for every
// answer. It calls the admission gate once for the whole batch, so the
// batch is admitted whole or not at all, against the same rules as a
// single check: a draining server, a queue without room for every
// miss, the memory watermark or the admit faultpoint rejects it with
// 503. (A batch with more misses than the queue capacity is therefore
// always rejected; split it.) Hits take no queue slot and are answered
// at once. An item the breaker refuses is answered in place with ERROR
// while the rest of the batch runs; the breaker is not re-taught, since
// a quarantine rejection is a symptom, not a new strike.
func (s *Server) localBatch(items []*job, hits []*JobResult) ([]*JobResult, error) {
	refused, err := s.admit(items, hits)
	if err != nil {
		return nil, err
	}
	out := make([]*JobResult, len(items))
	for i, j := range items {
		if refused != nil && refused[i] != nil {
			out[i] = errorResult(j, refused[i], false)
			continue
		}
		<-j.done
		out[i] = j.Result()
	}
	return out, nil
}

// newBatchCancel returns a flag that is set when the request's client
// disconnects (the request context also ends when the handler returns,
// so the watcher never outlives the batch by more than a moment).
func newBatchCancel(r *http.Request) *sebmc.CancelFlag {
	parent := sebmc.NewCancelFlag()
	go func() {
		<-r.Context().Done()
		parent.Set()
	}()
	return parent
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	if res := j.Result(); res != nil {
		writeJSON(w, http.StatusOK, res)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// cancelResponse is DELETE /v1/jobs/{id}'s body: the job status plus
// whether the cancel arrived after the job had already finished — in
// which case nothing was stopped and the published result stands.
type cancelResponse struct {
	jobStatus
	AlreadyDone bool `json:"already_done,omitempty"`
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		s.writeError(w, http.StatusNotFound, errors.New("service: unknown job"))
		return
	}
	// Cancelling a finished job is a no-op: nothing is running to stop,
	// the published result stands, and the client is told so.
	done := j.Result() != nil
	if !done {
		j.cancel.Set()
	}
	writeJSON(w, http.StatusOK, cancelResponse{jobStatus: j.status(), AlreadyDone: done})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

type healthBody struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, healthBody{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{Status: "ok"})
}
