package service

// The HTTP face of bmcd. All endpoints speak JSON:
//
//	POST   /v1/check        run one check and answer 200 with its result
//	                        on the same connection; a client that
//	                        disconnects first cancels the check. A
//	                        verdict-cache hit is answered at once, on
//	                        the handler goroutine, without a worker.
//	                        The body is one JSON object; trailing data
//	                        is a 400. A body that opens with its model
//	                        string has it checked in one scan
//	                        (checkbody.go), and its raw bytes key the
//	                        model memo: a memo hit then a cache hit
//	                        never unescapes the model, and a proxied
//	                        miss forwards the body as it came.
//	                        {"prove":true} (or {"engine":"interp"}) asks
//	                        for a terminal verdict: a SAFE answer holds
//	                        at every depth, carries a replayable
//	                        invariant certificate ({"certificate":true}
//	                        echoes it), and is cached bound-free — once
//	                        a model has a terminal verdict, "bound" is
//	                        advisory and any requested bound answers
//	                        from cache.
//	POST   /v1/batch        submit several checks at once; synchronous.
//	                        Every item is an ordinary job — same cache,
//	                        sessions and timeouts as /v1/check — and a
//	                        batch may mix deepen and plain checks. Every
//	                        item is validated before any runs (one bad
//	                        item is a 400 for the batch; so is trailing
//	                        data), and the whole batch runs on the shard
//	                        it lands on, clustered or not: a cached item
//	                        is answered in place, the rest queue here. The
//	                        batch meets the one admission gate once: the
//	                        watermark, the admit faultpoint, draining and
//	                        queue room for every miss refuse it whole with
//	                        503. An item the breaker refuses is answered
//	                        in place with ERROR while the rest run.
//	GET    /metrics         MetricsSnapshot JSON
//	GET    /healthz         200 ok / 503 draining
//
// Clustered shards additionally expose the peer-to-peer endpoints
// GET /v1/cluster/health (gossip, with the per-peer counts of dropped
// pushes), POST /v1/cluster/replicate (verdict write-behind to every
// peer, also what carries warm state off a draining shard) and
// GET /v1/cluster/repair (a shard's whole verdict cache, pulled on
// first contact and after a dropped push); see router.go and
// replication.go.
//
// Every check that enters a shard, /v1/check (a set of one) or the
// items of a /v1/batch, passes one admission gate (Server.admit); a
// cached check differs only in needing no queue slot and not meeting
// the quarantine breaker. A check lives as long as its request: there
// is no job ID to poll or cancel, and a timeout_ms or a disconnect is
// how a client stops one early. Submissions during a drain get 503 with
// Retry-After, which is what a load balancer in front of a rolling
// restart wants to see.

import (
	"context"
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
	_ = json.NewEncoder(w).Encode(v)
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
	req, raw, err := decodeCheck(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
		return
	}
	j, err := s.newJob(req, raw)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	clampDeadline(r, j)
	// A verdict-cache hit is answered on this shard, from its own cache
	// (its own fills plus what peers pushed or it pulled): no proxy hop,
	// no queue slot, no worker. Only a miss is routed: clustered, the
	// model hash decides which shard runs it, and routeCheck answers
	// true when the request was proxied away. What stays here is a set
	// of one for the admission gate.
	items, hits := [1]*job{j}, [1]*JobResult{}
	s.batchHits(items[:], hits[:])
	if hits[0] != nil {
		s.noteLocal(r, items[:], hits[:])
	} else if s.routeCheck(w, r, j, body) {
		return
	} else if j.req.Model == "" {
		// A memo hit left the model in the body; this shard runs the
		// miss, and its worker parses the text.
		if j.req.Model, err = unquoteModel(raw); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request: %w", err))
			return
		}
	}
	refused, err := s.admit(items[:], hits[:])
	if err == nil && refused != nil {
		err = refused[0]
	}
	if err != nil {
		s.writeError(w, submitCode(err), err)
		return
	}
	// The client going away cancels the job: the worker observes the
	// flag within a few conflicts and finishes it UNKNOWN, so the queue
	// never clogs with abandoned work. A hit is finished already.
	select {
	case <-j.done:
	case <-r.Context().Done():
		j.cancel.Set()
		<-j.done
		return // client is gone; nothing to write
	}
	writeJSON(w, http.StatusOK, j.response())
}

// clampDeadline clamps j's solving budget to the remaining budget a
// proxying peer sent (deadlineHeader), so a chain of hops can never keep
// working past the client's own deadline. It only ever shrinks.
func clampDeadline(r *http.Request, j *job) {
	if ms := r.Header.Get(deadlineHeader); ms != "" {
		if v, err := strconv.ParseInt(ms, 10, 64); err == nil && v > 0 {
			if d := time.Duration(v) * time.Millisecond; j.timeout <= 0 || j.timeout > d {
				j.timeout = d
			}
		}
	}
}

// bodyPresize caps the buffer readBody allocates from a declared
// Content-Length before any byte arrives; a longer body grows its
// buffer as it arrives. It sits well above the 13.5 KB of a width-10
// factorizer check.
const bodyPresize = 64 << 10

// readBody reads a request body once, capped at maxBodyBytes: the
// handler decodes these bytes, and a proxied miss forwards them as
// they are. A client's Content-Length sizes the buffer only up to
// bodyPresize, so a connection that declares 16 MiB and stalls holds
// no more than it sent.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= bodyPresize {
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
	// Every item is parsed once, here: a bad item answers 400 before
	// anything runs. Each item's cancel flag derives from the batch's
	// disconnect flag: a client going away stops every item, while an
	// item's own timeout (which answer fires on its flag) stops only that
	// item. clampDeadline still applies: a peer running an older release
	// forwards batch partitions with a deadline.
	items := make([]*job, len(req.Jobs))
	for i, jr := range req.Jobs {
		j, err := s.newJob(jr, nil)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("service: batch job %d: %w", i, err))
			return
		}
		clampDeadline(r, j)
		items[i] = j
	}
	// A client disconnect cancels every item. The request context also
	// ends when the handler returns, by which time every item is done.
	parent := sebmc.NewCancelFlag()
	context.AfterFunc(r.Context(), parent.Set)
	for _, j := range items {
		j.cancel = sebmc.DeriveCancel(parent)
	}
	// The batch runs here whatever the ring says — a miss another shard
	// owns runs cold here rather than taking a proxy hop — and meets the
	// admission gate once, so it is admitted whole or refused whole with
	// 503. (A batch with more misses than the queue capacity is therefore
	// always refused; split it.) An item the breaker refuses is answered
	// in place with ERROR; the breaker is not re-taught, since a
	// quarantine rejection is a symptom, not a new strike.
	hits := make([]*JobResult, len(items))
	s.batchHits(items, hits)
	s.noteLocal(r, items, hits)
	refused, err := s.admit(items, hits)
	if err != nil {
		s.writeError(w, submitCode(err), err)
		return
	}
	out := make([]*JobResult, len(items))
	for i, j := range items {
		if refused != nil && refused[i] != nil {
			out[i] = errorResult(j, refused[i], false)
			continue
		}
		<-j.done
		out[i] = j.result
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: out})
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
