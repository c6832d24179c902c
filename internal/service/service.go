// Package service implements bmcd, the long-running checking service:
// an HTTP/JSON front end that keeps the sebmc engines warm across
// requests. Four mechanisms make the server cheaper than re-running
// the CLI per query:
//
//   - a model memo from a digest of (format, model text) to the model's
//     content hash (memo.go), so a repeated model costs a digest and a
//     lookup on every shard it crosses; the model is parsed only on a
//     verdict-cache miss;
//   - a bounded job queue fanned over a fixed worker pool — the one
//     path a verdict-cache miss takes: a batch submission is just
//     several queued jobs — with cooperative cancellation on client
//     disconnect, per-request timeout, and explicit cancel. Every check
//     enters through one admission gate (admit), single or batch, hit
//     or miss;
//   - a verdict cache keyed by (model content hash, bound, semantics,
//     engine, deepen, CNF mode) under an LRU byte budget, accounted the
//     same honest way as the solvers' ClauseDBBytes/MemBytes. A hit is
//     answered on the handler goroutine of the shard it lands on, from
//     that shard's own cache: no queue slot, no worker, no proxy hop;
//   - a session pool of persistent EngineSATIncr / EngineJSAT handles
//     (sebmc.Session), so a repeated model submitted at a deeper bound
//     resumes the warm solver — learned clauses, hopeless-state cache
//     and the proven-unreachable prefix carry over — instead of
//     starting cold. A session built for a key the cache already holds
//     deepen verdicts for (its own earlier, evicted session's, or a
//     peer's, replicated) starts from the longest prefix they prove.
//
// Every answer takes one path from solver to wire: the library's
// outcome arrives as a sebmc.Verdict, fromVerdict turns it into a
// JobResult, and that same record is what the verdict cache stores and
// what replication ships to peers.
//
// Shutdown is a graceful drain: new submissions are rejected with 503,
// queued and in-flight jobs run to completion, then the server stops.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	sebmc "repro"
	"repro/internal/faultpoint"
)

// Config sizes the server. The zero value is usable: one worker per
// CPU, a 64-slot queue, 16 MiB of verdicts, 64 MiB of warm sessions.
type Config struct {
	// Workers is the job worker pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it are rejected with 503 (0 = 64).
	QueueDepth int
	// CacheBytes is the verdict cache's LRU byte budget (0 = 16 MiB;
	// negative disables the cache).
	CacheBytes int
	// SessionBytes is the session pool's retained-solver byte budget
	// (0 = 64 MiB; negative disables warm sessions).
	SessionBytes int
	// DefaultEngine answers requests that name no engine
	// (zero value = EngineSAT; bmcd defaults to the portfolio).
	DefaultEngine sebmc.Engine
	// DefaultSchedule is the deepening schedule for requests that name
	// none (zero value = linear).
	DefaultSchedule sebmc.Schedule
	// MaxJobs bounds the finished-job history kept for status queries
	// (0 = 4096). Oldest finished jobs are evicted first.
	MaxJobs int

	// MaxTimeout caps every request's solving budget: a client
	// timeout_ms above it is clamped, and a request with no timeout at
	// all gets exactly MaxTimeout — so a hostile bound can pin a worker
	// for at most this long. 0 leaves client budgets uncapped.
	MaxTimeout time.Duration

	// MemHighWater is the overload watermark over retained memory
	// (warm sessions + verdict cache). When an admission would find the
	// total above it, idle sessions are shed LRU-first; if that is not
	// enough, the submission is rejected with 503 — degrade before the
	// process OOMs. 0 disables the watermark.
	MemHighWater int

	// QuarantineThreshold is the circuit breaker's trip count: after
	// this many internal errors (panics, poisoned sessions) for one
	// (model hash, engine) key, requests for it are rejected
	// immediately until QuarantineTTL passes and a half-open probe
	// succeeds. 0 = 3; negative disables quarantine.
	QuarantineThreshold int
	// QuarantineTTL is how long a quarantined key stays rejected
	// before the breaker half-opens (0 = 30s).
	QuarantineTTL time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 16 << 20
	}
	if c.SessionBytes == 0 {
		c.SessionBytes = 64 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineTTL <= 0 {
		c.QuarantineTTL = 30 * time.Second
	}
	return c
}

// Errors surfaced to submitters. ErrQuarantined lives in quarantine.go.
var (
	ErrDraining  = errors.New("service: draining, not accepting new jobs")
	ErrQueueFull = errors.New("service: job queue full")
	// ErrOverloaded rejects a submission because retained memory is
	// over the watermark and shedding idle sessions was not enough.
	ErrOverloaded = errors.New("service: over memory watermark, shedding was not enough")
)

// Server is the checking service. Create with New, expose Handler()
// over any http.Server, and stop with Drain.
type Server struct {
	cfg      Config
	metrics  *metrics
	cache    *verdictCache
	sessions *sessionPool
	quar     *quarantine
	models   *modelMemo

	// cluster is non-nil once JoinCluster succeeds (router.go); nil on a
	// standalone server, which skips every routing branch.
	cluster     atomic.Pointer[clusterState]
	clusterOnce sync.Once

	mu       sync.Mutex
	draining bool
	queue    chan *job
	jobs     map[string]*job
	order    []string // submission order, for history eviction
	head     int      // rolling eviction cursor into order
	nextID   uint64

	wg sync.WaitGroup
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		cache:    newVerdictCache(cfg.CacheBytes),
		sessions: newSessionPool(cfg.SessionBytes),
		quar:     newQuarantine(cfg.QuarantineThreshold, cfg.QuarantineTTL),
		models:   newModelMemo(modelMemoCap),
		queue:    make(chan *job, cfg.QueueDepth),
		jobs:     make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Drain stops intake and waits for every queued and in-flight job to
// finish: the SIGTERM path. Submissions during and after the drain are
// rejected with ErrDraining (HTTP 503). Returns ctx.Err if the context
// expires first; the workers keep finishing in the background in that
// case. Idempotent.
//
// On a clustered server the tail of a successful drain hands warm state
// over: whatever the replication queue still holds is sent to the
// failover shards (best effort, within ctx), then the gossip loop
// stops. The earlier fills were replicated as they happened, so a
// deeper request for one of this shard's keys resumes from its proven
// prefix there. Peers shed new requests for this shard's keys as soon
// as gossip (or a bounced proxy) notices the drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers finish the queued jobs, then exit
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.clusterOnce.Do(func() {
			if cs := s.clusterView(); cs != nil {
				cs.repl.flush(ctx) // workers are done; no fill arrives now
				cs.clusterStop()
			}
		})
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit is the one admission gate: every check that enters this shard —
// a /v1/check (a set of one) or a /v1/batch, verdict-cache hit or
// miss — passes it. hits[i] is item i's cached answer, nil on a miss
// (batchHits): that is the only thing that differs between paths.
//
// Four set-level conditions, checked once per call, each refuse every
// item: the service.queue.admit faultpoint, the memory watermark (after
// shedding idle warm sessions LRU-first), draining, and room in the
// queue for every miss. The (model, engine) breaker comes last and
// meets misses only, under the s.mu hold that queues them, so a
// half-open key's one probe slot only ever goes to a job that is
// actually queued, and run reports that job's outcome. A hit skips the
// breaker: it runs no worker, and its answer was validated when it was
// stored.
//
// err is the set-level refusal. Otherwise refused[i] is the breaker's
// refusal of item i (refused is nil when it refused none), and every
// other item is admitted: registered, counted in jobs_submitted, and
// queued if a miss or finished, after the lock is released, if a hit.
// Each item counts once, in jobs_submitted or jobs_rejected.
func (s *Server) admit(items []*job, hits []*JobResult) (refused []error, err error) {
	n := int64(len(items))
	// Fault-injection site: an injected error exercises the
	// 503-with-live-Retry-After rejection path without real pressure.
	if ferr := faultpoint.Hit("service.queue.admit"); ferr != nil {
		s.metrics.rejected.Add(n)
		return nil, fmt.Errorf("%w: %v", ErrOverloaded, ferr)
	}
	if hw := s.cfg.MemHighWater; hw > 0 {
		if over := s.retainedBytes() - hw; over > 0 {
			shed, freed := s.sessions.shedIdle(over)
			s.metrics.sessionsShed.Add(int64(shed))
			if freed < over {
				s.metrics.overloadRejected.Add(n)
				s.metrics.rejected.Add(n)
				return nil, ErrOverloaded
			}
		}
	}
	misses := 0
	for _, h := range hits {
		if h == nil {
			misses++
		}
	}
	s.mu.Lock()
	switch {
	case s.draining:
		err = ErrDraining
	case len(s.queue)+misses > s.cfg.QueueDepth:
		err = ErrQueueFull
	}
	if err != nil {
		s.mu.Unlock()
		s.metrics.rejected.Add(n)
		return nil, err
	}
	for i, j := range items {
		if hits[i] == nil {
			if qerr := s.quar.allow(j.quarantineKey()); qerr != nil {
				if refused == nil {
					refused = make([]error, len(items))
				}
				refused[i] = qerr
				s.metrics.quarantineRejected.Add(1)
				s.metrics.rejected.Add(1)
				continue
			}
		}
		// Register first, then queue: a worker may start the job the
		// instant it lands in the channel, and by then it must already
		// have its id and be visible to status queries.
		s.registerLocked(j)
		s.metrics.submitted.Add(1)
		if hits[i] == nil {
			s.queue <- j // room was checked above, and every send holds s.mu
		}
	}
	s.mu.Unlock()
	// Hits are finished outside the lock: finishResult is the costliest
	// step of a hit, and s.mu is every submission's lock. Inline hits
	// stay out of the job latency ring: Retry-After estimates the wait
	// of queued jobs.
	for i, j := range items {
		if hits[i] != nil {
			j.finish(s.finishResult(j, hits[i]))
		}
	}
	return refused, nil
}

// retainedBytes is the watermark's view of retained memory: warm
// solver state plus cached verdicts — the two pools the server grows
// on purpose.
func (s *Server) retainedBytes() int {
	return s.sessions.Bytes() + s.cache.Bytes()
}

// retryAfterSeconds estimates how long a rejected client should back
// off, from live queue depth and the mean recent wall-clock of queued
// jobs (a hit answered inline never enters the ring): about
// depth/workers jobs drain ahead of a retry, each taking ~avg. Clamped
// to [1, 60].
func (s *Server) retryAfterSeconds() int {
	depth := int64(len(s.queue)) + 1 // the retry itself needs a slot
	avg := s.metrics.meanJobMicros()
	if avg <= 0 {
		avg = 50_000 // no history yet; assume 50ms jobs
	}
	secs := int(depth * avg / int64(s.cfg.Workers) / 1_000_000)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// newJob validates a request into a runnable job, without registering
// it: the cluster router needs the model hash first, and registers only
// what this shard runs. The hash comes from the model memo; the model is
// parsed here only when the memo does not know its text.
func (s *Server) newJob(req CheckRequest) (*job, error) {
	format, err := modelFormat(req)
	if err != nil {
		return nil, err
	}
	hash, sys, err := s.models.hash(format, req.Model)
	if err != nil {
		return nil, err
	}
	engine := s.cfg.DefaultEngine
	if req.Engine != "" {
		if engine, err = sebmc.ParseEngine(req.Engine); err != nil {
			return nil, err
		}
	}
	sem, err := parseSem(req.Semantics)
	if err != nil {
		return nil, err
	}
	sched := s.cfg.DefaultSchedule
	if req.Schedule != "" {
		if sched, err = sebmc.ParseSchedule(req.Schedule); err != nil {
			return nil, err
		}
	}
	if !req.Deepen {
		sched = sebmc.ScheduleLinear // schedules only shape deepen runs
	}
	if sched == sebmc.ScheduleGeometric {
		// The geometric schedule is only sound under at-most-k (an
		// Unreachable answer at 2k must cover every skipped bound ≤ 2k).
		// Forcing it here keeps the job's cache identity honest: the
		// answer — same shortest depth linear reports — is an at-most-k
		// answer, and the warm session serving it is an at-most session.
		sem = sebmc.AtMost
	}
	if req.Prove {
		if req.Deepen {
			return nil, fmt.Errorf("service: prove and deepen are mutually exclusive")
		}
		engine = sebmc.EngineInterp
	}
	if engine == sebmc.EngineInterp {
		// The interpolation engine's answers are bound-independent or
		// carry their own depth — at-most-k by nature — and it deepens
		// itself, so the same forcing pattern as geometric keeps the
		// cache identity honest.
		if req.Deepen {
			return nil, fmt.Errorf("service: engine interp deepens itself; use prove or a plain check")
		}
		sem = sebmc.AtMost
		sched = sebmc.ScheduleLinear
	}
	if req.Bound < 0 {
		return nil, fmt.Errorf("service: negative bound %d", req.Bound)
	}
	// Effective budget: the client's timeout_ms clamped to the server
	// cap. Under a cap, a request with no timeout at all gets exactly
	// the cap — a hostile bound cannot pin a worker forever.
	timeout := req.timeout()
	if max := s.cfg.MaxTimeout; max > 0 && (timeout <= 0 || timeout > max) {
		timeout = max
	}
	return &job{
		req:     req,
		sys:     sys,
		hash:    hash,
		engine:  engine,
		sem:     sem,
		sched:   sched,
		cancel:  sebmc.NewCancelFlag(),
		timeout: timeout,
		done:    make(chan struct{}),
		state:   JobQueued,
	}, nil
}

// registerLocked assigns an id and stores the job in the history,
// evicting the oldest finished jobs beyond the cap. Callers hold s.mu.
func (s *Server) registerLocked(j *job) {
	s.nextID++
	j.id = fmt.Sprintf("job-%06d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictHistoryLocked()
}

// evictHistoryLocked drops the oldest finished jobs once the history
// cap is exceeded. The rolling head cursor keeps the common case O(1):
// jobs finish in rough submission order, so the oldest entry is almost
// always the evictable one and the scan stops immediately — no
// front-to-back rescan or slice shift per submission. Callers hold
// s.mu.
func (s *Server) evictHistoryLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i := s.head; i < len(s.order); i++ {
			id := s.order[i]
			old, ok := s.jobs[id]
			if !ok {
				// Slot already evicted; advance past a cleared prefix.
				if i == s.head {
					s.head++
				}
				continue
			}
			if old.State() != JobDone {
				continue // still live; keep it, try a later entry
			}
			delete(s.jobs, id)
			if i == s.head {
				s.head++
			} else {
				s.order[i] = "" // cleared out of order; skipped above
			}
			evicted = true
			break
		}
		if !evicted {
			break // everything live; let the history run long
		}
	}
	// Compact once the consumed prefix dominates, so order does not
	// grow without bound over the server's lifetime.
	if s.head > 1024 && s.head > len(s.order)/2 {
		s.order = append(s.order[:0:0], s.order[s.head:]...)
		s.head = 0
	}
}

// lookup returns a job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker drains the queue until it is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job end to end: verdict cache, warm session or cold
// engine, witness validation, metrics. The whole answer-and-finish
// path runs inside finishContained's recover: this is a worker
// goroutine, so an escaped panic here would kill the process.
func (s *Server) run(j *job) {
	j.setState(JobRunning)
	start := time.Now()
	res := s.finishContained(j)
	elapsed := time.Since(start)
	res.ElapsedMS = elapsed.Milliseconds()
	s.metrics.noteElapsed(elapsed)
	// Every queued job reports its outcome to the breaker: the gate gives
	// a half-open key's probe slot only to a queued job, so this is what
	// frees it. Only a fresh outcome teaches the breaker anything: an
	// internal error is a strike, a clean verdict clears the key, and an
	// UNKNOWN (budget ran out) or an answer found in the cache (filled
	// while the job waited) is neutral.
	s.quar.observe(j.quarantineKey(), res.errored(), res.decided() && !res.Cached)
	// Account before publishing: a client that sees the result and then
	// reads /metrics must find it counted.
	if res.Status == sebmc.Unknown.String() && j.cancel.Canceled() {
		if j.timedOut.Load() {
			s.metrics.timedOut.Add(1)
		} else {
			s.metrics.cancelled.Add(1)
		}
	}
	s.metrics.notePeakBytes(int64(s.sessions.Bytes()))
	j.finish(res)
}

// finishContained is the worker-side containment boundary: it runs
// answer and finishResult under a recover, converting any panic that
// escaped the library's own containment (witness validation, the
// verdict cache, result conversion) into an ERROR result. The
// recovered path re-enters finishResult so the error still counts
// toward metrics, and run reports it to the breaker; ERROR results
// never touch the cache, so it cannot re-panic the same way.
func (s *Server) finishContained(j *job) (res *JobResult) {
	defer func() {
		if r := recover(); r != nil {
			pe := &sebmc.PanicError{Val: r, Stack: debug.Stack()}
			res = s.finishResult(j, errorResult(j, pe, false))
		}
	}()
	return s.finishResult(j, s.answer(j))
}

// cached is the one verdict-cache lookup, shared by the handler (which
// answers a hit before routing or queueing anything) and the worker
// (where a job queued behind an identical one that just filled the
// cache still hits). The model's bound-free terminal entry is checked
// before the bound-keyed one: a terminal SAFE holds at any depth under
// either semantics, so the requested bound, engine and schedule are all
// advisory — the answer is an O(lookup) cache hit whatever was asked.
// A hit counts cache_hits (and terminal_hits); a miss counts nothing,
// because whoever goes on to run the job counts it once.
func (s *Server) cached(j *job) (*JobResult, bool) {
	res, ok := s.cache.get(terminalKey(j.hash))
	if ok {
		s.metrics.terminalHits.Add(1)
		res.Bound = j.req.Bound // the entry is bound-free; answer what was asked
	} else {
		res, ok = s.cache.get(j.key())
	}
	if ok {
		s.metrics.cacheHits.Add(1)
	}
	return res, ok
}

// answer produces the job's raw result, consulting the verdict cache
// first; finishResult applies the common post-processing. A job whose
// hash came from the model memo is parsed here, once both lookups have
// missed.
func (s *Server) answer(j *job) *JobResult {
	if res, ok := s.cached(j); ok {
		return res
	}
	s.metrics.cacheMisses.Add(1)
	if j.sys == nil {
		// The memo supplied the hash; this miss is the first use of the
		// parse. The same text parsed when it was memoized, so a failure
		// here is the server's fault, not the request's.
		sys, err := loadModel(j.req)
		if err != nil {
			return errorResult(j, fmt.Errorf("service: memoized model failed to parse: %w", err), false)
		}
		j.sys = sys
	}

	// Per-request timeout rides the cancellation flag, so timeout,
	// client disconnect and explicit cancel all stop the solver the
	// same way — and none of them poisons a warm session. The timedOut
	// mark keeps the two apart in /metrics. j.timeout is the clamped
	// effective budget, not the raw client ask.
	if d := j.timeout; d > 0 {
		t := time.AfterFunc(d, func() {
			j.timedOut.Store(true)
			j.cancel.Set()
		})
		defer t.Stop()
	}
	v, hit := s.solve(j)
	return fromVerdict(v, j, hit)
}

// finishResult is the single post-processing path every answered job —
// computed or cached — goes through: count internal errors and
// recovered panics, fill the verdict cache (clean decided, freshly
// computed answers only; UNKNOWN depends on the request's budget, not
// the question, and ERROR or a failed witness replay must never be
// replayed from cache), bump the completion metrics, and strip the
// witness the requester did not ask for.
// Stripping happens after caching, so the cache keeps the trace for
// later requesters who do want it.
func (s *Server) finishResult(j *job, res *JobResult) *JobResult {
	if res.errored() {
		s.metrics.internalErrors.Add(1)
		if res.panicked {
			s.metrics.panicsRecovered.Add(1)
		}
	}
	if !res.Cached && res.decided() && res.Error == "" {
		// Terminal verdicts fill the model's bound-free entry, so any
		// later bound short-circuits; everything else stays keyed by
		// exactly what was asked.
		key := j.key()
		if res.Terminal {
			key = terminalKey(j.hash)
		}
		s.cache.put(key, *res)
		// Write-behind replicate the fresh fill to the key's first
		// failover shard (no-op standalone). A non-blocking enqueue:
		// replication must never add latency to the request path.
		s.replicateFill(j, key, res)
		// Fresh computes only: a cache hit re-serves the recorded
		// savings without skipping any new solver work.
		s.metrics.deepenBoundsSkipped.Add(int64(res.BoundsSkipped))
	}
	s.metrics.completed.Add(1)
	s.metrics.noteDecided(res.DecidedBy)
	s.metrics.notePeakBytes(int64(res.PeakBytes))
	if !j.req.Witness {
		res.Witness = ""
	}
	if !j.req.Certificate {
		res.Certificate = ""
	}
	return res
}

// solve runs the actual check and reports its verdict, plus whether it
// ran on a pre-existing warm session: the incremental engines run on
// the session pool, everything else cold. A new session is first
// seeded with the longest prefix the verdict cache proves for its key,
// so a session evicted here, or one whose key moved here from a
// drained or dead peer, resumes instead of re-solving that prefix.
func (s *Server) solve(j *job) (sebmc.Verdict, bool) {
	opts := sebmc.Options{
		Semantics:         j.sem,
		Schedule:          j.sched,
		PlaistedGreenbaum: j.req.PlaistedGreenbaum,
	}
	// Prove requests and the interp engine both go through the library's
	// unbounded proving paths, which can return the terminal SAFE no
	// bounded run ever produces. prove races k-induction against
	// interpolation (fastest terminal answer; the induction arm proves
	// without a certificate); engine=interp runs interpolation alone, so
	// its SAFE always ships the invariant certificate. No session pool:
	// the proof loops build their own incremental state per run.
	if j.req.Prove || j.engine == sebmc.EngineInterp {
		opts.Cancel = j.cancel
		if j.req.Prove {
			return sebmc.Prove(j.sys, j.req.Bound, opts), false
		}
		return sebmc.ProveInterp(j.sys, j.req.Bound, opts), false
	}
	if sess, hit := s.sessions.acquire(j, opts); sess != nil {
		// A session that recovered a panic is poisoned: its solver state
		// is untrusted, so it is discarded from the pool — bytes
		// released, never handed to another request — instead of being
		// checked back in.
		defer func() {
			if sess.Poisoned() {
				s.sessions.discard(j)
			} else {
				s.sessions.release(j, sess)
			}
		}()
		if hit {
			s.metrics.sessionHits.Add(1)
		} else {
			s.metrics.sessionMisses.Add(1)
			sess.SeedProven(s.cache.provenBelow(j.sessionKey(), j.req.Bound, j.cancel))
		}
		if j.req.Deepen {
			return sebmc.VerdictOfDeepen(sess.DeepenWith(j.req.Bound, j.cancel), j.req.Bound), hit
		}
		return sebmc.VerdictOf(sess.CheckWith(j.req.Bound, j.cancel)), hit
	}
	opts.Cancel = j.cancel
	if j.req.Deepen {
		return sebmc.VerdictOfDeepen(sebmc.Deepen(j.sys, j.req.Bound, j.engine, opts), j.req.Bound), false
	}
	return sebmc.VerdictOf(sebmc.Check(j.sys, j.req.Bound, j.engine, opts)), false
}
