package service

// The verdict cache: finished answers keyed by what was asked — model
// content hash, bound, semantics, engine, deepen, CNF mode — behind an
// LRU byte budget. Bytes are accounted the same honest way as the
// solvers' ClauseDBBytes/MemBytes: every retained allocation is
// counted (key strings, witness text, entry struct, list and map
// bookkeeping), so the configured budget is a real bound on resident
// verdict memory, not an entry count with a guessed multiplier. The
// cache knows nothing of replication: a push or a pull stores through
// add, and a peer's pull reads a snapshot.

import (
	"container/list"
	"sync"

	sebmc "repro"
	"repro/internal/faultpoint"
)

// verdictKey identifies one answerable question: the session identity
// (model hash, engine, semantics, schedule, CNF mode) plus the bound
// and whether it is a deepening run.
type verdictKey struct {
	sessionKey
	Bound  int
	Deepen bool
}

// entryOverhead is the fixed per-entry cost beyond the variable-length
// strings: the cacheEntry struct (key copy + verdict scalars + string
// headers), the list.Element, and an amortized map bucket slot.
const entryOverhead = 256

// bytes is the honest retained size of one entry.
func entryBytes(k verdictKey, v JobResult) int {
	return entryOverhead + len(k.Hash) + len(v.Witness) + len(v.Certificate) +
		len(v.DecidedBy) + len(v.Status) + len(v.Error)
}

// cacheEntry holds the cached record itself: the JobResult that was
// served when the verdict was computed (or adopted from a peer), minus
// the per-request fields put clears.
type cacheEntry struct {
	key verdictKey
	v   JobResult
	sz  int
}

// verdictCache is a mutex-guarded LRU over a byte budget. budget < 0
// disables it entirely.
type verdictCache struct {
	mu      sync.Mutex
	budget  int
	bytes   int
	ll      *list.List // front = most recently used
	entries map[verdictKey]*list.Element
}

func newVerdictCache(budget int) *verdictCache {
	return &verdictCache{
		budget:  budget,
		ll:      list.New(),
		entries: make(map[verdictKey]*list.Element),
	}
}

// snapshot returns copies of every entry, most recently used first —
// the catch-up pull's answer. Does not touch recency: answering a
// peer's pull is not a use.
func (c *verdictCache) snapshot() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, len(c.entries))
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}

// has reports presence without promoting the entry.
func (c *verdictCache) has(k verdictKey) bool {
	if c.budget < 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// provenBelow returns the largest bound b below bound at which the
// cache holds a deepen UNREACHABLE under the session key sk — bounds
// 0..b all proven unreachable for that session identity — or -1. A
// plain check never counts: under exact semantics its UNREACHABLE
// proves its own bound, not a prefix. The walk takes one lookup per
// bound, each under its own lock hold because the client chooses the
// walk's length, and promotes nothing: seeding a session is not a use
// of the entry. A cancelled job stops the walk, so a hostile bound
// cannot outlive its budget here either.
func (c *verdictCache) provenBelow(sk sessionKey, bound int, cancel *sebmc.CancelFlag) int {
	if c.budget < 0 {
		return -1
	}
	unreachable := sebmc.Unreachable.String()
	for b := bound - 1; b >= 0 && !cancel.Canceled(); b-- {
		c.mu.Lock()
		el, ok := c.entries[verdictKey{sessionKey: sk, Bound: b, Deepen: true}]
		proven := ok && el.Value.(*cacheEntry).v.Status == unreachable
		c.mu.Unlock()
		if proven {
			return b
		}
	}
	return -1
}

// get returns a copy of the cached record, marked Cached, for the
// caller to serve.
func (c *verdictCache) get(k verdictKey) (*JobResult, bool) {
	if c.budget < 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	res := el.Value.(*cacheEntry).v
	res.Cached = true
	return &res, true
}

// put stores a served record under k and reports whether it did: a
// disabled cache, an injected fault or an oversized record stores
// nothing. The fields that describe one request rather than the
// verdict — served from cache, warm session, wall clock — are cleared:
// a later hit ran no solver and no session.
func (c *verdictCache) put(k verdictKey, v JobResult) bool {
	return c.store(k, v, true)
}

// add is put for a key that is absent: a resident entry wins, and add
// reports false without touching it. The presence check and the store
// share one lock hold, so a local fill, or a push and a repair pull of
// the same key, cannot land in between and be overwritten.
func (c *verdictCache) add(k verdictKey, v JobResult) bool {
	return c.store(k, v, false)
}

// store is put (replace) or add (!replace).
func (c *verdictCache) store(k verdictKey, v JobResult, replace bool) bool {
	if c.budget < 0 {
		return false
	}
	v.Cached, v.SessionHit, v.ElapsedMS = false, false, 0
	// Fault-injection site: the cache is an accelerator, so an injected
	// failure degrades to not caching — the verdict is still served —
	// while an injected panic exercises the worker's containment.
	if err := faultpoint.Hit("service.cache.put"); err != nil {
		return false
	}
	sz := entryBytes(k, v)
	if sz > c.budget {
		return false // a single oversized verdict would evict everything
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		if !replace {
			return false
		}
		e := el.Value.(*cacheEntry)
		c.bytes += sz - e.sz
		e.v, e.sz = v, sz
		c.ll.MoveToFront(el)
	} else {
		c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, v: v, sz: sz})
		c.bytes += sz
	}
	for c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.sz
	}
	return true
}

// stats returns (entries, bytes, budget).
func (c *verdictCache) stats() (int, int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes, c.budget
}

// Bytes returns the cache's accounted retained memory.
func (c *verdictCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
