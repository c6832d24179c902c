package service

// The model memo: a model's digest → its content hash, so a request for
// a model this shard has already parsed costs a digest and a map lookup
// instead of a parse and a ModelHash. Only the hash is memoized, never
// the parsed System: sessions and the replication queue hold System
// pointers, so a shared System would be state crossing jobs. A job
// whose hash came from the memo is parsed by its worker only if the
// verdict cache cannot answer it.
//
// A model has a key per form the shard meets it in. Replica adoption
// and /v1/batch items key its text (modelDigest). A /v1/check keys the
// model's JSON string as the body carried it, quotes and escapes
// included (rawDigest), so a memo hit followed by a verdict-cache hit
// never unescapes the model or allocates its text; a miss on that key
// unescapes the string and goes through the text key, and fills both.
// A model that arrives by /v1/check therefore holds two entries.

import (
	"container/list"
	"crypto/sha256"
	"hash"
	"sync"
	"sync/atomic"

	sebmc "repro"
)

// modelMemoCap bounds the memo. An entry is a 32-byte digest and a
// 32-character hash plus list and map bookkeeping, so a full memo holds
// under 1 MiB of heap.
const modelMemoCap = 4096

// memoKey is a SHA-256 over a domain tag, a format and a model. A
// cryptographic digest, because a collision would route one model's
// requests to another model's verdicts. The tag keeps the two forms of
// a model apart, and a 0 byte ends the tag and the format.
type memoKey [sha256.Size]byte

// modelDigest keys model text in its effective format ("msl" or "aag").
// The text is streamed into the hash through a small window, so a
// digest's garbage does not grow with the model.
func modelDigest(format, text string) memoKey {
	h := digestHead("text", format)
	var win [512]byte
	for len(text) > 0 {
		n := copy(win[:], text)
		h.Write(win[:n])
		text = text[n:]
	}
	return memoKey(h.Sum(nil))
}

// rawDigest keys a model's JSON string from a /v1/check body (raw, from
// decodeCheck) under the request's format field, which may be empty: the
// string's bytes determine the text, and with it the effective format.
func rawDigest(format string, raw []byte) memoKey {
	h := digestHead("json", format)
	h.Write(raw)
	return memoKey(h.Sum(nil))
}

func digestHead(tag, format string) hash.Hash {
	h := sha256.New()
	var head [16]byte
	h.Write(append(append(append(append(head[:0], tag...), 0), format...), 0))
	return h
}

type memoEntry struct {
	key  memoKey
	hash string
}

// modelMemo is an LRU from memo key to content hash.
type modelMemo struct {
	capacity     int
	hits, misses atomic.Int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[memoKey]*list.Element
}

func newModelMemo(capacity int) *modelMemo {
	return &modelMemo{capacity: capacity, ll: list.New(), entries: make(map[memoKey]*list.Element)}
}

// hash returns the content hash of model text in an effective format
// ("msl" or "aag"), plus the parsed System when the memo did not know
// the text. Only a successful parse is memoized, so a bad model fails
// every time. Each call counts one hit or one miss.
func (m *modelMemo) hash(format, text string) (string, *sebmc.System, error) {
	k := modelDigest(format, text)
	if h, ok := m.get(k); ok {
		m.hits.Add(1)
		return h, nil, nil
	}
	m.misses.Add(1)
	sys, err := parseModel(format, text)
	if err != nil {
		return "", nil, err
	}
	h := sebmc.ModelHash(sys)
	m.put(k, h)
	return h, sys, nil
}

func (m *modelMemo) get(k memoKey) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[k]
	if !ok {
		return "", false
	}
	m.ll.MoveToFront(el)
	return el.Value.(*memoEntry).hash, true
}

func (m *modelMemo) put(k memoKey, hash string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[k]; ok {
		m.ll.MoveToFront(el) // a concurrent miss on the same text got here first
		return
	}
	m.entries[k] = m.ll.PushFront(&memoEntry{key: k, hash: hash})
	for m.ll.Len() > m.capacity {
		el := m.ll.Back()
		m.ll.Remove(el)
		delete(m.entries, el.Value.(*memoEntry).key)
	}
}

// stats returns (hits, misses, entries).
func (m *modelMemo) stats() (int64, int64, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits.Load(), m.misses.Load(), m.ll.Len()
}

// modelHash is newJob's way to a request's content hash. raw, when not
// nil, is the model as decodeCheck left it, a JSON string still in the
// body, and req.Model is empty: a hit on the raw key answers without
// unescaping it; a miss unescapes it into req.Model, and the text then
// takes the path every model takes, so it fills the text key too. A raw
// key is filled only after modelFormat accepted the request's format
// with that text, so a hit stands for that check. The request counts
// one memo hit or miss either way.
func (s *Server) modelHash(req *CheckRequest, raw []byte) (string, *sebmc.System, error) {
	var rk memoKey
	if raw != nil {
		rk = rawDigest(req.Format, raw)
		if h, ok := s.models.get(rk); ok {
			s.models.hits.Add(1)
			return h, nil, nil
		}
		var err error
		if req.Model, err = unquoteModel(raw); err != nil {
			return "", nil, err
		}
	}
	format, err := modelFormat(*req)
	if err != nil {
		return "", nil, err
	}
	h, sys, err := s.models.hash(format, req.Model)
	if err == nil && raw != nil {
		s.models.put(rk, h)
	}
	return h, sys, err
}
