package service

// The model memo: model text → content hash, so a request for a model
// this shard has already parsed costs a digest and a map lookup instead
// of a parse and a ModelHash. Only the hash is memoized, never the
// parsed System: Reduce appends to the source graph, and sessions and
// the replication queue hold System pointers, so a shared System would
// be mutable state crossing jobs. A job whose hash came from the memo is
// parsed by its worker only if the verdict cache cannot answer it.

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	sebmc "repro"
)

// modelMemoCap bounds the memo. An entry is a 32-byte digest and a
// 32-character hash plus list and map bookkeeping, so a full memo holds
// under 1 MiB of heap.
const modelMemoCap = 4096

// memoKey is a SHA-256 over the effective format and the whole model
// text. A cryptographic digest, because a collision would route one
// model's requests to another model's verdicts.
type memoKey [sha256.Size]byte

func modelDigest(format, text string) memoKey {
	buf := make([]byte, 0, len(format)+1+len(text))
	buf = append(append(append(buf, format...), 0), text...)
	return sha256.Sum256(buf)
}

type memoEntry struct {
	key  memoKey
	hash string
}

// modelMemo is an LRU from model digest to content hash.
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
// every time.
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
