package cluster

// The gossip half of the topology layer: a Tracker holds the last
// health Status each peer reported, stamped with when it was heard.
// The routing layer polls peers on an interval and Notes the answers;
// ownership decisions then skip peers that are down, draining, stale,
// or saturated, shedding traffic to the next rendezvous preference
// instead of bouncing 503s off a shard that cannot take the work.
//
// The tracker is deliberately optimistic about silence: a peer that
// has never been polled is assumed healthy, so a freshly booted
// cluster routes by hash immediately instead of funneling everything
// to self until the first gossip round completes. Poll failures are
// damped with hysteresis: TWO consecutive failed polls demote a peer
// (NoteFailedPoll), so one poll lost under load does not shed the
// peer's keys to the next preference — but direct evidence of refusal
// (a bounced proxy or replication send, NoteDown) demotes immediately.

import (
	"sync"
	"time"
)

// Status is one shard's self-reported health, exchanged over
// GET /v1/cluster/health. It is intentionally a fraction of /metrics:
// gossip runs every second against every peer, so the payload carries
// only what routing and replication decisions read.
type Status struct {
	ID       string `json:"id"`
	Draining bool   `json:"draining"`
	// QueueDepth / QueueCapacity: the bounded job queue's occupancy. A
	// full queue means new work would 503; routing sheds it instead.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Dropped counts, per peer ID, the replicate pushes this shard has
	// dropped for that peer since it started. A peer that sees its count
	// change pulls this shard's verdict cache via /v1/cluster/repair.
	Dropped map[string]int64 `json:"dropped,omitempty"`
}

// Overloaded reports whether a shard in this state should be skipped
// for NEW placements: draining (it is leaving), or its bounded queue
// is full (a submission would 503 anyway).
func (st Status) Overloaded() bool {
	if st.Draining {
		return true
	}
	return st.QueueCapacity > 0 && st.QueueDepth >= st.QueueCapacity
}

// peerState is the tracker's record of one peer.
type peerState struct {
	status  Status
	heard   time.Time // last successful poll
	down    bool      // peer demoted (strikes reached, or direct refusal)
	strikes int       // consecutive failed polls since the last success
	everted bool      // at least one poll completed (success or failure)
}

// Tracker is the local shard's view of its peers' health. Safe for
// concurrent use. The zero value is not usable; call NewTracker.
type Tracker struct {
	mu    sync.Mutex
	ttl   time.Duration
	peers map[string]*peerState
	now   func() time.Time // test hook
}

// NewTracker builds a tracker whose statuses go stale after ttl
// (normally a few gossip intervals).
func NewTracker(ttl time.Duration) *Tracker {
	return &Tracker{ttl: ttl, peers: make(map[string]*peerState), now: time.Now}
}

// Note records a successful health poll of peer id, clearing any
// accumulated failure strikes.
func (t *Tracker) Note(id string, st Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peer(id)
	p.status, p.heard, p.down, p.strikes, p.everted = st, t.now(), false, 0, true
}

// NoteDown records direct evidence that a peer refused work (a bounced
// proxy or a failed replication send): the peer is demoted immediately,
// without waiting for the next gossip tick or a second strike.
func (t *Tracker) NoteDown(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peer(id)
	p.down, p.everted = true, true
}

// pollStrikes is the hysteresis threshold: this many consecutive
// failed polls demote a peer. One lost poll under load keeps the peer
// healthy; a second in a row does not.
const pollStrikes = 2

// NoteFailedPoll records one failed gossip poll of peer id. Unlike
// NoteDown, a single failure is damped: the peer stays healthy until
// pollStrikes consecutive polls fail, so a momentary stall does not
// flap the peer through down-and-back.
func (t *Tracker) NoteFailedPoll(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peer(id)
	p.everted = true
	p.strikes++
	if p.strikes >= pollStrikes {
		p.down = true
	}
}

func (t *Tracker) peer(id string) *peerState {
	p := t.peers[id]
	if p == nil {
		p = &peerState{}
		t.peers[id] = p
	}
	return p
}

// Healthy reports whether peer id should receive new placements:
// never-polled peers are optimistically healthy; polled peers must
// have a fresh, non-overloaded status and no failed poll since.
func (t *Tracker) Healthy(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[id]
	if p == nil || !p.everted {
		return true // silence before the first poll is not evidence
	}
	if p.down {
		return false
	}
	if t.ttl > 0 && !p.heard.IsZero() && t.now().Sub(p.heard) > t.ttl {
		return false // stale: the peer stopped answering polls
	}
	return !p.status.Overloaded()
}

// Status returns the last status heard from peer id, with ok=false if
// the peer never answered a poll.
func (t *Tracker) Status(id string) (Status, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.peers[id]
	if p == nil || p.heard.IsZero() {
		return Status{}, false
	}
	return p.status, true
}

// Up counts peers currently considered healthy out of the given list.
func (t *Tracker) Up(ids []string) int {
	n := 0
	for _, id := range ids {
		if t.Healthy(id) {
			n++
		}
	}
	return n
}
