package cluster

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func shardList(n int) []Shard {
	out := make([]Shard, n)
	for i := range out {
		out[i] = Shard{
			ID:  fmt.Sprintf("http://10.0.0.%d:8080", i+1),
			URL: fmt.Sprintf("http://10.0.0.%d:8080", i+1),
		}
	}
	return out
}

// randomKeys mimics sebmc.ModelHash output: 32 hex chars.
func randomKeys(rng *rand.Rand, n int) []string {
	const hexdigits = "0123456789abcdef"
	out := make([]string, n)
	for i := range out {
		b := make([]byte, 32)
		for j := range b {
			b[j] = hexdigits[rng.Intn(16)]
		}
		out[i] = string(b)
	}
	return out
}

// TestRingSingleOwner is the routing-table differential: for random
// model-hash sets at 1, 2 and 4 shards, every key has exactly one
// owner, every shard computes the same owner (agreement is what makes
// uncoordinated routing sound), and Prefs is a permutation of the
// shard list headed by the owner.
func TestRingSingleOwner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := randomKeys(rng, 512)
	for _, n := range []int{1, 2, 4} {
		shards := shardList(n)
		// Every shard builds its own ring from its own copy of the same
		// configured list — exactly what the deployed processes do.
		rings := make([]*Ring, n)
		for i := range rings {
			r, err := NewRing(append([]Shard(nil), shards...))
			if err != nil {
				t.Fatal(err)
			}
			rings[i] = r
		}
		counts := make(map[string]int)
		for _, k := range keys {
			owner := rings[0].Owner(k)
			counts[owner.ID]++
			for i, r := range rings[1:] {
				if got := r.Owner(k); got.ID != owner.ID {
					t.Fatalf("n=%d key %s: shard %d computes owner %s, shard 0 computes %s",
						n, k, i+1, got.ID, owner.ID)
				}
			}
			prefs := rings[0].Prefs(k)
			if len(prefs) != n {
				t.Fatalf("n=%d: Prefs returned %d shards", n, len(prefs))
			}
			if prefs[0].ID != owner.ID {
				t.Fatalf("n=%d key %s: Prefs[0]=%s, Owner=%s", n, k, prefs[0].ID, owner.ID)
			}
			seen := make(map[string]bool, n)
			for _, sh := range prefs {
				if seen[sh.ID] {
					t.Fatalf("n=%d key %s: duplicate %s in Prefs", n, k, sh.ID)
				}
				seen[sh.ID] = true
			}
		}
		// Placement balance: with 512 keys no shard should own a wildly
		// disproportionate share (rendezvous over FNV is near-uniform;
		// allow [half, double] of the fair share).
		fair := len(keys) / n
		for id, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Errorf("n=%d: shard %s owns %d of %d keys (fair %d)", n, id, c, len(keys), fair)
			}
		}
	}
}

// TestRingMinimalMovement pins rendezvous hashing's headline property:
// when a shard leaves, only its own keys move (everyone else's owner
// is unchanged), and when a shard joins, the only keys that move are
// the ones the new shard wins — about 1/n of the keyspace.
func TestRingMinimalMovement(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	keys := randomKeys(rng, 2048)
	shards := shardList(4)
	full, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}

	// Leave: drop shard 2.
	smaller, err := NewRing(append(append([]Shard(nil), shards[:2]...), shards[3]))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		before, after := full.Owner(k), smaller.Owner(k)
		if before.ID == shards[2].ID {
			moved++
			continue // its keys must move somewhere
		}
		if after.ID != before.ID {
			t.Fatalf("leave: key %s moved %s -> %s though neither is the departed shard",
				k, before.ID, after.ID)
		}
	}
	if moved == 0 {
		t.Fatal("leave: departed shard owned zero keys out of 2048")
	}

	// Join: add a fifth shard.
	larger, err := NewRing(append(append([]Shard(nil), shards...), Shard{ID: "http://10.0.0.9:8080", URL: "http://10.0.0.9:8080"}))
	if err != nil {
		t.Fatal(err)
	}
	movedIn := 0
	for _, k := range keys {
		before, after := full.Owner(k), larger.Owner(k)
		if after.ID == before.ID {
			continue
		}
		if after.ID != "http://10.0.0.9:8080" {
			t.Fatalf("join: key %s moved %s -> %s, not to the new shard", k, before.ID, after.ID)
		}
		movedIn++
	}
	// Expect ~1/5 of keys to move; assert the loose envelope [1/10, 1/3].
	if movedIn < len(keys)/10 || movedIn > len(keys)/3 {
		t.Errorf("join: %d of %d keys moved to the new shard, want ~%d", movedIn, len(keys), len(keys)/5)
	}
}

// TestRingFailoverOrder: Prefs gives a deterministic shed order, and
// dropping the owner from the list makes the old second preference the
// new owner — shedding and topology change agree on where keys go.
func TestRingFailoverOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := randomKeys(rng, 256)
	shards := shardList(4)
	ring, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		prefs := ring.Prefs(k)
		rest := make([]Shard, 0, 3)
		for _, sh := range shards {
			if sh.ID != prefs[0].ID {
				rest = append(rest, sh)
			}
		}
		without, err := NewRing(rest)
		if err != nil {
			t.Fatal(err)
		}
		if got := without.Owner(k); got.ID != prefs[1].ID {
			t.Fatalf("key %s: owner-less ring elects %s, Prefs[1] is %s", k, got.ID, prefs[1].ID)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]Shard{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	if _, err := NewRing([]Shard{{ID: ""}}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestTracker(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := NewTracker(3 * time.Second)
	tr.now = func() time.Time { return now }

	// Never-polled peers are optimistically healthy.
	if !tr.Healthy("a") {
		t.Fatal("unknown peer should be healthy")
	}
	// Direct refusal evidence (a bounced proxy) demotes immediately.
	tr.NoteDown("a")
	if tr.Healthy("a") {
		t.Fatal("downed peer should be unhealthy")
	}
	// A later success restores.
	tr.Note("a", Status{ID: "a", QueueDepth: 1, QueueCapacity: 8})
	if !tr.Healthy("a") {
		t.Fatal("recovered peer should be healthy")
	}
	// Draining and full-queue statuses shed placements.
	tr.Note("a", Status{ID: "a", Draining: true})
	if tr.Healthy("a") {
		t.Fatal("draining peer should be unhealthy")
	}
	tr.Note("a", Status{ID: "a", QueueDepth: 8, QueueCapacity: 8})
	if tr.Healthy("a") {
		t.Fatal("saturated peer should be unhealthy")
	}
	// Staleness: a peer that stops answering goes unhealthy after ttl.
	tr.Note("a", Status{ID: "a"})
	now = now.Add(2 * time.Second)
	if !tr.Healthy("a") {
		t.Fatal("fresh peer should be healthy")
	}
	now = now.Add(2 * time.Second)
	if tr.Healthy("a") {
		t.Fatal("stale peer should be unhealthy")
	}
	if up := tr.Up([]string{"a", "b"}); up != 1 {
		t.Fatalf("Up = %d, want 1 (only the never-polled peer)", up)
	}
}

// TestTrackerPollHysteresis pins the two-strike demotion contract: one
// lost gossip poll must NOT demote a peer (that is exactly the flap
// that sheds a peer's keys under load), two consecutive
// failures must, and any successful poll resets the strike count.
func TestTrackerPollHysteresis(t *testing.T) {
	tr := NewTracker(time.Minute)

	// One failed poll: still healthy.
	tr.NoteFailedPoll("a")
	if !tr.Healthy("a") {
		t.Fatal("one failed poll must not demote a peer")
	}
	// Second consecutive failure: down.
	tr.NoteFailedPoll("a")
	if tr.Healthy("a") {
		t.Fatal("two consecutive failed polls must demote a peer")
	}
	// Recovery restores and resets the strikes...
	tr.Note("a", Status{ID: "a"})
	if !tr.Healthy("a") {
		t.Fatal("recovered peer should be healthy")
	}
	// ...so the next single failure is again not enough.
	tr.NoteFailedPoll("a")
	if !tr.Healthy("a") {
		t.Fatal("strike count must reset on a successful poll")
	}
	tr.NoteFailedPoll("a")
	if tr.Healthy("a") {
		t.Fatal("two strikes after a reset must demote")
	}

	// An interleaved success breaks a failure streak even when the
	// failures are not adjacent in wall-clock terms.
	tr.NoteFailedPoll("b")
	tr.Note("b", Status{ID: "b"})
	tr.NoteFailedPoll("b")
	if !tr.Healthy("b") {
		t.Fatal("non-consecutive failures must not accumulate")
	}

	// NoteDown (refusal evidence) stays immediate, no hysteresis.
	tr.Note("c", Status{ID: "c"})
	tr.NoteDown("c")
	if tr.Healthy("c") {
		t.Fatal("NoteDown must demote immediately")
	}
}
