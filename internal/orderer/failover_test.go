package orderer

import (
	"slices"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/raft"
)

// TestLeaderKillMidBatchExactlyOnce is the failover acceptance gate:
// transactions submitted around a raft leader kill — some cut into batches,
// some still pending — are committed exactly once after the orderer has
// followed the newly elected leader. No silent loss, no duplicate commit.
func TestLeaderKillMidBatchExactlyOnce(t *testing.T) {
	f := newFixture(t)
	c := raft.NewCluster(3, 25*time.Millisecond)
	t.Cleanup(c.Stop)
	leader := c.WaitForLeader(5 * time.Second)
	if leader == nil {
		t.Fatal("raft leader election timed out")
	}

	ord := New(Config{BatchSize: 4, BatchTimeout: 20 * time.Millisecond, Channel: "ch"}, f.ordID, leader)
	defer ord.Stop()
	col := newCollector()
	ord.OnDeliver(col.deliver)

	const total = 10
	want := make(map[string]bool, total)
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			env := f.envelope(t)
			id, err := block.EnvelopeTxID(env)
			if err != nil {
				t.Fatal(err)
			}
			want[id] = true
			if err := ord.Submit(env); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}

	// A full batch plus a pending remainder, then the kill: the remainder
	// is mid-batch, and a cut batch may be anywhere between leader-log
	// acceptance and apply when the leader dies.
	submit(6)
	leader.Stop()
	// Submissions keep arriving while the cluster is leaderless; the
	// orderer parks them and the batch timer retries until it finds the
	// new leader.
	submit(total - 6)

	// Every submitted transaction commits exactly once.
	seen := make(map[string]int, total)
	committed := 0
	for committed < total {
		blocks := col.wait(t, 1, 10*time.Second)
		committed = 0
		seen = make(map[string]int, total)
		for _, b := range blocks {
			for i := range b.Envelopes {
				id, err := block.EnvelopeTxID(&b.Envelopes[i])
				if err != nil {
					t.Fatal(err)
				}
				seen[id]++
				committed++
			}
		}
		if committed < total {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if len(seen) != total {
		t.Fatalf("%d distinct txids committed, want %d", len(seen), total)
	}
	for id, n := range seen {
		if !want[id] {
			t.Errorf("unknown txid %s committed", id)
		}
		if n != 1 {
			t.Errorf("txid %s committed %d times", id, n)
		}
	}
	if err := ord.Err(); err != nil {
		t.Fatalf("orderer loop error: %v", err)
	}
}

// followNow runs follow as a refused cut does, under cutMu.
func (o *Orderer) followNow() bool {
	o.cutMu.Lock()
	defer o.cutMu.Unlock()
	return o.follow()
}

// TestFollowDeduplicatesReproposedBatch pins the exactly-once machinery
// directly: a cut-but-unapplied batch parked in the inflight map is
// re-proposed by follow and committed; a second follow (the batch is
// applied by then) must not commit it again, and neither must a raw
// duplicate proposal of the same batch data.
func TestFollowDeduplicatesReproposedBatch(t *testing.T) {
	f := newFixture(t)
	leader := f.cluster.WaitForLeader(3 * time.Second)
	ord := New(Config{BatchSize: 100, BatchTimeout: time.Hour, Channel: "ch"}, f.ordID, leader)
	defer ord.Stop()
	col := newCollector()
	ord.OnDeliver(col.deliver)

	env := f.envelope(t)
	data := marshalBatch([]block.Envelope{*env}, 7)
	ord.mu.Lock()
	ord.batchSeq = 7
	ord.inflight[7] = data
	ord.mu.Unlock()

	if !ord.followNow() {
		t.Fatal("follow: the parked batch reached no leader")
	}
	col.wait(t, 1, 5*time.Second)

	// Re-propose through a second follow and a raw duplicate: both must
	// be absorbed by the applied-sequence dedup.
	if !ord.followNow() {
		t.Fatal("second follow: no leader")
	}
	if err := leader.Propose(data); err != nil {
		t.Fatalf("duplicate proposal: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	col.mu.Lock()
	blocks := len(col.blocks)
	col.mu.Unlock()
	if blocks != 1 {
		t.Fatalf("%d blocks committed from one batch, want exactly 1", blocks)
	}
	if err := ord.Err(); err != nil {
		t.Fatalf("orderer loop error: %v", err)
	}
}

// TestDeposedLeaderIsFollowed deposes the bound leader without a kill: it is
// cut off past an election and healed. Submissions afterwards must reach
// the new leader through the orderer alone, each envelope exactly once.
func TestDeposedLeaderIsFollowed(t *testing.T) {
	f := newFixture(t)
	c := raft.NewCluster(3, 20*time.Millisecond)
	t.Cleanup(c.Stop)
	leader := c.WaitForLeader(5 * time.Second)
	if leader == nil {
		t.Fatal("raft leader election timed out")
	}
	ord := New(Config{BatchSize: 4, BatchTimeout: 20 * time.Millisecond, Channel: "ch"}, f.ordID, leader)
	defer ord.Stop()
	col := newCollector()
	ord.OnDeliver(col.deliver)

	// Cut the leader off until the others have elected one of their own
	// (at a higher term, so Leader returns it), then heal: the old leader
	// steps down to follower, alive.
	down := raft.NodeID(slices.Index(c.Nodes, leader))
	c.Transport.SetDown(down, true)
	for deadline := time.Now().Add(5 * time.Second); leader.Leader() == leader; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no election while the leader was cut off")
		}
	}
	c.Transport.SetDown(down, false)

	const total = 8
	want := make(map[string]bool, total)
	for i := 0; i < total; i++ {
		env := f.envelope(t)
		id, err := block.EnvelopeTxID(env)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
		if err := ord.Submit(env); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	seen := make(map[string]int, total)
	for n, deadline := 0, time.Now().Add(3*time.Second); n < total; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d envelopes ordered in 3s after the heal", n, total)
		}
		col.mu.Lock()
		blocks := slices.Clone(col.blocks)
		col.mu.Unlock()
		n = 0
		clear(seen)
		for _, b := range blocks {
			for i := range b.Envelopes {
				id, err := block.EnvelopeTxID(&b.Envelopes[i])
				if err != nil {
					t.Fatal(err)
				}
				seen[id]++
				n++
			}
		}
	}
	for id, n := range seen {
		if !want[id] || n != 1 {
			t.Errorf("txid %s ordered %d times (submitted: %v)", id, n, want[id])
		}
	}
	if err := ord.Err(); err != nil {
		t.Fatalf("orderer loop error: %v", err)
	}
}
