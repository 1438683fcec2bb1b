package bmacproto

import (
	"bytes"
	"testing"

	"bmac/internal/fifo"
	"bmac/internal/identity"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestSendBlockMatchesEncodeBlock: SendBlock hands the sink, packet by
// packet, the bytes EncodeBlock returns, whether the sender strips the
// identities (registered) or sends them inline (nothing registered). The
// blocks shrink and grow, so a packet that kept bytes of a longer one from
// the reused buffers would show.
func TestSendBlockMatchesEncodeBlock(t *testing.T) {
	f := newFixture(t)
	blocks := [][]int{{20}, {1}, {7}, {0}, {3}}
	for _, registered := range []bool{true, false} {
		cache := f.sendCache
		if !registered {
			cache = identity.NewCache()
		}
		var sent [][]byte
		s := NewSender(cache, SinkFunc(func(p []byte) error {
			sent = append(sent, bytes.Clone(p))
			return nil
		}))
		for i, txs := range blocks {
			blk := f.makeBlock(t, uint64(i), txs[0])
			want, wantStats, err := s.EncodeBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			sent = sent[:0]
			stats, err := s.SendBlock(blk)
			if err != nil {
				t.Fatal(err)
			}
			if stats != wantStats || len(sent) != len(want) {
				t.Fatalf("registered %v, block %d: sent %d packets %+v, encoded %d %+v", registered, i, len(sent), stats, len(want), wantStats)
			}
			for j := range want {
				if !bytes.Equal(sent[j], want[j]) {
					t.Fatalf("registered %v, block %d: packet %d differs from EncodeBlock's", registered, i, j)
				}
			}
			if registered != (stats.Removed > 0) && txs[0] > 0 {
				t.Fatalf("registered %v, block %d: %d identity bytes removed", registered, i, stats.Removed)
			}
		}
	}
}

// TestSendBlockAllocs: once its buffers have grown, SendBlock into a sink
// that keeps nothing allocates a handful of times per block, and none per
// transaction: it marshals, strips and encodes into the sender's own
// buffers. TestReceiverAllocs holds the receiver to the same for a block
// whose memory the host hands back.
func TestSendBlockAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	f := newFixture(t)
	blk := f.makeBlock(t, 1, 100)
	s := NewSender(f.sendCache, SinkFunc(func([]byte) error { return nil }))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SendBlock(blk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("SendBlock of a 100-tx block: %.1f allocs, want <= 10", allocs)
	}
}

func TestReceiverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	f := newFixture(t)
	blk := f.makeBlock(t, 1, 100)
	packets, _, err := f.sender.EncodeBlock(blk)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, p := range packets {
			if err := f.recv.ProcessPacket(p); err != nil {
				t.Fatal(err)
			}
		}
		discardAll(f.bufs.Block)
		discardAll(f.bufs.Tx)
		discardAll(f.bufs.Ends)
		discardAll(f.bufs.Rdset)
		discardAll(f.bufs.Wrset)
		ab := <-f.recv.Blocks()
		if !ab.DataHashOK {
			t.Fatal("data hash mismatch")
		}
		ab.Release()
	})
	if allocs > 20 {
		t.Errorf("receiving a 100-tx block: %.1f allocs, want <= 20", allocs)
	}
}

// discardAll empties q.
func discardAll[T any](q *fifo.FIFO[T]) {
	for _, ok := q.TryPop(); ok; _, ok = q.TryPop() {
	}
}
