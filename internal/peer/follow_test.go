package peer

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/chaos"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// tamper returns a copy of b with one payload byte flipped: it still
// decodes, but its DataHash no longer matches the header.
func tamper(t testing.TB, b *block.Block) *block.Block {
	t.Helper()
	c, err := block.Unmarshal(block.Marshal(b))
	if err != nil {
		t.Fatal(err)
	}
	pl := slices.Clone(c.Envelopes[0].PayloadBytes)
	pl[len(pl)-1] ^= 1
	c.Envelopes[0].PayloadBytes = pl
	return c
}

// followLog is what Follow reported through its hooks.
type followLog struct {
	rewinds, committed, skipped []uint64
}

// follow runs p.Follow over sched, delivered in order on a closed channel,
// and logs the hooks. withRewind decides whether Rewind is set.
func follow(p *Peer, sched []*block.Block, withRewind bool) (followLog, error) {
	src := make(chan *block.Block, len(sched))
	for _, b := range sched {
		src <- b
	}
	close(src)
	var log followLog
	h := Hooks{
		Committed: func(b *block.Block, _ CommitResult, _ time.Time) error {
			log.committed = append(log.committed, b.Header.Number)
			return nil
		},
		Skipped: func(b *block.Block) { log.skipped = append(log.skipped, b.Header.Number) },
	}
	if withRewind {
		h.Rewind = func(seq uint64) error { log.rewinds = append(log.rewinds, seq); return nil }
	}
	err := p.Follow(src, h)
	return log, err
}

func openFollower(t testing.TB, f *chainFixture, dir string, opts DurableOptions) *Peer {
	t.Helper()
	p, err := Open(fabric14(t, f.net, 2, f.pols), statedb.NewStore(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFollowSkipsDuplicates(t *testing.T) {
	f := newChainFixture(t)
	c := f.chain(t, 3)
	p := openFollower(t, f, t.TempDir(), DurableOptions{})
	defer p.Close()
	log, err := follow(p, []*block.Block{c[0], c[1], c[0], c[1], c[2], c[2]}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(log.committed, []uint64{0, 1, 2}) || log.rewinds != nil || p.Height() != 3 {
		t.Fatalf("committed %v, rewound to %v, height %d; want [0 1 2], none, 3", log.committed, log.rewinds, p.Height())
	}
}

func TestFollowRewindsOnGap(t *testing.T) {
	f := newChainFixture(t)
	c := f.chain(t, 3)
	p := openFollower(t, f, t.TempDir(), DurableOptions{})
	defer p.Close()
	// Block 1 is lost in flight: Follow asks for it again, and the
	// redelivered 1 and 2 commit.
	log, err := follow(p, []*block.Block{c[0], c[2], c[1], c[2]}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(log.rewinds, []uint64{1}) || !slices.Equal(log.committed, []uint64{0, 1, 2}) {
		t.Fatalf("rewound to %v, committed %v; want [1], [0 1 2]", log.rewinds, log.committed)
	}
}

func TestFollowSkipsAfterGapWithoutRewind(t *testing.T) {
	f := newChainFixture(t)
	c := f.chain(t, 4)
	p := openFollower(t, f, t.TempDir(), DurableOptions{})
	defer p.Close()
	log, err := follow(p, []*block.Block{c[0], c[2], c[3]}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(log.committed, []uint64{0}) || !slices.Equal(log.skipped, []uint64{2, 3}) || p.Height() != 1 {
		t.Fatalf("committed %v, skipped %v, height %d; want [0], [2 3], 1", log.committed, log.skipped, p.Height())
	}
}

func TestFollowRewindsTamperedBlock(t *testing.T) {
	f := newChainFixture(t)
	c := f.chain(t, 2)
	bad := tamper(t, c[1])
	for _, tc := range []struct {
		copies int
		ok     bool
	}{{8, true}, {9, false}} {
		t.Run(fmt.Sprint(tc.copies), func(t *testing.T) {
			p := openFollower(t, f, t.TempDir(), DurableOptions{})
			defer p.Close()
			sched := []*block.Block{c[0]}
			for range tc.copies {
				sched = append(sched, bad)
			}
			log, err := follow(p, append(sched, c[1]), true)
			if want := slices.Repeat([]uint64{1}, min(tc.copies, 8)); !slices.Equal(log.rewinds, want) {
				t.Errorf("rewound to %v, want %v", log.rewinds, want)
			}
			switch {
			case tc.ok && (err != nil || p.Height() != 2):
				t.Fatalf("after %d bad copies: height %d, err %v; want the intact copy committed", tc.copies, p.Height(), err)
			case !tc.ok && (!errors.Is(err, validator.ErrBlockInvalid) || p.Height() != 1):
				t.Fatalf("after %d bad copies: height %d, err %v; want ErrBlockInvalid at height 1", tc.copies, p.Height(), err)
			}
		})
	}
}

func TestFollowRestoresQuarantinedHole(t *testing.T) {
	f := newChainFixture(t)
	c := f.smallChain(t, 12)
	dir := t.TempDir()
	opts := DurableOptions{SegmentBytes: 4096}
	p := openFollower(t, f, dir, opts)
	for _, b := range c {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// The checkpoint above the rot keeps the hole: recovery replays from it
	// and leaves the range below to the archive refetch.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.CorruptSealedSegment(dir); err != nil {
		t.Fatal(err)
	}
	p = openFollower(t, f, dir, opts)
	defer p.Close()
	mr := p.Ledger.MissingRanges()
	if len(mr) != 1 || p.Height() != 12 {
		t.Fatalf("reopen: missing %v at height %d, want one hole at height 12", mr, p.Height())
	}
	if p.Want() != mr[0].First {
		t.Fatalf("Want() = %d, want the hole's first block %d", p.Want(), mr[0].First)
	}
	log, err := follow(p, c[mr[0].First:], true)
	if err != nil {
		t.Fatal(err)
	}
	if log.committed != nil || log.rewinds != nil {
		t.Fatalf("committed %v, rewound to %v; want neither", log.committed, log.rewinds)
	}
	if left := p.Ledger.MissingRanges(); len(left) != 0 || p.Want() != 12 {
		t.Fatalf("after redelivery: missing %v, Want() %d; want none, 12", left, p.Want())
	}
	for n := mr[0].First; n < mr[0].First+mr[0].Count; n++ {
		b, err := p.Ledger.Get(n)
		if err != nil || !bytes.Equal(block.HeaderHash(&b.Header), block.HeaderHash(&c[n].Header)) {
			t.Fatalf("restored block %d: %v", n, err)
		}
	}
}

// FuzzFollow plays a delivery schedule the fuzz bytes pick against one
// long-running Follow. Each byte is one send relative to the harness's
// cursor: the next block in order, a duplicate of a block below the
// cursor, a skip ahead that loses blocks in flight, or a tampered copy of
// the next block (at most 8 at one height, Follow's redelivery budget).
// The cursor follows Follow's Rewind calls, as the delivery service's
// does, and must be back at the peer's height after every send. A final
// in-order pass takes the peer to the chain's height, where its commit
// hash and state must equal a peer's that committed the chain in order.
func FuzzFollow(f *testing.F) {
	fx := newChainFixture(f)
	chain := fx.chain(f, 6)
	bad := make([]*block.Block, len(chain))
	for i, b := range chain {
		bad[i] = tamper(f, b)
	}
	ref := openFollower(f, fx, f.TempDir(), DurableOptions{})
	for _, b := range chain {
		if _, err := ref.CommitBlock(b); err != nil {
			f.Fatal(err)
		}
	}
	wantCommit, wantState := ref.Ledger.LastCommitHash(), statedb.SnapshotHash(ref.Engine.Store().Snapshot())
	if err := ref.Close(); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{"", "\x00\x01\x02\x03", "\x03\x03\x00\x02\x06\x01", "\x00\x03\x03\x03\x03\x03\x03\x03\x03\x03",
		"\x03\x03\x03\x03\x03\x00\x03\x03\x03\x03\x03"} { // the last: 5 tampered copies at each of two heights
		f.Add([]byte(seed))
	}
	n := uint64(len(chain))
	f.Fuzz(func(t *testing.T, sched []byte) {
		p := openFollower(t, fx, t.TempDir(), DurableOptions{})
		defer p.Close()
		src := make(chan *block.Block) // unbuffered: a send returns once Follow is done with the block before
		errc := make(chan error, 1)
		cursor := uint64(0)
		go func() {
			errc <- p.Follow(src, Hooks{Rewind: func(seq uint64) error { cursor = seq; return nil }})
		}()
		send := func(b *block.Block) {
			select {
			case src <- b:
			case err := <-errc:
				t.Fatalf("Follow returned before the source closed: %v", err)
			}
		}
		// Block 0 commits first, so that a copy of it is a no-op send that
		// returns only once Follow has finished the send before it.
		cursor = 1
		send(chain[0])
		tampers := make([]int, n)
		for _, c := range sched {
			op, arg := c%4, uint64(c/4)
			b := chain[arg%cursor] // a duplicate, unless op picks otherwise
			switch {
			case op == 0 && cursor < n:
				b, cursor = chain[cursor], cursor+1
			case op == 2 && cursor+1+arg%3 < n:
				cursor += 1 + arg%3
				b, cursor = chain[cursor], cursor+1
			case op == 3 && cursor < n && tampers[cursor] < 8:
				tampers[cursor]++
				b, cursor = bad[cursor], cursor+1
			}
			send(b)
			send(chain[0])
			if cursor != p.Height() {
				t.Fatalf("after sending block %d: cursor %d, peer height %d", b.Header.Number, cursor, p.Height())
			}
		}
		for i := cursor; i < n; i++ {
			send(chain[i])
		}
		close(src)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if p.Height() != n || !bytes.Equal(p.Ledger.LastCommitHash(), wantCommit) ||
			!bytes.Equal(statedb.SnapshotHash(p.Engine.Store().Snapshot()), wantState) {
			t.Fatalf("height %d (want %d), or commit hash or state differs from an in-order peer's", p.Height(), n)
		}
	})
}
