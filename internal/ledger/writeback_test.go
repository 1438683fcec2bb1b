package ledger

import (
	"errors"
	"os"
	"testing"

	"bmac/internal/block"
)

// TestWriteBehindTilesEachSegment: across two rotations the write-behind
// hint is given every writeBehindStep of every segment exactly once — from
// offset 0, adjacent ranges, no overlap, the unhinted tail shorter than one
// step — and a hint that fails changes nothing about Commit.
func TestWriteBehindTilesEachSegment(t *testing.T) {
	type span struct{ off, n int64 }
	hinted := map[string][]span{}
	orig := startWriteback
	startWriteback = func(f *os.File, off, n int64) error {
		hinted[f.Name()] = append(hinted[f.Name()], span{off, n})
		return errors.New("hint refused")
	}
	defer func() { startWriteback = orig }()

	fx := newFixture(t)
	dir := t.TempDir()
	const budget = 2*writeBehindStep + writeBehindStep/2
	l, err := Open(dir, Options{SegmentBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Records of ≈ 300 KiB, so boundaries fall inside records.
	value := make([]byte, 300<<10)
	var prev []byte
	for num := uint64(0); l.Stats().Sealed < 2; num++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: fx.client, Chaincode: "cc", Channel: "ch",
			RWSet: block.RWSet{Writes: []block.KVWrite{{Key: "k", Value: value}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := block.NewBlock(num, prev, []block.Envelope{*env}, fx.orderer)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Commit(b); err != nil {
			t.Fatalf("commit %d with a failing hint: %v", num, err)
		}
		prev = block.HeaderHash(&b.Header)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) != 3 {
		t.Fatalf("%d segments, want 2 sealed + active", len(l.segs))
	}
	for _, seg := range l.segs[:2] {
		var next int64
		for _, s := range hinted[seg.path] {
			if s.off != next || s.n <= 0 || s.n%writeBehindStep != 0 {
				t.Fatalf("%s: hint [%d,+%d) after %d bytes hinted", seg.path, s.off, s.n, next)
			}
			next += s.n
		}
		if next == 0 || next > seg.dataLen || seg.dataLen-next >= writeBehindStep {
			t.Fatalf("%s: hinted [0,%d) of %d data bytes", seg.path, next, seg.dataLen)
		}
	}
}
