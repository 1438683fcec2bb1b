package pipeline

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"bmac/internal/block"
	"bmac/internal/ledger"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// TestBlockInvalidBesideVSCC: block verification runs beside vscc, so a
// block that fails it may already have vscc ranges in flight. Whatever they
// did, the block comes out as if it had been rejected before vscc: every
// flag InvalidOther, ErrBlockInvalid, state and ledger untouched. The good
// block that follows commits exactly as the oracle commits it. At one
// worker block verification precedes vscc, so no range starts at all.
func TestBlockInvalidBesideVSCC(t *testing.T) {
	r := newRig(t)
	corruptions := []struct {
		name  string
		apply func(b *block.Block)
	}{
		{"orderer signature", func(b *block.Block) { b.Metadata.Signature.Signature[4] ^= 0xff }},
		// A byte of the last envelope's signature: the block still decodes
		// and the orderer signature (over the header) still verifies; only
		// the DataHash recomputation notices.
		{"envelope byte", func(b *block.Block) { b.Envelopes[len(b.Envelopes)-1].Signature[4] ^= 0x40 }},
	}
	for _, txs := range []int{1, 100} {
		writes := func(blk int) func(i int) block.TxSpec {
			return func(i int) block.TxSpec {
				rw := block.RWSet{Writes: []block.KVWrite{w(fmt.Sprintf("b%d-k%d", blk, i), "v")}}
				return r.txSpec(rw, r.peers[0], r.peers[1])
			}
		}
		good0 := r.specBlock(t, 0, nil, txs, writes(0))
		good1 := r.specBlock(t, 1, block.HeaderHash(&good0.Header), txs, writes(1))
		raw0, raw1 := block.Marshal(good0), block.Marshal(good1)
		wants, wantState := oracleChain(t, r, [][]byte{raw0, raw1})

		for _, c := range corruptions {
			// Unmarshal aliases its input: corrupt a copy, not raw1.
			bad, err := block.Unmarshal(bytes.Clone(raw1))
			if err != nil {
				t.Fatal(err)
			}
			c.apply(bad)
			rawBad := block.Marshal(bad)

			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/txs=%d/workers=%d", c.name, txs, workers), func(t *testing.T) {
					led, err := ledger.Open(t.TempDir(), ledger.Options{})
					if err != nil {
						t.Fatal(err)
					}
					defer led.Close()
					eng := New(Config{Workers: workers, Policies: r.pols, Members: r.members}, statedb.NewStore(), led)
					defer eng.Close()

					res0, err := eng.ValidateAndCommit(raw0)
					if err != nil {
						t.Fatal(err)
					}
					before := eng.Store().Snapshot()

					res, err := eng.ValidateAndCommit(rawBad)
					if !errors.Is(err, validator.ErrBlockInvalid) {
						t.Fatalf("err = %v, want ErrBlockInvalid", err)
					}
					if res == nil || res.BlockValid || len(res.Flags) != txs {
						t.Fatalf("result = %+v, want an invalid block of %d flags", res, txs)
					}
					for i, f := range res.Flags {
						if block.ValidationCode(f) != block.InvalidOther {
							t.Fatalf("tx %d flag = %v, want InvalidOther", i, block.ValidationCode(f))
						}
					}
					if !statedb.SnapshotsEqual(before, eng.Store().Snapshot()) {
						t.Error("rejected block changed state")
					}
					if led.Height() != 1 || !bytes.Equal(led.LastCommitHash(), res0.CommitHash) {
						t.Errorf("rejected block reached the ledger: height %d", led.Height())
					}
					// The orderer's signature is the only curve verification
					// a one-worker rejection may have made.
					if workers == 1 && res.Breakdown.ECDSACount > 1 {
						t.Errorf("one worker: %d signatures verified, want no vscc range started",
							res.Breakdown.ECDSACount)
					}

					res1, err := eng.ValidateAndCommit(raw1)
					if err != nil {
						t.Fatal(err)
					}
					if !block.FlagsEqual(res1.Flags, wants[1].flags) {
						t.Fatalf("next block flags diverge\n  oracle %v\n  engine %v", wants[1].flags, res1.Flags)
					}
					if want := block.CommitHash(res0.CommitHash, good1.Header.DataHash, wants[1].flags); !bytes.Equal(res1.CommitHash, want) {
						t.Error("next block's commit hash diverges from the oracle's chain")
					}
					if !statedb.SnapshotsEqual(wantState, eng.Store().Snapshot()) {
						t.Error("state after the next block diverges from the oracle's")
					}
				})
			}
		}
	}
}

// TestRangePoolStopsOnFailure: once block verification fails, a worker
// claims no further range, even one already released.
func TestRangePoolStopsOnFailure(t *testing.T) {
	var p rangePool
	p.init(100, 4)
	p.release(p.count)
	if r, ok := p.claim(); !ok || r != 0 {
		t.Fatalf("claim = %d %v, want range 0", r, ok)
	}
	p.failed.Store(true)
	if r, ok := p.claim(); ok {
		t.Fatalf("claimed range %d after block verification failed", r)
	}
}

// TestVSCCHelpers pins the pool's size: the caller is one of the workers, so
// at most Workers-1 goroutines start, none that would find no range left,
// and none at all at one worker.
func TestVSCCHelpers(t *testing.T) {
	for _, c := range []struct{ ranges, workers, want int }{
		{0, 1, 0}, {1, 1, 0}, {8, 1, 0},
		{0, 4, 0}, {1, 4, 0}, {2, 4, 1}, {8, 2, 1}, {8, 4, 3}, {8, 16, 7},
	} {
		if got := vsccHelpers(c.ranges, c.workers); got != c.want {
			t.Errorf("vsccHelpers(%d ranges, %d workers) = %d, want %d", c.ranges, c.workers, got, c.want)
		}
	}
}
