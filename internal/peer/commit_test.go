package peer

import (
	"bytes"
	"errors"
	"testing"

	"bmac/internal/block"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/ledger"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
)

// TestCommitBlockLeavesCallerBlockUntouched hands each received block — read
// once from its gossip frame — to a 1-worker and a 4-worker peer at the same
// time, as the testbed does. Neither may write to it: the block re-encodes
// to the frame it came in, before and after, and under -race the two
// concurrent commits of one block are the check that nothing is written
// through it. The two peers still agree on every flag, commit hash and the
// state.
func TestCommitBlockLeavesCallerBlockUntouched(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	endorser, _ := net.NewIdentity("Org1", identity.RolePeer)
	pols := map[string]*policy.Policy{"cc": policytest.MustParse("1of1")}

	seqPeer, err := Open(fabric14(t, net, 1, pols), statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seqPeer.Close()
	parPeer, err := Open(fabric14(t, net, 4, pols), statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parPeer.Close()

	var prevHash []byte
	for n := uint64(0); n < 4; n++ {
		envs := make([]block.Envelope, 0, 5)
		for i := 0; i < 5; i++ {
			rw := block.RWSet{Writes: []block.KVWrite{{Key: "acct" + string(rune('0'+i)), Value: []byte{byte(n)}}}}
			if n > 0 && i < 2 { // the first reads what block n-1 wrote, the second a stale version
				rw.Reads = []block.KVRead{{Key: "acct0", Version: block.Version{BlockNum: n - 1 - uint64(i)}}}
			}
			env, err := block.NewEndorsedEnvelope(block.TxSpec{
				Creator: client, Chaincode: "cc", Channel: "ch",
				RWSet: rw, Endorsers: []*identity.Identity{endorser},
			})
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, *env)
		}
		sent, err := block.NewBlock(n, prevHash, envs, ordID)
		if err != nil {
			t.Fatal(err)
		}
		prevHash = block.HeaderHash(&sent.Header)
		var frame bytes.Buffer
		if _, err := gossip.WriteBlock(&frame, sent); err != nil {
			t.Fatal(err)
		}
		wireBytes := bytes.Clone(frame.Bytes()[4:])
		b, _, err := gossip.ReadBlock(&frame)
		if err != nil {
			t.Fatal(err)
		}

		parCh := make(chan CommitResult, 1)
		go func() {
			res, err := parPeer.CommitBlock(b)
			if err != nil {
				t.Error(err)
			}
			parCh <- res
		}()
		seqRes, err := seqPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parRes := <-parCh

		if !bytes.Equal(block.Marshal(b), wireBytes) {
			t.Fatalf("block %d: committing it changed the caller's block", n)
		}
		if b.Metadata.CommitHash != nil {
			t.Fatalf("block %d: the caller's block acquired a commit hash", n)
		}
		if !block.FlagsEqual(seqRes.Flags, parRes.Flags) || !bytes.Equal(seqRes.CommitHash, parRes.CommitHash) {
			t.Fatalf("block %d: the peers diverge: %v %x vs %v %x", n, seqRes.Flags, seqRes.CommitHash, parRes.Flags, parRes.CommitHash)
		}
		if n > 0 && (seqRes.Flags[0] != byte(block.Valid) || seqRes.Flags[1] != byte(block.MVCCReadConflict)) {
			t.Fatalf("block %d: flags %v, want the fresh read valid and the stale one a conflict", n, seqRes.Flags)
		}
		got, err := seqPeer.Ledger.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Metadata.CommitHash, seqRes.CommitHash) || !block.FlagsEqual(got.Metadata.ValidationFlags, seqRes.Flags) {
			t.Fatalf("block %d: the ledger holds other metadata than the commit reported", n)
		}
	}
	if !statedb.SnapshotsEqual(seqPeer.Engine.Store().Snapshot(), parPeer.Engine.Store().Snapshot()) {
		t.Error("state diverged")
	}
}

// TestRefusedBlockLeavesState: a block the ledger refuses — one past a gap,
// a duplicate, one whose previous hash breaks the chain — is returned with
// the ledger's error, and none of its writes reaches the state database,
// on a 1-worker and a 4-worker peer alike. Every refused block here passes
// block verification and would write blindly, so only the ledger stands
// between it and the state. The peer then commits the next block as usual.
func TestRefusedBlockLeavesState(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 4)
	broken, err := block.NewBlock(2, []byte("not block 1's hash"), blocks[2].Envelopes, f.orderer)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p, err := Open(fabric14(t, f.net, workers, f.pols), statedb.NewStore(), t.TempDir(), DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks[:2] {
			if _, err := p.CommitBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		state := statedb.SnapshotHash(p.Engine.Store().Snapshot())
		for _, c := range []struct {
			name string
			b    *block.Block
			want error
		}{
			{"gap", blocks[3], ledger.ErrOutOfOrder},
			{"duplicate", blocks[0], ledger.ErrDuplicateBlock},
			{"broken chain", broken, ledger.ErrBrokenChain},
		} {
			if _, err := p.CommitBlock(c.b); !errors.Is(err, c.want) {
				t.Fatalf("workers %d, %s: err %v, want %v", workers, c.name, err, c.want)
			}
			if got := statedb.SnapshotHash(p.Engine.Store().Snapshot()); !bytes.Equal(got, state) {
				t.Fatalf("workers %d, %s: the refused block changed the state", workers, c.name)
			}
			if h := p.Height(); h != 2 {
				t.Fatalf("workers %d, %s: height %d after a refused block, want 2", workers, c.name, h)
			}
		}
		if _, err := p.CommitBlock(blocks[2]); err != nil {
			t.Fatalf("workers %d: block 2 after the refusals: %v", workers, err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
