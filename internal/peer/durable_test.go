package peer

import (
	"bytes"
	"fmt"
	"testing"

	"bmac/internal/block"
	"bmac/internal/chaos"
	"bmac/internal/fsutil"
	"bmac/internal/identity"
	"bmac/internal/pipeline"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/statedb"
)

// chainFixture builds deterministic block chains with a mix of valid and
// invalid transactions, so replay has real validation flags to honor.
type chainFixture struct {
	net     *identity.Network
	client  *identity.Identity
	orderer *identity.Identity
	end     *identity.Identity
	pols    map[string]*policy.Policy
}

func newChainFixture(t testing.TB) *chainFixture {
	t.Helper()
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, err := net.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	orderer, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	end, err := net.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	return &chainFixture{
		net:     net,
		client:  client,
		orderer: orderer,
		end:     end,
		pols:    map[string]*policy.Policy{"cc": policytest.MustParse("1of1")},
	}
}

// fabric14 is the engine configuration of the paper's sequential software
// peer: the given vscc workers, no prefetch, net's identities the
// consortium.
func fabric14(t testing.TB, net *identity.Network, workers int, pols map[string]*policy.Policy) pipeline.Config {
	t.Helper()
	members, err := net.Members()
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Config{Workers: workers, Policies: pols, Members: members}
}

// chain builds n blocks of 4 transactions each: writes to rotating keys,
// occasional stale reads (mvcc invalidations) and corrupt signatures
// (vscc invalidations), chained by previous hash.
func (f *chainFixture) chain(t testing.TB, n int) []*block.Block {
	t.Helper()
	var out []*block.Block
	var prev []byte
	for bn := uint64(0); bn < uint64(n); bn++ {
		envs := make([]block.Envelope, 0, 4)
		for i := 0; i < 4; i++ {
			rw := block.RWSet{Writes: []block.KVWrite{{
				Key:   fmt.Sprintf("acct%d", i),
				Value: []byte{byte(bn), byte(i)},
			}}}
			spec := block.TxSpec{
				Creator: f.client, Chaincode: "cc", Channel: "ch",
				RWSet: rw, Endorsers: []*identity.Identity{f.end},
			}
			if bn > 1 && i == 1 {
				// Stale read: endorsed against a version two blocks old.
				spec.RWSet.Reads = []block.KVRead{{
					Key:     "acct1",
					Version: block.Version{BlockNum: bn - 2, TxNum: 1},
				}}
			}
			if i == 3 && bn%2 == 1 {
				spec.CorruptClientSig = true
			}
			env, err := block.NewEndorsedEnvelope(spec)
			if err != nil {
				t.Fatal(err)
			}
			envs = append(envs, *env)
		}
		b, err := block.NewBlock(bn, prev, envs, f.orderer)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		out = append(out, b)
	}
	return out
}

// TestSWPeerRestartReplaysLedger is the core recovery contract, without
// checkpoints: a restarted peer replays its whole ledger and ends with a
// state hash and commit hash identical to a peer that never stopped, then
// keeps committing on the same chain.
func TestSWPeerRestartReplaysLedger(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 6)
	cfg := fabric14(t, f.net, 2, f.pols)

	refPeer, err := Open(cfg, statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer refPeer.Close()

	dir := t.TempDir()
	p, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[:4] {
		if _, err := refPeer.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: ledger replay only (no checkpoint was ever written).
	p2, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Height() != 4 {
		t.Fatalf("recovered height = %d, want 4", p2.Height())
	}
	wantState := statedb.SnapshotHash(refPeer.Engine.Store().Snapshot())
	if got := statedb.SnapshotHash(p2.Engine.Store().Snapshot()); !bytes.Equal(got, wantState) {
		t.Fatal("replayed state hash diverges from live-commit state hash")
	}

	// The chain continues: both peers commit the remaining blocks and stay
	// bit-identical.
	for _, b := range blocks[4:] {
		refRes, err := refPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p2.CommitBlock(b)
		if err != nil {
			t.Fatalf("commit after restart: %v", err)
		}
		if !bytes.Equal(refRes.CommitHash, res.CommitHash) {
			t.Fatalf("block %d: commit hash diverges after restart", b.Header.Number)
		}
	}
	if !statedb.SnapshotsEqual(refPeer.Engine.Store().Snapshot(), p2.Engine.Store().Snapshot()) {
		t.Error("states diverge after post-restart commits")
	}
	if !bytes.Equal(refPeer.Ledger.LastCommitHash(), p2.Ledger.LastCommitHash()) {
		t.Error("ledger commit hash chains diverge")
	}
}

// TestDurablePeerCheckpointSuffixReplay proves the checkpoint shortcut:
// with CheckpointEvery=2 over 5 blocks, a restart loads the block-3
// checkpoint and replays only the suffix — and the result is identical to
// a full replay. Runs the matrix of the engine with the prefetch off and on
// and both statedb backends. The engine prefetches over a store it can warm,
// so the prefetch-off engine sees its store behind the bare KVS interface,
// which offers no Warm.
func TestDurablePeerCheckpointSuffixReplay(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 5)

	kvsFor := func(backend string) statedb.KVS {
		if backend == "hybrid" {
			return statedb.NewHybridKVS(8, statedb.NewStore())
		}
		return statedb.NewStore()
	}
	engines := map[string]func(statedb.KVS) statedb.KVS{
		"fabric14": func(kvs statedb.KVS) statedb.KVS { return struct{ statedb.KVS }{kvs} },
		"prefetch": func(kvs statedb.KVS) statedb.KVS { return kvs },
	}
	cfg := fabric14(t, f.net, 2, f.pols)

	for engine, store := range engines {
		for _, backend := range []string{"memory", "hybrid"} {
			t.Run(engine+"/"+backend, func(t *testing.T) {
				dir := t.TempDir()
				p, err := Open(cfg, store(kvsFor(backend)), dir, DurableOptions{CheckpointEvery: 2})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					if _, err := p.CommitBlock(b); err != nil {
						t.Fatal(err)
					}
				}
				want := statedb.SnapshotHash(p.Engine.Store().Snapshot())
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}

				// The block-3 checkpoint generation must exist and restrict
				// replay to the suffix.
				refs := statedb.Checkpoints(fsutil.OS{}, dir)
				if len(refs) == 0 {
					t.Fatal("no periodic checkpoint generation")
				}
				_, h, err := statedb.LoadCheckpoint(fsutil.OS{}, dir+"/"+refs[0].File)
				if err != nil {
					t.Fatalf("no periodic checkpoint: %v", err)
				}
				if h != 4 {
					t.Errorf("checkpoint height = %d, want 4 (after block 3)", h)
				}

				p2, err := Open(cfg, store(kvsFor(backend)), dir, DurableOptions{CheckpointEvery: 2})
				if err != nil {
					t.Fatalf("restart: %v", err)
				}
				defer p2.Close()
				if p2.Height() != 5 {
					t.Fatalf("recovered height = %d, want 5", p2.Height())
				}
				if got := statedb.SnapshotHash(p2.Engine.Store().Snapshot()); !bytes.Equal(got, want) {
					t.Fatal("checkpoint + suffix replay diverges from live state")
				}
			})
		}
	}
}

// TestRecoverStateRejectsCheckpointAheadOfLedger pins the safety check: a
// checkpoint claiming more blocks than the ledger holds cannot recover.
func TestRecoverStateRejectsCheckpointAheadOfLedger(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 2)
	dir := t.TempDir()
	p, err := Open(fabric14(t, f.net, 1, f.pols), statedb.NewStore(), dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint generation claiming height 7 against a 2-block ledger.
	if _, err := statedb.WriteManagedCheckpoint(fsutil.OS{}, dir, p.Engine.Store(), 7, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(fabric14(t, f.net, 1, f.pols), statedb.NewStore(), dir, DurableOptions{}); err == nil {
		t.Fatal("checkpoint ahead of ledger accepted")
	}
}

// TestDiskFaultFSRecovers: a peer whose ledger and checkpoints write
// through a disk that refuses every write once recovers, on the operating
// system's disk, the state it committed — the refused writes landed exactly
// once — and its checkpoint wrote through the fault.
func TestDiskFaultFSRecovers(t *testing.T) {
	f := newChainFixture(t)
	blocks := f.chain(t, 5)
	cfg := fabric14(t, f.net, 1, f.pols)
	disk := &chaos.DiskFault{FailEvery: 1}
	dir := t.TempDir()
	p, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{SegmentBytes: 4096, FS: disk})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := p.CommitBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := disk.Stats()
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after, faults := disk.Stats(); after == before || faults != after {
		t.Fatalf("checkpoint wrote %d times through the fault (%d refused of %d)", after-before, faults, after)
	}
	want := statedb.SnapshotHash(p.Engine.Store().Snapshot())
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(cfg, statedb.NewStore(), dir, DurableOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.Height() != 5 {
		t.Fatalf("recovered height %d, want 5", p2.Height())
	}
	if got := statedb.SnapshotHash(p2.Engine.Store().Snapshot()); !bytes.Equal(got, want) {
		t.Fatal("state recovered from the faulted disk diverges from the live state")
	}
}
