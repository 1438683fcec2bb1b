package peer

import (
	"bytes"
	stdnet "net"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/bmacproto"
	"bmac/internal/core"
	"bmac/internal/gossip"
	"bmac/internal/identity"
	"bmac/internal/orderer"
	"bmac/internal/policy"
	"bmac/internal/policy/policytest"
	"bmac/internal/raft"
	"bmac/internal/statedb"
)

// TestEndToEndNetworkEquivalence reproduces the paper's experimental setup
// (Figure 8) in miniature: a 2-org network with an orderer delivering the
// same blocks to a software validator peer via Gossip (TCP) and to a BMac
// peer via the BMac protocol (UDP). As in §4.1, the block and transaction
// valid/invalid flags and the commit hash must match between the peers.
func TestEndToEndNetworkEquivalence(t *testing.T) {
	// --- identities ---
	net := identity.NewNetwork([]byte(t.Name()))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := net.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	client, err := net.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	ordID, err := net.NewIdentity("Org1", identity.RoleOrderer)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := net.NewIdentity("Org1", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := net.NewIdentity("Org2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}

	// --- peers ---
	swPeer, err := Open(fabric14(t, net, 4, map[string]*policy.Policy{"smallbank": policytest.MustParse("2of2")}),
		statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer swPeer.Close()

	bmacPeer, err := NewBMacPeer(core.Config{
		TxValidators: 4,
		VSCCEngines:  2,
		Policies: map[string]*policy.Circuit{
			"smallbank": policy.Compile(policytest.MustParse("2of2")),
		},
	}, 8192, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer bmacPeer.Close()

	// --- transports ---
	swListener, err := gossip.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer swListener.Close()
	udp, err := bmacproto.ListenUDP("127.0.0.1:0", bmacPeer.Receiver)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()

	gossipConn, err := stdnet.Dial("tcp", swListener.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gossipConn.Close()
	sink, err := bmacproto.DialUDP(udp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	bmacSender := bmacproto.NewSender(identity.NewCache(), sink)
	if err := bmacSender.RegisterNetwork(net); err != nil {
		t.Fatal(err)
	}

	// --- ordering service (single-node raft, as in the paper) ---
	cluster := raft.NewCluster(1, 20*time.Millisecond)
	defer cluster.Stop()
	if cluster.WaitForLeader(3*time.Second) == nil {
		t.Fatal("no raft leader")
	}
	ord := orderer.New(orderer.Config{BatchSize: 5, BatchTimeout: time.Hour, Channel: "ch1"},
		ordID, cluster.Nodes[0])
	defer ord.Stop()
	// The orderer sends through our protocol right before Gossip (§3.5).
	ord.OnDeliver(func(b *block.Block) error {
		if _, err := bmacSender.SendBlock(b); err != nil {
			return err
		}
		_, err := gossip.WriteBlock(gossipConn, b)
		return err
	})

	// --- submit transactions (some deliberately invalid) ---
	const total = 15
	for i := 0; i < total; i++ {
		spec := block.TxSpec{
			Creator:   client,
			Chaincode: "smallbank",
			Channel:   "ch1",
			RWSet: block.RWSet{
				Reads:  []block.KVRead{{Key: "cold" + string(rune('A'+i)), Version: block.Version{}}},
				Writes: []block.KVWrite{{Key: "key" + string(rune('A'+i)), Value: []byte{byte(i)}}},
			},
			Endorsers: []*identity.Identity{p1, p2},
		}
		if i%7 == 3 {
			spec.CorruptClientSig = true
		}
		if i%5 == 4 {
			spec.CorruptEndorsementIdx = 2
		}
		env, err := block.NewEndorsedEnvelope(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := ord.Submit(env); err != nil {
			t.Fatal(err)
		}
	}

	// --- collect and compare ---
	// How the orderer slices the fifteen transactions depends on how busy
	// it was when each arrived, so collect by transaction count.
	for n, txs := 0, 0; txs < total; n++ {
		var swRes CommitResult
		select {
		case b := <-swListener.Blocks():
			res, err := swPeer.CommitBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			swRes = res
			txs += len(b.Envelopes)
		case <-time.After(10 * time.Second):
			t.Fatalf("sw peer: block %d never arrived (%d/%d txs)", n, txs, total)
		}

		var hwRes CommitResult
		select {
		case hwRes = <-bmacPeer.Results():
		case <-time.After(10 * time.Second):
			t.Fatalf("bmac peer: block %d never committed", n)
		}

		if swRes.BlockNum != hwRes.BlockNum {
			t.Fatalf("block number mismatch: sw %d, hw %d", swRes.BlockNum, hwRes.BlockNum)
		}
		if !block.FlagsEqual(swRes.Flags, hwRes.Flags) {
			t.Errorf("block %d flags diverge:\n  sw: %v\n  hw: %v", n, swRes.Flags, hwRes.Flags)
		}
		if !bytes.Equal(swRes.CommitHash, hwRes.CommitHash) {
			t.Errorf("block %d commit hash diverges", n)
		}
	}
	if err := bmacPeer.Err(); err != nil {
		t.Fatal(err)
	}

	// State databases converged.
	if !statedb.SnapshotsEqual(swPeer.Engine.Store().Snapshot(), bmacPeer.Proc.DB().Snapshot()) {
		t.Error("state databases diverge")
	}
	// Ledgers agree on height and final commit hash.
	if swPeer.Ledger.Height() != bmacPeer.Ledger.Height() {
		t.Errorf("heights: sw %d, hw %d", swPeer.Ledger.Height(), bmacPeer.Ledger.Height())
	}
	if !bytes.Equal(swPeer.Ledger.LastCommitHash(), bmacPeer.Ledger.LastCommitHash()) {
		t.Error("final ledger commit hashes diverge")
	}
}

func TestBMacPeerInMemoryPipeline(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	p1, _ := net.NewIdentity("Org1", identity.RolePeer)

	peerNode, err := NewBMacPeer(core.Config{
		TxValidators: 2,
		VSCCEngines:  2,
		Policies:     map[string]*policy.Circuit{"cc": policy.Compile(policytest.MustParse("1of1"))},
	}, 1024, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer peerNode.Close()

	link := bmacproto.NewMemLink(peerNode.Receiver)
	sender := bmacproto.NewSender(identity.NewCache(), link)
	if err := sender.RegisterNetwork(net); err != nil {
		t.Fatal(err)
	}

	var prev []byte
	for n := uint64(0); n < 5; n++ {
		env, err := block.NewEndorsedEnvelope(block.TxSpec{
			Creator: client, Chaincode: "cc", Channel: "ch",
			RWSet:     block.RWSet{Writes: []block.KVWrite{{Key: "k", Value: []byte{byte(n)}}}},
			Endorsers: []*identity.Identity{p1},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := block.NewBlock(n, prev, []block.Envelope{*env}, ordID)
		if err != nil {
			t.Fatal(err)
		}
		prev = block.HeaderHash(&b.Header)
		if _, err := sender.SendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	for n := uint64(0); n < 5; n++ {
		res, ok := <-peerNode.Results()
		if !ok {
			t.Fatalf("results closed at block %d", n)
		}
		if res.BlockNum != n || !res.BlockValid {
			t.Errorf("block %d: %+v", n, res)
		}
	}
	if peerNode.Ledger.Height() != 5 {
		t.Errorf("ledger height = %d", peerNode.Ledger.Height())
	}
	// The hardware stats flowed through.
	if err := peerNode.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBMacPeerDataHashMismatch tampers an envelope in flight: the streamed
// data-hash check fails, so the CPU side invalidates every transaction in
// the block but still commits it to the ledger with invalid flags.
func TestBMacPeerDataHashMismatch(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	p1, _ := net.NewIdentity("Org1", identity.RolePeer)

	peerNode, err := NewBMacPeer(core.Config{
		TxValidators: 2,
		VSCCEngines:  1,
		Policies:     map[string]*policy.Circuit{"cc": policy.Compile(policytest.MustParse("1of1"))},
	}, 64, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer peerNode.Close()

	link := bmacproto.NewMemLink(peerNode.Receiver)
	sender := bmacproto.NewSender(identity.NewCache(), link)
	if err := sender.RegisterNetwork(net); err != nil {
		t.Fatal(err)
	}

	env, err := block.NewEndorsedEnvelope(block.TxSpec{
		Creator: client, Chaincode: "cc", Channel: "ch",
		Endorsers: []*identity.Identity{p1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(0, nil, []block.Envelope{*env}, ordID)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper AFTER the data hash was computed: the reconstructed stream
	// will not hash to Header.DataHash.
	b.Envelopes[0].Signature[4] ^= 0xff
	if _, err := sender.SendBlock(b); err != nil {
		t.Fatal(err)
	}

	res, ok := <-peerNode.Results()
	if !ok {
		t.Fatal("no result")
	}
	if res.BlockValid {
		t.Error("block with broken data hash reported valid")
	}
	for i, f := range res.Flags {
		if block.ValidationCode(f) == block.Valid {
			t.Errorf("tx %d valid despite data hash mismatch", i)
		}
	}
	if peerNode.Ledger.Height() != 1 {
		t.Errorf("height = %d; invalid blocks are still appended with invalid flags", peerNode.Ledger.Height())
	}
	if err := peerNode.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSWPeerRejectsTamperedBlock(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)

	swPeer, err := Open(fabric14(t, net, 2, map[string]*policy.Policy{"cc": policytest.MustParse("1of1")}),
		statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer swPeer.Close()

	env, err := block.NewEndorsedEnvelope(block.TxSpec{Creator: client, Chaincode: "cc", Channel: "ch"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := block.NewBlock(0, nil, []block.Envelope{*env}, ordID)
	if err != nil {
		t.Fatal(err)
	}
	b.Metadata.Signature.Signature[3] ^= 0xff
	if _, err := swPeer.CommitBlock(b); err == nil {
		t.Error("tampered orderer signature accepted")
	}
}

// TestParallelPeerMatchesSWPeer commits the same blocks through a 2-worker
// peer and a 4-worker peer and requires identical flags, commit hashes and
// ledger heights — the three-way cross-check the Testbed performs, in
// miniature.
func TestParallelPeerMatchesSWPeer(t *testing.T) {
	net := identity.NewNetwork([]byte(t.Name()))
	if _, err := net.AddOrg("Org1"); err != nil {
		t.Fatal(err)
	}
	client, _ := net.NewIdentity("Org1", identity.RoleClient)
	ordID, _ := net.NewIdentity("Org1", identity.RoleOrderer)
	endorser, _ := net.NewIdentity("Org1", identity.RolePeer)
	pols := map[string]*policy.Policy{"cc": policytest.MustParse("1of1")}

	swPeer, err := Open(fabric14(t, net, 2, pols), statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer swPeer.Close()
	parPeer, err := Open(fabric14(t, net, 4, pols), statedb.NewStore(), t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer parPeer.Close()

	var prevHash []byte
	for n := uint64(0); n < 3; n++ {
		envs := make([]block.Envelope, 0, 4)
		for i := 0; i < 4; i++ {
			rw := block.RWSet{Writes: []block.KVWrite{{
				Key:   "acct" + string(rune('0'+i)),
				Value: []byte{byte(n)},
			}}}
			if n > 0 && i == 0 {
				rw.Reads = []block.KVRead{{
					Key:     "acct0",
					Version: block.Version{BlockNum: n - 1, TxNum: 0},
				}}
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
		b, err := block.NewBlock(n, prevHash, envs, ordID)
		if err != nil {
			t.Fatal(err)
		}
		prevHash = block.HeaderHash(&b.Header)
		swRes, err := swPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := parPeer.CommitBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if !block.FlagsEqual(swRes.Flags, parRes.Flags) {
			t.Fatalf("block %d: flags diverge: sw %v par %v", n, swRes.Flags, parRes.Flags)
		}
		if !bytes.Equal(swRes.CommitHash, parRes.CommitHash) {
			t.Fatalf("block %d: commit hash diverges", n)
		}
	}
	if swPeer.Ledger.Height() != parPeer.Ledger.Height() {
		t.Error("ledger heights diverge")
	}
	if !statedb.SnapshotsEqual(
		swPeer.Engine.Store().Snapshot(), parPeer.Engine.Store().Snapshot()) {
		t.Error("state diverged")
	}
}
