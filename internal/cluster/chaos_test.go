package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/config"
	"bmac/internal/ledger"
)

// script returns the named scenario striking victim.
func script(t *testing.T, name string, victim int) Scenario {
	t.Helper()
	sc, err := Script(name, victim)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// event returns the run's first event of action and its victim's report
// (nil for a raft victim), failing the test when there is none.
func event(t *testing.T, res *Result, action string) (*Event, *PeerReport) {
	t.Helper()
	e := res.Event(action)
	if e == nil {
		t.Fatalf("no %s event in %+v", action, res.Events)
	}
	return e, res.Peer(e.Victim)
}

// requireConverged fails the test with a per-peer dump when the fast
// peers did not end bit-identical.
func requireConverged(t *testing.T, res *Result) {
	t.Helper()
	if res.Converged {
		return
	}
	for _, p := range res.Peers {
		t.Logf("%s: height %d state %.16s commit %.16s slow=%v restarts=%d",
			p.Name, p.Height, p.StateHash, p.CommitHash, p.Slow, p.Restarts)
	}
	if res.BMacCommitHash != "" {
		t.Logf("bmac: height %d commit %.16s", res.BMacHeight, res.BMacCommitHash)
	}
	t.Fatal("fast peers did not converge")
}

// TestAdversarialFloodConvergence is the hostile-load gate: with half of
// all traffic adversarial (invalid signatures, garbage payloads, forged
// endorsements, replayed double-spends), every honest transaction still
// commits, every hostile one is flag-invalidated rather than forking any
// peer, and all fast peers end bit-identical.
func TestAdversarialFloodConvergence(t *testing.T) {
	res, err := Run(testConfig(), Options{
		Mode:      Sequential,
		Peers:     3,
		Txs:       40,
		Clients:   2,
		Adversary: 0.5,
		Seed:      29,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Adversary == nil {
		t.Fatal("no adversary report")
	}
	st := res.Adversary.Injected
	if st.Total() == 0 {
		t.Fatal("adversary injected nothing")
	}
	if st.BadSig == 0 || st.Garbage == 0 || st.Forged == 0 {
		t.Errorf("hostile mix has empty kinds: %v", st)
	}
	// Every honest tx committed and was latency-matched; hostile traffic
	// rode along in the same blocks.
	if res.SWLatency.Count != res.Submitted {
		t.Errorf("matched %d/%d honest txs", res.SWLatency.Count, res.Submitted)
	}
	if int64(res.Txs) != int64(res.Submitted)+st.Total() {
		t.Errorf("observer committed %d envelopes, want %d honest + %d hostile",
			res.Txs, res.Submitted, st.Total())
	}
	// Hostile envelopes are flag-invalidated: badsig, garbage and forged
	// deterministically so; replays die of MVCC staleness (their reads
	// were versioned before the original committed). Honest transactions
	// can MVCC-conflict too under concurrent load, so the rejected count
	// is a floor, not an equality.
	deterministic := int(st.BadSig + st.Garbage + st.Forged)
	if res.Adversary.RejectedInvalid < deterministic {
		t.Errorf("rejected %d invalid envelopes, want >= %d (badsig+garbage+forged)",
			res.Adversary.RejectedInvalid, deterministic)
	}
	if res.ValidTxs == 0 || res.ValidTxs+res.Adversary.RejectedInvalid != res.Txs {
		t.Errorf("valid %d + rejected %d != committed %d", res.ValidTxs, res.Adversary.RejectedInvalid, res.Txs)
	}
	requireConverged(t, res)
}

// TestPartitionHealConvergence severs the victim peer's delivery link
// mid-run, holds it down past the retained window, heals, and requires
// the victim to catch up (through the orderer's ledger) to a
// bit-identical state.
func TestPartitionHealConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Delivery.Window = 4
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      80,
		Rate:     900,
		Clients:  2,
		Scenario: script(t, "partition", 2),
		Seed:     31,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sever, victim := event(t, res, Sever)
	heal, _ := event(t, res, Heal)
	if sever.Heals != 1 {
		t.Errorf("partition healed %d times, want 1", sever.Heals)
	}
	if heal.Fired <= sever.Fired {
		t.Errorf("healed at height %d, struck at %d: the partition had no duration",
			heal.Fired, sever.Fired)
	}
	if res.Txs != res.Submitted {
		t.Errorf("observer committed %d/%d txs", res.Txs, res.Submitted)
	}
	if victim == nil {
		t.Fatalf("victim %q not in peer reports", sever.Victim)
	}
	if victim.Delivery.Redials == 0 {
		t.Error("victim recovered without redialing: the partition never bit")
	}
	requireConverged(t, res)
}

// TestCorruptionSelfHealsConvergence bit-flips every Nth gossip frame to
// the victim: the receiver rejects each corrupted frame (DecodeErrors),
// the sender's cursor may advance past the torn connection, and the
// gap -> rewind self-heal plus redelivery must still end bit-identical.
func TestCorruptionSelfHealsConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Delivery.Window = 8
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      60,
		Rate:     900,
		Clients:  2,
		Scenario: script(t, "corruption", 2),
		Seed:     37,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := event(t, res, CorruptFrames); e.CorruptedFrames == 0 {
		t.Fatalf("event %+v: no frames corrupted", e)
	}
	if res.Txs != res.Submitted {
		t.Errorf("observer committed %d/%d txs", res.Txs, res.Submitted)
	}
	requireConverged(t, res)
}

// TestSlowDiskRetriesConvergence puts the victim's ledger and checkpoint
// writers on a slow disk that refuses every third write once and re-issues
// it: the faults land (no data loss, no failed peer) and the victim still
// converges.
func TestSlowDiskRetriesConvergence(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	cfg.Durability.CheckpointEvery = 3
	res, err := Run(cfg, Options{
		Mode:     Sequential,
		Peers:    3,
		Txs:      40,
		Clients:  2,
		Scenario: script(t, "slowdisk", 2),
		Seed:     41,
	}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := event(t, res, SlowDisk)
	if e.DiskWrites == 0 || e.DiskFaults == 0 {
		t.Fatalf("disk shim saw %d writes / %d faults: fault never installed",
			e.DiskWrites, e.DiskFaults)
	}
	requireConverged(t, res)
}

// TestFaultOptionValidation pins the scenario preconditions: a named
// script or action must exist, a leader kill needs a raft that can
// re-elect, a peer fault needs a fast peer other than the observer, and
// the adversary rate is a fraction below 0.9.
func TestFaultOptionValidation(t *testing.T) {
	if _, err := Script("meteor", 2); err == nil {
		t.Error("unknown script accepted")
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"unknown action", Options{Scenario: Scenario{{"meteor", 2, AtHeight, 0}}}},
		{"leader kill on a 1-node raft", Options{Scenario: script(t, "leaderkill", 2), RaftNodes: 1}},
		{"peer fault with one fast peer", Options{Scenario: script(t, "partition", 0), Peers: 2, SlowPeers: 1}},
		{"adversary rate 0.95", Options{Adversary: 0.95}},
	} {
		c.opts.Txs = 4
		if _, err := Run(testConfig(), c.opts, t.TempDir()); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestLeaderKillExactlyOnce kills the raft leader mid-run: after the
// re-election and orderer rebind, every submitted transaction is in the
// chain exactly once — verified from the observer's reopened ledger, not
// just counters — and all peers converge.
func TestLeaderKillExactlyOnce(t *testing.T) {
	cfg := config.Default()
	cfg.Arch.MaxBlockTxs = 4
	dir := t.TempDir()
	res, err := Run(cfg, Options{
		Mode:      Sequential,
		Peers:     2,
		RaftNodes: 3,
		Txs:       60,
		Rate:      900,
		Clients:   2,
		Scenario:  script(t, "leaderkill", 1),
		Timeout:   90 * time.Second,
		Seed:      43,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if e, _ := event(t, res, KillLeader); e.NewLeader == "" || e.NewLeader == e.Victim {
		t.Fatalf("new leader %q after killing %q", e.NewLeader, e.Victim)
	}
	if res.Txs != res.Submitted {
		t.Errorf("observer committed %d/%d txs", res.Txs, res.Submitted)
	}
	requireConverged(t, res)

	// No silent loss, no duplicate commit: walk the observer's ledger.
	led, err := ledger.Open(filepath.Join(dir, "peer0"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	seen := make(map[string]int, res.Submitted)
	for num := uint64(0); num < led.Height(); num++ {
		b, err := led.Get(num)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b.Envelopes {
			id, err := block.EnvelopeTxID(&b.Envelopes[i])
			if err != nil {
				t.Fatal(err)
			}
			seen[id]++
		}
	}
	if len(seen) != res.Submitted {
		t.Fatalf("%d distinct txids in the chain, want %d", len(seen), res.Submitted)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("txid %s committed %d times", id, n)
		}
	}
}
