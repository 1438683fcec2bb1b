package cluster

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestStepValidation pins what a script may ask of a run: known actions,
// victims that are fast peers other than the observer (or the leader, for
// kill-leader, on a raft that can re-elect), victims in the state a step
// needs, and every victim back up at the end.
func TestStepValidation(t *testing.T) {
	for _, name := range Scripts() {
		sc := script(t, name, 2)
		if err := sc.check(Options{Peers: 3, RaftNodes: 3}.withDefaults()); err != nil {
			t.Errorf("script %s (%v): %v", name, sc, err)
		}
	}
	if _, err := Script("meteor", 2); err == nil {
		t.Error("unknown script accepted")
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"unknown action", Options{Scenario: Scenario{{"meteor", 2, AtHeight, 0}}}},
		{"kill-leader on a 1-node raft", Options{Scenario: script(t, "leaderkill", 2), RaftNodes: 1}},
		{"kill-leader twice", Options{Scenario: Scenario{{KillLeader, Leader, AtHeight, 2}, {KillLeader, Leader, AtHeight, 4}}, RaftNodes: 5}},
		{"kill-leader on a peer", Options{Scenario: Scenario{{KillLeader, 2, AtHeight, 2}}, RaftNodes: 3}},
		{"peer step on the leader", Options{Scenario: Scenario{{Sever, Leader, AtHeight, 2}, {Heal, Leader, Behind, 0}}}},
		{"victim is the observer", Options{Scenario: script(t, "partition", 0), Peers: 2, SlowPeers: 1}},
		{"victim is a slow peer", Options{Scenario: script(t, "churn", 1), Peers: 2, SlowPeers: 1}},
		{"victim out of range", Options{Scenario: script(t, "churn", 3), Peers: 3}},
		{"restart of a live peer", Options{Scenario: Scenario{{Restart, 2, Behind, 0}}}},
		{"heal before sever", Options{Scenario: Scenario{{Heal, 2, AtHeight, 2}, {Sever, 2, AtHeight, 4}}}},
		{"corrupt-segment of a live peer", Options{Scenario: Scenario{{CorruptSegment, 2, AtHeight, 2}}}},
		{"peer left down", Options{Scenario: Scenario{{Kill, 2, AtCommitted, 2}}}},
		{"kill waiting to fall behind", Options{Scenario: Scenario{{Kill, 2, Behind, 0}, {Restart, 2, Behind, 0}}}},
		{"corrupt-frames mid-run", Options{Scenario: Scenario{{CorruptFrames, 2, AtHeight, 3}}}},
		{"slow-disk twice", Options{Scenario: Scenario{{SlowDisk, 2, AtHeight, 0}, {SlowDisk, 2, AtHeight, 0}}}},
		{"adversary rate 0.95", Options{Adversary: 0.95}},
	} {
		c.opts.Txs = 4
		if _, err := Run(testConfig(), c.opts, t.TempDir()); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// randomScript draws 1–3 steps from a seed, each on a victim of its own:
// a kill and its restart, a sever and its heal, corrupt-frames or
// slow-disk on a fast peer, or one kill-leader, which needs a 3-node raft.
// It returns the script and the number of peers and raft nodes it needs.
func randomScript(rng *rand.Rand) (sc Scenario, peers, raftNodes int) {
	raftNodes = 1 + 2*rng.Intn(2)
	victim := 0
	for n := 1 + rng.Intn(3); n > 0; n-- {
		kind := rng.Intn(5)
		if kind == 4 && containsAction(sc, KillLeader) {
			kind = rng.Intn(4)
		}
		if kind == 4 {
			raftNodes = 3
			sc = append(sc, Step{KillLeader, Leader, AtHeight, uint64(1 + rng.Intn(4))})
			continue
		}
		victim++
		switch kind {
		case 0:
			sc = append(sc, Step{Kill, victim, AtCommitted, uint64(1 + rng.Intn(3))}, Step{Restart, victim, Behind, 0})
		case 1:
			sc = append(sc, Step{Sever, victim, AtHeight, uint64(1 + rng.Intn(4))}, Step{Heal, victim, Behind, 0})
		case 2:
			sc = append(sc, Step{CorruptFrames, victim, AtHeight, 0})
		case 3:
			sc = append(sc, Step{SlowDisk, victim, AtHeight, 0})
		}
	}
	return sc, max(victim+1, 2), raftNodes
}

func containsAction(sc Scenario, action string) bool {
	for _, s := range sc {
		if s.Action == action {
			return true
		}
	}
	return false
}

// TestRandomScenario runs seeded whole-stack scripts against the ending
// gate every scenario shares: the fast peers converge bit-identical and
// the observer committed every submitted transaction. A failure names the
// seed and the script that reproduce it.
func TestRandomScenario(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		sc, peers, raftNodes := randomScript(rand.New(rand.NewSource(seed)))
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			cfg := testConfig()
			cfg.Arch.MaxBlockTxs = 4
			cfg.Durability.CheckpointEvery = 3
			cfg.Delivery.Window = 4
			res, err := Run(cfg, Options{
				Peers:     peers,
				RaftNodes: raftNodes,
				Txs:       40,
				Rate:      900,
				Clients:   2,
				Scenario:  sc,
				Seed:      seed,
			}, t.TempDir())
			if err != nil {
				t.Fatalf("seed %d, %d peers, raft %d, script %v: %v", seed, peers, raftNodes, sc, err)
			}
			if !res.Converged || res.Txs != res.Submitted {
				for _, p := range res.Peers {
					t.Logf("%s: height %d state %.16s commit %.16s restarts %d",
						p.Name, p.Height, p.StateHash, p.CommitHash, p.Restarts)
				}
				t.Fatalf("seed %d, %d peers, raft %d, script %v: converged %v, observer committed %d/%d",
					seed, peers, raftNodes, sc, res.Converged, res.Txs, res.Submitted)
			}
		})
	}
}
