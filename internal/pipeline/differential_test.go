package pipeline

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/identity"
	"bmac/internal/statedb"
)

// randomRWSet builds a read/write set over a small shared key pool. Reads
// are endorsed at the version currently in `world` (the pre-block state a
// live endorser would observe), with occasional deliberately stale versions
// to force mvcc conflicts; hot keys force intra-block dependencies.
func randomRWSet(rng *rand.Rand, world map[string]block.Version) block.RWSet {
	var rw block.RWSet
	nReads := rng.Intn(3)
	for r := 0; r < nReads; r++ {
		key := "k" + strconv.Itoa(rng.Intn(6))
		ver := world[key]
		if rng.Intn(8) == 0 {
			ver = block.Version{BlockNum: ver.BlockNum + 1} // stale/wrong
		}
		rw.Reads = append(rw.Reads, block.KVRead{Key: key, Version: ver})
	}
	nWrites := 1 + rng.Intn(2)
	for wi := 0; wi < nWrites; wi++ {
		key := "k" + strconv.Itoa(rng.Intn(6))
		rw.Writes = append(rw.Writes, block.KVWrite{
			Key: key, Value: []byte{byte(rng.Intn(256))},
		})
	}
	return rw
}

// hotRWSet is the contended case, the shape of a Zipf-skewed workload's
// hot accounts: every transaction reads one of two hot keys at the version
// in `world` and writes one, so once both are written in a block, every
// later transaction of the block is an in-block mvcc conflict.
func hotRWSet(rng *rand.Rand, world map[string]block.Version) block.RWSet {
	read, write := "hot"+strconv.Itoa(rng.Intn(2)), "hot"+strconv.Itoa(rng.Intn(2))
	return block.RWSet{
		Reads:  []block.KVRead{{Key: read, Version: world[read]}},
		Writes: []block.KVWrite{{Key: write, Value: []byte{byte(rng.Intn(256))}}},
	}
}

// buildRandomBlocks creates a chain of blocks of up to 10 random
// transactions with random fault injection (bad client signatures,
// corrupt/missing endorsements, stale reads).
func buildRandomBlocks(t *testing.T, r *rig, rng *rand.Rand, nBlocks int) [][]byte {
	t.Helper()
	return buildChain(t, r, rng, nBlocks, 10, randomRWSet, true)
}

// buildChain creates a chain of nBlocks blocks of 1..maxTxs transactions
// whose read/write sets rwset draws, with fault injection when faults is
// set, and simultaneously tracks the endorsement-time world state by
// replaying each block through the reference oracle.
func buildChain(t *testing.T, r *rig, rng *rand.Rand, nBlocks, maxTxs int,
	rwset func(*rand.Rand, map[string]block.Version) block.RWSet, faults bool) [][]byte {
	t.Helper()
	world := make(map[string]block.Version) // committed version per key
	raws := make([][]byte, 0, nBlocks)
	ref := newOracle(r)

	for n := 0; n < nBlocks; n++ {
		nTxs := 1 + rng.Intn(maxTxs)
		rws := make([]block.RWSet, 0, nTxs)
		envs := make([]block.Envelope, 0, nTxs)
		for i := 0; i < nTxs; i++ {
			spec := block.TxSpec{
				Creator:   r.client,
				Chaincode: "smallbank",
				Channel:   "ch1",
				RWSet:     rwset(rng, world),
				Endorsers: r.peers[:2],
			}
			if faults {
				switch rng.Intn(6) {
				case 0:
					spec.CorruptClientSig = true
				case 1:
					spec.CorruptEndorsementIdx = 1 + rng.Intn(2)
				case 2:
					spec.Endorsers = r.peers[:1] // policy failure (2of2)
				}
			}
			env, err := block.NewEndorsedEnvelope(spec)
			if err != nil {
				t.Fatal(err)
			}
			rws = append(rws, spec.RWSet)
			envs = append(envs, *env)
		}
		b, err := block.NewBlock(uint64(n), nil, envs, r.orderer)
		if err != nil {
			t.Fatal(err)
		}
		raw := block.Marshal(b)
		raws = append(raws, raw)

		// Advance the endorsement-time world using the oracle so later
		// blocks read versions a live endorser would have seen.
		flags, _, err := ref.validateAndCommit(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range flags {
			if block.ValidationCode(f) != block.Valid {
				continue
			}
			for _, wr := range rws[i].Writes {
				world[wr.Key] = block.Version{BlockNum: uint64(n), TxNum: uint64(i)}
			}
		}
	}
	return raws
}

// outsiderChain is two blocks signed by outsiders: identities that a
// second seed's network issued under the rig's own names, so their subjects
// are a member's and their keys and CAs are not. In block 0 an outsider
// "peer0.Org2" endorses beside Org1's peer, which fails the 2of2 policy; in
// block 1 an outsider "client0.Org1" creates the transactions, which only
// its own signature is checked for.
func outsiderChain(t *testing.T, r *rig) [][]byte {
	t.Helper()
	n := identity.NewNetwork([]byte("outsider"))
	for _, org := range []string{"Org1", "Org2"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatal(err)
		}
	}
	client, err := n.NewIdentity("Org1", identity.RoleClient)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := n.NewIdentity("Org2", identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	endorsed := r.specBlock(t, 0, nil, 3, func(i int) block.TxSpec {
		spec := r.distinctWrites(i)
		spec.Endorsers[1] = peer
		return spec
	})
	created := r.specBlock(t, 1, nil, 3, func(i int) block.TxSpec {
		spec := r.distinctWrites(3 + i)
		spec.Creator = client
		return spec
	})
	return [][]byte{block.Marshal(endorsed), block.Marshal(created)}
}

// checkChain drives raws through eng and demands the oracle's verdict for
// every block, in order, and the oracle's final state.
func checkChain(t *testing.T, label string, eng *Engine, raws [][]byte,
	wants []verdict, wantState map[string]statedb.VersionedValue) {
	t.Helper()
	defer eng.Close()
	for n, raw := range raws {
		res, err := eng.ValidateAndCommit(raw)
		if err != nil {
			t.Fatalf("%s block %d: %v", label, n, err)
		}
		if res.BlockNum != uint64(n) || !res.BlockValid {
			t.Fatalf("%s block %d: got result for block %d (valid=%v)", label, n, res.BlockNum, res.BlockValid)
		}
		if !block.FlagsEqual(res.Flags, wants[n].flags) {
			t.Fatalf("%s block %d: flags diverge\n  oracle %v\n  engine %v", label, n, wants[n].flags, res.Flags)
		}
		if string(res.CommitHash) != string(wants[n].commit) {
			t.Fatalf("%s block %d: commit hash diverges", label, n)
		}
	}
	if !statedb.SnapshotsEqual(wantState, eng.Store().Snapshot()) {
		t.Fatalf("%s: final state diverged", label)
	}
}

// workerCounts are the vscc budgets the differential tests run the engine
// at: one worker (no fan-out), and counts that do and do not divide a
// block's transactions evenly.
var workerCounts = []int{1, 3, 4}

// TestDifferentialRandomized is the pipeline counterpart of
// internal/core/differential_test.go: random multi-block chains with fault
// injection, plus one hot-key chain in which most transactions are in-block
// mvcc conflicts, validated by the oracle and by the engine at every worker
// count in both variants, with the prefetch off and on. Flags, commit hash and final state
// must be byte-identical. Run with -race to also shake out fan-out and
// prefetch races.
func TestDifferentialRandomized(t *testing.T) {
	r := newRig(t)
	chains := map[string][][]byte{}
	for seed := int64(1); seed <= 4; seed++ {
		chains[fmt.Sprintf("seed %d", seed)] = buildRandomBlocks(t, r, rand.New(rand.NewSource(seed)), 6)
	}
	hot := buildChain(t, r, rand.New(rand.NewSource(5)), 6, 16, hotRWSet, false)
	chains["hot seed 5"] = hot
	chains["outsiders"] = outsiderChain(t, r)
	outWants, _ := oracleChain(t, r, chains["outsiders"])
	epf, valid := block.EndorsementPolicyFailure, block.Valid
	wantCodes(t, outWants[0].flags, epf, epf, epf)
	wantCodes(t, outWants[1].flags, valid, valid, valid)

	hotWants, _ := oracleChain(t, r, hot)
	conflicts, txs := 0, 0
	for _, w := range hotWants {
		for _, f := range w.flags {
			if block.ValidationCode(f) == block.MVCCReadConflict {
				conflicts++
			}
		}
		txs += len(w.flags)
	}
	if 2*conflicts < txs {
		t.Fatalf("hot chain: %d of %d transactions are mvcc conflicts, want at least half", conflicts, txs)
	}
	t.Logf("hot chain: %d of %d transactions are mvcc conflicts", conflicts, txs)

	for name, raws := range chains {
		wants, wantState := oracleChain(t, r, raws)
		for _, workers := range workerCounts {
			for _, v := range variants {
				eng := New(Config{Workers: workers, Policies: r.pols, Members: r.members}, v.store(), nil)
				checkChain(t, fmt.Sprintf("%s workers %d %s", name, workers, v.name), eng, raws, wants, wantState)
			}
		}
	}
}

// TestDifferentialBackends proves the backend-agnostic engine keeps Fabric
// semantics bit-identical across every statedb backend, at every worker
// count, with and without the prefetch stage: same flags, same commit
// hashes, same final state as the oracle. The hybrid backend uses a tiny
// cache (constant evictions) plus a modeled host latency so the slow path
// really runs; its prefetch-off case hides it behind the bare KVS
// interface, which offers no Warm, so the engine starts no prefetcher.
func TestDifferentialBackends(t *testing.T) {
	r := newRig(t)
	hybrid := func() *statedb.HybridKVS {
		h := statedb.NewHybridKVS(3, statedb.NewStore())
		h.SetHostReadLatency(50 * time.Microsecond)
		return h
	}
	backends := []struct {
		name string
		make func() statedb.KVS
	}{
		{"store", func() statedb.KVS { return statedb.NewStore() }},
		{"hybrid prefetch false", func() statedb.KVS { return struct{ statedb.KVS }{hybrid()} }},
		{"hybrid prefetch true", func() statedb.KVS { return hybrid() }},
	}
	for seed := int64(7); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		raws := buildRandomBlocks(t, r, rng, 6)
		wants, wantState := oracleChain(t, r, raws)

		for _, be := range backends {
			for _, workers := range workerCounts {
				eng := New(Config{Workers: workers, Policies: r.pols, Members: r.members, PrefetchWorkers: 4}, be.make(), nil)
				label := fmt.Sprintf("%s seed %d workers %d", be.name, seed, workers)
				checkChain(t, label, eng, raws, wants, wantState)
			}
		}
	}
}
