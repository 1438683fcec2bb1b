package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"bmac/internal/block"
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

// buildRandomBlocks creates a chain of blocks with random fault injection
// (bad client signatures, corrupt/missing endorsements, stale reads) and
// simultaneously tracks the endorsement-time world state by replaying each
// block through the reference oracle.
func buildRandomBlocks(t *testing.T, r *rig, rng *rand.Rand, nBlocks int) [][]byte {
	t.Helper()
	world := make(map[string]block.Version) // committed version per key
	raws := make([][]byte, 0, nBlocks)
	ref := newOracle(r)

	for n := 0; n < nBlocks; n++ {
		nTxs := 1 + rng.Intn(10)
		rws := make([]block.RWSet, 0, nTxs)
		envs := make([]block.Envelope, 0, nTxs)
		for i := 0; i < nTxs; i++ {
			spec := block.TxSpec{
				Creator:   r.client,
				Chaincode: "smallbank",
				Channel:   "ch1",
				RWSet:     randomRWSet(rng, world),
				Endorsers: r.peers[:2],
			}
			switch rng.Intn(6) {
			case 0:
				spec.CorruptClientSig = true
			case 1:
				spec.CorruptEndorsementIdx = 1 + rng.Intn(2)
			case 2:
				spec.Endorsers = r.peers[:1] // policy failure (2of2)
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

// checkChain drives raws through eng — synchronously, or through
// Submit/Results so blocks genuinely overlap — and demands the oracle's
// verdict for every block, in order, and the oracle's final state.
func checkChain(t *testing.T, label string, eng *Engine, pipelined bool, raws [][]byte,
	wants []verdict, wantState map[string]statedb.VersionedValue) {
	t.Helper()
	defer eng.Close()
	if pipelined {
		for _, raw := range raws {
			eng.Submit(raw)
		}
	}
	for n, raw := range raws {
		var res *Result
		var err error
		if pipelined {
			o := <-eng.Results()
			res, err = o.Res, o.Err
		} else {
			res, err = eng.ValidateAndCommit(raw)
		}
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

// TestDifferentialRandomized is the pipeline counterpart of
// internal/core/differential_test.go: random multi-block chains with fault
// injection, validated by the oracle and by the engine in both shapes.
// Flags, commit hash and final state must be byte-identical. Run with -race
// to also shake out scheduler/cache races.
func TestDifferentialRandomized(t *testing.T) {
	r := newRig(t)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		raws := buildRandomBlocks(t, r, rng, 6)
		wants, wantState := oracleChain(t, r, raws)
		for _, sh := range shapes {
			eng := New(Config{Shape: sh.shape, Workers: 4, Policies: r.pols, SkipLedger: true},
				statedb.NewStore(), nil)
			checkChain(t, fmt.Sprintf("seed %d %s", seed, sh.name), eng, false, raws, wants, wantState)
		}
	}
}

// TestDifferentialBackends proves the backend-agnostic engine keeps Fabric
// semantics bit-identical across every statedb backend, in the Fabric v1.4
// shape and in the default shape with blocks in flight, with and without
// the prefetch stage: same flags, same commit hashes, same final state as
// the oracle. The hybrid backend uses a tiny cache (constant evictions)
// plus a modeled host latency so the slow path really runs.
func TestDifferentialBackends(t *testing.T) {
	r := newRig(t)
	backends := []struct {
		name     string
		make     func() statedb.KVS
		prefetch bool
	}{
		{"store", func() statedb.KVS { return statedb.NewStore() }, false},
		{"store+prefetch", func() statedb.KVS { return statedb.NewStore() }, true},
		{"sharded", func() statedb.KVS { return statedb.NewShardedStore(8) }, false},
		{"sharded+prefetch", func() statedb.KVS { return statedb.NewShardedStore(8) }, true},
		{"hybrid", func() statedb.KVS {
			return statedb.NewHybridKVS(3, statedb.NewStore())
		}, false},
		{"hybrid+prefetch", func() statedb.KVS {
			h := statedb.NewHybridKVS(3, statedb.NewStore())
			h.SetHostReadLatency(50 * time.Microsecond)
			return h
		}, true},
	}
	for seed := int64(7); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		raws := buildRandomBlocks(t, r, rng, 6)
		wants, wantState := oracleChain(t, r, raws)

		for _, be := range backends {
			label := fmt.Sprintf("%s seed %d", be.name, seed)
			seq := New(Config{Shape: Fabric14, Workers: 3, Policies: r.pols, SkipLedger: true}, be.make(), nil)
			checkChain(t, label+" fabric14", seq, false, raws, wants, wantState)

			eng := New(Config{
				Workers: 4, Policies: r.pols, SkipLedger: true,
				Prefetch: be.prefetch, PrefetchWorkers: 4,
			}, be.make(), nil)
			checkChain(t, label+" pipelined", eng, true, raws, wants, wantState)
		}
	}
}

// TestDifferentialPipelined feeds whole chains through Submit/Results so
// blocks genuinely overlap in the stage goroutines, in both shapes, and
// compares every outcome and the final state against the oracle.
func TestDifferentialPipelined(t *testing.T) {
	r := newRig(t)
	for seed := int64(100); seed <= 102; seed++ {
		rng := rand.New(rand.NewSource(seed))
		raws := buildRandomBlocks(t, r, rng, 8)
		wants, wantState := oracleChain(t, r, raws)
		for _, sh := range shapes {
			eng := New(Config{Shape: sh.shape, Workers: 4, Policies: r.pols, SkipLedger: true},
				statedb.NewStore(), nil)
			checkChain(t, fmt.Sprintf("seed %d %s", seed, sh.name), eng, true, raws, wants, wantState)
		}
	}
}

// TestSubmitMatchesSynchronousDrive pins that the two ways of driving the
// engine are the same four stage functions: the same chain fed through
// Submit/Results and through ValidateAndCommit gives identical flags, commit
// hashes and state hash, in each shape.
func TestSubmitMatchesSynchronousDrive(t *testing.T) {
	r := newRig(t)
	raws := buildRandomBlocks(t, r, rand.New(rand.NewSource(42)), 8)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := Config{Shape: sh.shape, Workers: 4, Policies: r.pols, SkipLedger: true}
			direct := New(cfg, statedb.NewStore(), nil)
			defer direct.Close()
			piped := New(cfg, statedb.NewStore(), nil)
			defer piped.Close()
			for _, raw := range raws {
				piped.Submit(raw)
			}
			for n, raw := range raws {
				want, err := direct.ValidateAndCommit(raw)
				if err != nil {
					t.Fatal(err)
				}
				got := <-piped.Results()
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				if !block.FlagsEqual(got.Res.Flags, want.Flags) || !bytes.Equal(got.Res.CommitHash, want.CommitHash) {
					t.Fatalf("block %d: Submit %v / %x, ValidateAndCommit %v / %x",
						n, got.Res.Flags, got.Res.CommitHash, want.Flags, want.CommitHash)
				}
			}
			if !bytes.Equal(statedb.SnapshotHash(direct.Store().Snapshot()), statedb.SnapshotHash(piped.Store().Snapshot())) {
				t.Fatal("state hash differs between Submit and ValidateAndCommit")
			}
		})
	}
}
