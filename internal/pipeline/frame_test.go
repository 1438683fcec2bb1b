package pipeline

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/statedb"
	"bmac/internal/validator"
)

// TestFrameOwnership validates and commits blocks straight from their
// frames, over a Store and over a HybridKVS whose host holds keys the
// blocks read, then overwrites every frame with garbage. The engine reads
// each transaction as a view over its frame and lends read keys to the
// store, so this is where a key that aliases a frame would show: the
// store's contents must not change, and neither may the hybrid cache's
// keys — every key resident before still hits, and no other is resident.
func TestFrameOwnership(t *testing.T) {
	r := newRig(t)
	const txs = 8
	acct := func(i int) string { return "acct" + strconv.Itoa(i) }
	out := func(i int) string { return "out" + strconv.Itoa(i) }
	var frames [][]byte
	for num := range 2 {
		rws := make([]block.RWSet, txs)
		for i := range rws {
			rws[i] = block.RWSet{
				Reads:  []block.KVRead{{Key: acct(i)}},
				Writes: []block.KVWrite{{Key: out(i), Value: []byte("v" + strconv.Itoa(num))}},
			}
			if num == 1 {
				rws[i].Reads = append(rws[i].Reads, block.KVRead{Key: out(i), Version: block.Version{TxNum: uint64(i)}})
			}
		}
		frames = append(frames, block.Marshal(r.makeBlock(t, uint64(num), rws)))
	}

	for _, hybrid := range []bool{false, true} {
		t.Run(map[bool]string{false: "store", true: "hybrid"}[hybrid], func(t *testing.T) {
			host := statedb.NewStore()
			for i := range txs {
				host.Put(acct(i), []byte("100"), block.Version{})
			}
			var store statedb.KVS = host
			var hy *statedb.HybridKVS
			if hybrid {
				hy = statedb.NewHybridKVS(1<<10, host)
				store = hy
			}
			eng := New(Config{Workers: 2, Policies: r.pols, Members: r.members}, store, nil)
			defer eng.Close()
			for _, f := range frames {
				raw := append([]byte(nil), f...)
				res, err := eng.ValidateAndCommit(raw)
				if err != nil {
					t.Fatal(err)
				}
				if got := block.CountValid(res.Flags); got != txs {
					t.Fatalf("block %d: %d/%d valid, flags %v", res.BlockNum, got, txs, res.Flags)
				}
				for i := range raw {
					raw[i] = 0xa5
				}
			}

			snap := store.Snapshot()
			if len(snap) != 2*txs {
				t.Fatalf("%d keys committed, want %d", len(snap), 2*txs)
			}
			for i := range txs {
				if v := snap[out(i)]; string(v.Value) != "v1" || v.Version != (block.Version{BlockNum: 1, TxNum: uint64(i)}) {
					t.Errorf("%s = %q at %v after the frames were overwritten", out(i), v.Value, v.Version)
				}
				if v := snap[acct(i)]; string(v.Value) != "100" || v.Version != (block.Version{}) {
					t.Errorf("%s = %q at %v after the frames were overwritten", acct(i), v.Value, v.Version)
				}
			}
			if !hybrid {
				return
			}
			// Every committed key was read or written through the cache,
			// which never evicted: each must still be found under its name.
			resident := hy.CacheLen()
			hits, misses, evictions, _, _ := hy.Stats()
			if resident != len(snap) || evictions != 0 {
				t.Fatalf("%d keys resident, %d evicted; want %d and 0", resident, evictions, len(snap))
			}
			for key := range snap {
				hy.Read(key)
			}
			if h, m, _, _, _ := hy.Stats(); h-hits != len(snap) || m != misses {
				t.Errorf("reading the %d resident keys again: %d hits, %d misses; a cached key changed with its frame", len(snap), h-hits, m-misses)
			}
		})
	}

	// A rejected block (its orderer signature does not verify) starts the
	// prefetch's warm-ups too, over lent read keys: they must be done
	// before ValidateAndCommit returns, so every key they promoted is one
	// of the block's and still hits under its own name.
	t.Run("hybrid rejected block", func(t *testing.T) {
		rws := make([]block.RWSet, txs)
		for i := range rws {
			rws[i] = block.RWSet{Reads: []block.KVRead{{Key: acct(i)}}}
		}
		b := r.makeBlock(t, 0, rws)
		b.Metadata.Signature.Signature[10] ^= 0xff
		raw := block.Marshal(b)

		host := statedb.NewStore()
		for i := range txs {
			host.Put(acct(i), []byte("100"), block.Version{})
		}
		hy := statedb.NewHybridKVS(1<<10, host)
		hy.SetHostReadLatency(2 * time.Millisecond) // warm-ups still in flight if the engine does not wait
		eng := New(Config{Workers: 2, Policies: r.pols, Members: r.members}, hy, nil)
		if _, err := eng.ValidateAndCommit(raw); !errors.Is(err, validator.ErrBlockInvalid) {
			t.Fatalf("err = %v, want ErrBlockInvalid", err)
		}
		for i := range raw {
			raw[i] = 0xa5
		}
		eng.Close() // lets any warm-up still in flight finish

		if n := hy.CacheLen(); n != txs {
			t.Fatalf("%d keys resident, want the block's %d", n, txs)
		}
		hits, misses, _, _, _ := hy.Stats()
		for i := range txs {
			hy.Read(acct(i))
		}
		if h, m, _, _, _ := hy.Stats(); h-hits != txs || m != misses {
			t.Errorf("reading the block's %d keys: %d hits, %d misses; a promoted key changed with its frame", txs, h-hits, m-misses)
		}
	})
}
