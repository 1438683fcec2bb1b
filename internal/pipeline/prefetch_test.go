package pipeline

import (
	"strconv"
	"testing"
	"time"

	"bmac/internal/block"
	"bmac/internal/statedb"
)

// TestPrefetchWarmsHybridCache checks the warm-up path end to end: over a
// hybrid store, a block's distinct read-set keys are pulled from the host
// into the hybrid cache, the block still validates identically, and the
// engine reports the warm-up count.
func TestPrefetchWarmsHybridCache(t *testing.T) {
	r := newRig(t)
	host := statedb.NewStore()
	for i := 0; i < 16; i++ {
		host.Put("acct"+strconv.Itoa(i), []byte("100"), block.Version{})
	}
	hy := statedb.NewHybridKVS(64, host)
	hy.SetHostReadLatency(200 * time.Microsecond)

	eng := New(Config{Workers: 2, Policies: r.pols, Members: r.members}, hy, nil)
	defer eng.Close()

	// 8 txs, each reading two hot accounts (with overlap) and writing a
	// unique key: 16 distinct read keys in total.
	rws := make([]block.RWSet, 8)
	for i := range rws {
		rws[i] = block.RWSet{
			Reads: []block.KVRead{
				{Key: "acct" + strconv.Itoa(2*i)},
				{Key: "acct" + strconv.Itoa(2*i+1)},
			},
			Writes: []block.KVWrite{{Key: "out" + strconv.Itoa(i), Value: []byte("v")}},
		}
	}
	b := r.makeBlock(t, 0, rws)
	res, err := eng.ValidateAndCommit(block.Marshal(b))
	if err != nil {
		t.Fatal(err)
	}
	if got := block.CountValid(res.Flags); got != 8 {
		t.Fatalf("%d/8 valid, flags %v", got, res.Flags)
	}
	if got := eng.PrefetchedKeys(); got != 16 {
		t.Errorf("prefetched %d keys, want 16 (one per distinct read key)", got)
	}
	// The warm-ups happened: all 16 accounts are hardware-resident, so the
	// mvcc stage's version checks were cache hits.
	hits, _, _, hostReads, _ := hy.Stats()
	if hostReads != 16 {
		t.Errorf("host reads = %d, want 16 (prefetch only)", hostReads)
	}
	if hits < 16 {
		t.Errorf("cache hits = %d, want >= 16 (mvcc re-reads served from hardware)", hits)
	}
	if res.Breakdown.PrefetchWait < 0 {
		t.Errorf("negative prefetch wait %v", res.Breakdown.PrefetchWait)
	}
}

// TestPrefetchOffIssuesNoWarmups pins the in-memory store's case: it has no
// fast tier, so no prefetcher, no warm-up reads, PrefetchedKeys reports
// zero.
func TestPrefetchOffIssuesNoWarmups(t *testing.T) {
	r := newRig(t)
	eng := r.engine(2)
	defer eng.Close()
	b := r.makeBlock(t, 0, []block.RWSet{
		{Reads: []block.KVRead{{Key: "nope"}}, Writes: []block.KVWrite{w("a", "1")}},
	})
	if _, err := eng.ValidateAndCommit(block.Marshal(b)); err != nil {
		t.Fatal(err)
	}
	if eng.PrefetchedKeys() != 0 {
		t.Errorf("prefetched %d keys with prefetch off", eng.PrefetchedKeys())
	}
}

// TestPrefetchAbsentKeys checks warm-ups of keys the backend has never seen
// (reads endorsed at the zero version): they must not invent state or skew
// verdicts.
func TestPrefetchAbsentKeys(t *testing.T) {
	r := newRig(t)
	eng := New(Config{Workers: 2, Policies: r.pols, Members: r.members},
		statedb.NewHybridKVS(8, statedb.NewStore()), nil)
	defer eng.Close()

	b := r.makeBlock(t, 0, []block.RWSet{
		{Reads: []block.KVRead{{Key: "ghost"}}, Writes: []block.KVWrite{w("a", "1")}},
		{Reads: []block.KVRead{{Key: "ghost", Version: block.Version{BlockNum: 7}}},
			Writes: []block.KVWrite{w("b", "2")}},
	})
	res, err := eng.ValidateAndCommit(block.Marshal(b))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(block.Valid), byte(block.MVCCReadConflict)}
	if !block.FlagsEqual(res.Flags, want) {
		t.Fatalf("flags = %v, want %v", res.Flags, want)
	}
	if _, ok := eng.Store().Version("ghost"); ok {
		t.Error("prefetch materialized an absent key")
	}
}
