package statedb

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"bmac/internal/block"
)

func TestHybridReadThroughAndPromotion(t *testing.T) {
	host := NewStore()
	host.Put("k", []byte("v"), block.Version{BlockNum: 2})
	h := NewHybridKVS(4, host)

	v, ok := h.Read("k") // miss -> host
	if !ok || string(v.Value) != "v" {
		t.Fatalf("read = %+v, %v", v, ok)
	}
	if _, ok := h.Read("k"); !ok { // now a hit
		t.Fatal("promoted entry missing")
	}
	hits, misses, _, hostReads, _ := h.Stats()
	if hits != 1 || misses != 1 || hostReads != 1 {
		t.Errorf("stats = %d/%d/%d", hits, misses, hostReads)
	}
}

// TestHybridWarmIsNotADemandMiss: a warm-up read promotes like any read
// and counts in hits/misses, but the miss it absorbs is not one the
// validation path waited for.
func TestHybridWarmIsNotADemandMiss(t *testing.T) {
	host := NewStore()
	host.Put("a", []byte("1"), block.Version{})
	host.Put("b", []byte("2"), block.Version{})
	h := NewHybridKVS(4, host)

	h.Warm("a")                    // miss, absorbed ahead of demand
	if _, ok := h.Read("a"); !ok { // hit
		t.Fatal("warmed entry missing")
	}
	if _, ok := h.Read("b"); !ok { // miss on the demand path
		t.Fatal("read-through failed")
	}
	hits, misses, _, hostReads, _ := h.Stats()
	if hits != 1 || misses != 2 || hostReads != 2 || h.DemandMisses() != 1 {
		t.Errorf("hits/misses/hostReads = %d/%d/%d, demand misses %d; want 1/2/2, 1", hits, misses, hostReads, h.DemandMisses())
	}
}

func TestHybridEviction(t *testing.T) {
	host := NewStore()
	h := NewHybridKVS(2, host)
	for i := 0; i < 5; i++ {
		if err := h.Write(fmt.Sprintf("k%d", i), []byte{byte(i)}, block.Version{BlockNum: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if h.CacheLen() != 2 {
		t.Errorf("cache len = %d, want 2", h.CacheLen())
	}
	_, _, evictions, _, _ := h.Stats()
	if evictions != 3 {
		t.Errorf("evictions = %d, want 3", evictions)
	}
	// Evicted keys are still readable (from the host), with correct versions.
	for i := 0; i < 5; i++ {
		v, ok := h.Read(fmt.Sprintf("k%d", i))
		if !ok || v.Version.BlockNum != uint64(i) {
			t.Errorf("k%d after eviction: %+v, %v", i, v, ok)
		}
	}
}

func TestHybridLRUOrder(t *testing.T) {
	h := NewHybridKVS(2, NewStore())
	h.Write("a", []byte("1"), block.Version{})
	h.Write("b", []byte("2"), block.Version{})
	h.Read("a")                                // a becomes MRU
	h.Write("c", []byte("3"), block.Version{}) // evicts b
	if h.CacheLen() != 2 {
		t.Fatalf("cache len = %d", h.CacheLen())
	}
	hits0, _, _, hostReads0, _ := h.Stats()
	h.Read("a") // should still be cached
	hits1, _, _, hostReads1, _ := h.Stats()
	if hits1 != hits0+1 || hostReads1 != hostReads0 {
		t.Error("a was evicted despite being MRU")
	}
}

func TestHybridNeverRejects(t *testing.T) {
	h := NewHybridKVS(1, NewStore())
	for i := 0; i < 100; i++ {
		if err := h.Write(fmt.Sprintf("k%d", i), []byte("v"), block.Version{}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

// TestHybridMatchesStore property-checks that a HybridKVS (any capacity)
// and a plain Store agree on every read after the same write sequence —
// the §5 requirement that spilling to the host is transparent to mvcc.
func TestHybridMatchesStore(t *testing.T) {
	type op struct {
		Key  uint8
		Val  uint8
		Read bool
	}
	f := func(capRaw uint8, ops []op) bool {
		capacity := int(capRaw%8) + 1
		ref := NewStore()
		h := NewHybridKVS(capacity, NewStore())
		for i, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%32)
			if o.Read {
				rv, refErr := ref.Get(key)
				hv, hok := h.Read(key)
				refOk := refErr == nil
				if refOk != hok {
					return false
				}
				if refOk && (string(rv.Value) != string(hv.Value) || rv.Version != hv.Version) {
					return false
				}
				continue
			}
			ver := block.Version{BlockNum: uint64(i)}
			ref.Put(key, []byte{o.Val}, ver)
			if err := h.Write(key, []byte{o.Val}, ver); err != nil {
				return false
			}
		}
		return SnapshotsEqual(ref.Snapshot(), h.Snapshot())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// cachedValue peeks at the hardware cache without touching the host or the
// LRU order (test-only).
func (h *HybridKVS) cachedValue(key string) (VersionedValue, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.cache[key]
	if !ok {
		return VersionedValue{}, false
	}
	return el.Value.(*hybridEntry).val, true
}

// TestHybridConcurrentWriteThrough runs concurrent writers (and readers)
// over a tiny cache and checks the write-through invariant: whatever value
// the hardware cache holds for a key, the host holds the same one — so a
// clean eviction can never resurrect stale state. Before the fix the host
// write happened outside the mutex, letting two writers reach the host in
// reverse order. Run with -race.
func TestHybridConcurrentWriteThrough(t *testing.T) {
	for round := 0; round < 20; round++ {
		host := NewStore()
		h := NewHybridKVS(2, host)
		const writers, iters, keys = 8, 50, 4
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					key := fmt.Sprintf("k%d", (w+i)%keys)
					val := []byte(fmt.Sprintf("w%d/i%d", w, i))
					if err := h.Write(key, val, block.Version{BlockNum: uint64(w), TxNum: uint64(i)}); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					val[0] = 'X' // callers may reuse buffers: value must be copied
					h.Read(key)  // interleave miss-path promotions
				}
			}(w)
		}
		wg.Wait()
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("k%d", k)
			hostV, err := host.Get(key)
			if err != nil {
				t.Fatalf("round %d: host missing %s: %v", round, key, err)
			}
			if hostV.Value[0] == 'X' {
				t.Fatalf("round %d: host saw caller's buffer mutation on %s", round, key)
			}
			if cached, ok := h.cachedValue(key); ok {
				if string(cached.Value) != string(hostV.Value) || cached.Version != hostV.Version {
					t.Fatalf("round %d: cache/host diverged on %s: cache=%q@%v host=%q@%v",
						round, key, cached.Value, cached.Version, hostV.Value, hostV.Version)
				}
			}
		}
	}
}

// TestHybridDefensiveCopyOnWrite pins the simple (single-writer) half of
// the satellite fix: the host must never alias the caller's slice.
func TestHybridDefensiveCopyOnWrite(t *testing.T) {
	host := NewStore()
	h := NewHybridKVS(1, host)
	buf := []byte("fresh")
	if err := h.Write("k", buf, block.Version{BlockNum: 1}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "STALE")
	hostV, err := host.Get("k")
	if err != nil || string(hostV.Value) != "fresh" {
		t.Fatalf("host value = %q, %v (want \"fresh\")", hostV.Value, err)
	}
	if v, ok := h.Read("k"); !ok || string(v.Value) != "fresh" {
		t.Fatalf("cache value = %q, %v", v.Value, ok)
	}
}

// TestHybridHostReadLatency checks that only cache misses pay the modeled
// host latency, and that concurrent misses overlap rather than serialize.
func TestHybridHostReadLatency(t *testing.T) {
	host := NewStore()
	for i := 0; i < 32; i++ {
		host.Put(fmt.Sprintf("k%d", i), []byte("v"), block.Version{})
	}
	h := NewHybridKVS(32, host)
	const lat = 2 * time.Millisecond
	h.SetHostReadLatency(lat)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, ok := h.Read(fmt.Sprintf("k%d", i)); !ok {
				t.Errorf("k%d missing", i)
			}
		}(i)
	}
	wg.Wait()
	if el := time.Since(start); el > 16*lat {
		t.Errorf("32 concurrent misses took %v; they must overlap, not serialize (32x%v)", el, lat)
	}

	start = time.Now()
	for i := 0; i < 32; i++ {
		h.Read(fmt.Sprintf("k%d", i)) // all hits now
	}
	if el := time.Since(start); el > lat {
		t.Errorf("cache hits paid host latency: %v", el)
	}
}

func BenchmarkHybridReadHit(b *testing.B) {
	h := NewHybridKVS(1024, NewStore())
	for i := 0; i < 512; i++ {
		h.Write(fmt.Sprintf("k%d", i), []byte("v"), block.Version{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(fmt.Sprintf("k%d", i%512))
	}
}

func BenchmarkHybridReadMiss(b *testing.B) {
	host := NewStore()
	for i := 0; i < 1<<16; i++ {
		host.Put(fmt.Sprintf("k%d", i), []byte("v"), block.Version{})
	}
	h := NewHybridKVS(16, host)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(fmt.Sprintf("k%d", i%(1<<16)))
	}
}
