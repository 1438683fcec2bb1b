package statedb

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"time"

	"bmac/internal/block"
)

// HybridKVS implements the paper's §5 database-scaling proposal: "use the
// in-hardware database for a small amount of actively accessed data, while
// keeping a persistent database on the host CPU". It is a fixed-capacity
// LRU cache (the BRAM/URAM budget) in front of a software Store (the host
// database reached over PCIe); reads miss to the host, writes go through
// to both, evictions are clean (the host always has the latest value).
//
// The paper argues the added host-access latency in tx_mvcc_commit stays
// hidden under the vscc stage (Figure 12c); SetHostReadLatency models that
// PCIe/host round trip so the pipeline's prefetch stage can demonstrate the
// hiding in software: warm-up reads absorb the misses while vscc runs.
type HybridKVS struct {
	mu       sync.Mutex
	capacity int
	cache    map[string]*list.Element // guarded by mu
	order    *list.List               // guarded by mu; front = most recently used
	host     *Store

	// hostLatency is the modeled one-way-plus-return host access cost paid
	// by a cache-miss read. It is served OUTSIDE the mutex so concurrent
	// misses (and prefetch warm-ups) overlap, like independent PCIe reads.
	hostLatency time.Duration

	hits       int
	misses     int
	warmMisses int // the misses among them that Warm absorbed ahead of demand
	evictions  int
	hostReads  int
	hostWrites int
}

type hybridEntry struct {
	key string
	val VersionedValue
}

// NewHybridKVS creates a hybrid database with the given in-hardware entry
// capacity backed by host.
func NewHybridKVS(capacity int, host *Store) *HybridKVS {
	if capacity < 1 {
		capacity = 1
	}
	return &HybridKVS{
		capacity: capacity,
		cache:    make(map[string]*list.Element, capacity),
		order:    list.New(),
		host:     host,
	}
}

// SetHostReadLatency sets the modeled host-access latency paid by each
// cache-miss read (0 disables the model). Call before sharing the store
// across goroutines.
func (h *HybridKVS) SetHostReadLatency(d time.Duration) { h.hostLatency = d }

// Capacity returns the configured in-hardware entry capacity.
func (h *HybridKVS) Capacity() int { return h.capacity }

// SetCountAccesses is a no-op: the hybrid database's hit/miss/host counters
// double as its cache telemetry and are maintained under a mutex it already
// holds, so disabling them would save nothing.
func (h *HybridKVS) SetCountAccesses(bool) {}

// Read returns the versioned value for key, consulting the hardware cache
// first and the host store on a miss (promoting the entry).
func (h *HybridKVS) Read(key string) (VersionedValue, bool) { return h.read(key, false) }

// Warm is Read for a prefetch stage: the value is discarded, and a miss is
// also booked as absorbed ahead of demand, so that DemandMisses is what
// the validation path itself still waited for.
func (h *HybridKVS) Warm(key string) { h.read(key, true) }

func (h *HybridKVS) read(key string, warm bool) (VersionedValue, bool) {
	h.mu.Lock()
	if el, ok := h.cache[key]; ok {
		h.hits++
		h.order.MoveToFront(el)
		v := el.Value.(*hybridEntry).val
		h.mu.Unlock()
		return v, true
	}
	h.misses++
	if warm {
		h.warmMisses++
	}
	h.mu.Unlock()

	// Pay the modeled host round trip outside the mutex so concurrent
	// misses — in particular the prefetch stage's warm-up reads — overlap.
	if h.hostLatency > 0 {
		time.Sleep(h.hostLatency)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	// Re-check under the lock: a concurrent miss may have promoted the key
	// already, or a writer committed a newer value while we were away. A
	// promoted key is served from the cache without touching the host, so
	// hostReads counts only actual host accesses.
	if el, ok := h.cache[key]; ok {
		h.order.MoveToFront(el)
		return el.Value.(*hybridEntry).val, true
	}
	// The host read itself happens under the mutex: Write updates cache and
	// host atomically with respect to it, so the promoted value can never be
	// older than what the cache was told.
	h.hostReads++
	v, err := h.host.Get(key)
	if err != nil {
		return VersionedValue{}, false
	}
	h.insertLocked(strings.Clone(key), v) // a read's key may be lent (see KVS)
	return v, true
}

// Get is Read with Store-compatible error reporting.
func (h *HybridKVS) Get(key string) (VersionedValue, error) {
	v, ok := h.Read(key)
	if !ok {
		return VersionedValue{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

// Version returns the current version of key.
func (h *HybridKVS) Version(key string) (block.Version, bool) {
	v, ok := h.Read(key)
	return v.Version, ok
}

// Write stores value in both the cache and the host store. Unlike the pure
// HardwareKVS, a hybrid database never rejects for capacity: it evicts.
//
// The write-through happens while the mutex is held: if it did not, two
// concurrent writers could update the cache in one order and the host in
// the other, and after a clean eviction a read would resurrect the stale
// host value. The value is defensively copied before either side sees it.
func (h *HybridKVS) Write(key string, value []byte, ver block.Version) error {
	val := make([]byte, len(value))
	copy(val, value)
	vv := VersionedValue{Value: val, Version: ver}

	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.cache[key]; ok {
		el.Value.(*hybridEntry).val = vv
		h.order.MoveToFront(el)
	} else {
		h.insertLocked(key, vv)
	}
	h.hostWrites++
	h.host.Put(key, val, ver)
	return nil
}

// Put implements KVS (Write never fails).
func (h *HybridKVS) Put(key string, value []byte, ver block.Version) {
	_ = h.Write(key, value, ver) // bmaclint:allow errdiscard (write-through to the memory tier never fails)
}

// WriteBatch applies a write set with the given version.
func (h *HybridKVS) WriteBatch(writes []block.KVWrite, ver block.Version) {
	for _, w := range writes {
		_ = h.Write(w.Key, w.Value, ver) // bmaclint:allow errdiscard (write-through to the memory tier never fails)
	}
}

// MVCCCheck re-reads each read-set key and compares versions.
func (h *HybridKVS) MVCCCheck(reads []block.KVRead) error {
	return CheckMVCC(h.Version, reads)
}

// insertLocked adds an entry, evicting the LRU entry when full.
func (h *HybridKVS) insertLocked(key string, vv VersionedValue) {
	if len(h.cache) >= h.capacity {
		back := h.order.Back()
		if back != nil {
			h.order.Remove(back)
			delete(h.cache, back.Value.(*hybridEntry).key)
			h.evictions++
		}
	}
	h.cache[key] = h.order.PushFront(&hybridEntry{key: key, val: vv})
}

// CacheLen reports the number of entries resident in hardware.
func (h *HybridKVS) CacheLen() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.cache)
}

// Len reports the number of keys in the authoritative (host) database.
func (h *HybridKVS) Len() int { return h.host.Len() }

// AccessCounts reports cumulative reads (cache hits + misses) and writes.
func (h *HybridKVS) AccessCounts() (reads, writes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hits + h.misses, h.hostWrites
}

// Stats reports cache behaviour.
func (h *HybridKVS) Stats() (hits, misses, evictions, hostReads, hostWrites int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hits, h.misses, h.evictions, h.hostReads, h.hostWrites
}

// DemandMisses reports the cache misses paid by Read callers — the host
// round trips left on the validation path — leaving out those Warm absorbed.
func (h *HybridKVS) DemandMisses() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.misses - h.warmMisses
}

// HitRate reports the fraction of reads served from the hardware cache.
func (h *HybridKVS) HitRate() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hits+h.misses == 0 {
		return 0
	}
	return float64(h.hits) / float64(h.hits+h.misses)
}

// Snapshot returns the authoritative (host) contents.
func (h *HybridKVS) Snapshot() map[string]VersionedValue {
	return h.host.Snapshot()
}
