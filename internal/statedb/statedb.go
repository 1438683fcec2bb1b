// Package statedb implements the versioned key-value state databases used by
// the validator peers.
//
// The software backends all satisfy the KVS interface (see kvs.go), so the
// commit engines are backend-agnostic:
//
//   - Store: a LevelDB-like software state database (in-memory with batched
//     writes and per-store locking), used by the software validator peer.
//     Reads can proceed in parallel, writes are applied in batches after the
//     mvcc check, matching Fabric's commit path.
//
//   - HybridKVS: the paper's §5 scaling proposal — a small fixed-capacity
//     LRU (the BRAM/URAM budget) in front of a host Store, with an optional
//     modeled host-access latency on misses.
//
//   - HardwareKVS: the fixed-capacity in-hardware key-value store of the
//     BMac block processor (BRAM/URAM backed, 8192 entries in the paper's
//     configuration). It supports read and write with versioned values and
//     an internal per-key locking discipline that disallows reading a key
//     while it is being written. It is deliberately NOT a KVS: the hybrid
//     database is how §5 scales past its capacity.
//
// Values carry a Version (block number, transaction number) so mvcc can
// compare the version observed at endorsement time with the current one.
package statedb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"bmac/internal/block"
)

var (
	// ErrNotFound reports a missing key.
	ErrNotFound = errors.New("statedb: key not found")
	// ErrFull reports an insert into a full hardware KVS.
	ErrFull = errors.New("statedb: hardware kvs is full")
)

// VersionedValue is a value plus the version of the transaction that wrote it.
type VersionedValue struct {
	Value   []byte
	Version block.Version
}

// Store is the software state database. The zero value is not usable;
// construct with NewStore.
type Store struct {
	mu   sync.RWMutex
	data map[string]VersionedValue // guarded by mu

	// Access counters are atomic: reads increment them while holding only
	// the read lock, and the parallel commit engine issues concurrent
	// version lookups. The count gate makes them zero-cost when disabled
	// (one predictable branch instead of a contended cache-line bump on
	// every Get in a load run).
	count  atomic.Bool
	reads  atomic.Int64
	writes atomic.Int64
}

// NewStore creates an empty software state database (access counting on).
func NewStore() *Store {
	s := &Store{data: make(map[string]VersionedValue)}
	s.count.Store(true)
	return s
}

// SetCountAccesses enables or disables the read/write access counters
// (enabled by default). Disabled counters cost one predicted branch per
// access — the hot-path configuration for load runs that never read them.
func (s *Store) SetCountAccesses(on bool) { s.count.Store(on) }

// Get returns the versioned value for key.
func (s *Store) Get(key string) (VersionedValue, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.count.Load() {
		s.reads.Add(1)
	}
	v, ok := s.data[key]
	if !ok {
		return VersionedValue{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return v, nil
}

// Version returns the current version of key. A missing key reports the
// zero version and ok=false: Fabric treats reads of absent keys as version
// (0,0), and an endorsement read of an absent key matches that.
func (s *Store) Version(key string) (block.Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.count.Load() {
		s.reads.Add(1)
	}
	v, ok := s.data[key]
	return v.Version, ok
}

// WriteBatch applies a set of writes atomically with the given version.
func (s *Store) WriteBatch(writes []block.KVWrite, ver block.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	count := s.count.Load()
	for _, w := range writes {
		val := make([]byte, len(w.Value))
		copy(val, w.Value)
		s.data[w.Key] = VersionedValue{Value: val, Version: ver}
		if count {
			s.writes.Add(1)
		}
	}
}

// Put inserts a single value (test/bootstrap helper).
func (s *Store) Put(key string, value []byte, ver block.Version) {
	s.WriteBatch([]block.KVWrite{{Key: key, Value: value}}, ver)
}

// Len reports the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// AccessCounts reports cumulative reads and writes (experiment metrics).
func (s *Store) AccessCounts() (reads, writes int) {
	return int(s.reads.Load()), int(s.writes.Load())
}

// MVCCCheck re-reads each read-set key and compares versions, returning nil
// when all match (the transaction is serializable) — step 3 of validation.
func (s *Store) MVCCCheck(reads []block.KVRead) error {
	return CheckMVCC(s.Version, reads)
}

// Snapshot returns a copy of the full database (for cross-validation of the
// software and hardware commit paths in tests).
func (s *Store) Snapshot() map[string]VersionedValue {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]VersionedValue, len(s.data))
	for k, v := range s.data {
		val := make([]byte, len(v.Value))
		copy(val, v.Value)
		out[k] = VersionedValue{Value: val, Version: v.Version}
	}
	return out
}

// HardwareKVS is the in-hardware state database: a fixed number of entries
// (bounded by BRAM/URAM), versioned values, and a locking mechanism that
// disallows reading a key currently being written (paper §3.3).
type HardwareKVS struct {
	mu       sync.Mutex
	capacity int
	data     map[string]VersionedValue // guarded by mu
	locked   map[string]bool           // guarded by mu
	reads    int                       // guarded by mu
	writes   int                       // guarded by mu
	lockWait int                       // guarded by mu; times a read had to wait on a locked key
}

// NewHardwareKVS creates a hardware KVS with the given entry capacity
// (8192 in the paper's configuration).
func NewHardwareKVS(capacity int) *HardwareKVS {
	return &HardwareKVS{
		capacity: capacity,
		data:     make(map[string]VersionedValue, capacity),
		locked:   make(map[string]bool),
	}
}

// Capacity returns the configured entry capacity.
func (h *HardwareKVS) Capacity() int { return h.capacity }

// Read returns the versioned value for key; ok=false when absent. If the
// key is write-locked the read spins until released, modeling the hardware
// interlock.
func (h *HardwareKVS) Read(key string) (VersionedValue, bool) {
	for {
		h.mu.Lock()
		if !h.locked[key] {
			v, ok := h.data[key]
			h.reads++
			h.mu.Unlock()
			return v, ok
		}
		h.lockWait++
		h.mu.Unlock()
		// Spin; hardware would stall the read port for a cycle.
	}
}

// Write stores value under key with the given version. It returns ErrFull
// when inserting a new key into a full store. It keeps copies of key and
// value, so either may alias a buffer the caller reuses, such as the
// envelope a BMac FIFO entry lends them from.
func (h *HardwareKVS) Write(key string, value []byte, ver block.Version) error {
	key = strings.Clone(key) // the map keeps the key of every assignment, even to a key it holds
	h.mu.Lock()
	_, exists := h.data[key]
	if !exists && len(h.data) >= h.capacity {
		h.mu.Unlock()
		return fmt.Errorf("%w (capacity %d)", ErrFull, h.capacity)
	}
	h.locked[key] = true
	h.mu.Unlock()

	val := make([]byte, len(value))
	copy(val, value)

	h.mu.Lock()
	h.data[key] = VersionedValue{Value: val, Version: ver}
	h.writes++
	delete(h.locked, key)
	h.mu.Unlock()
	return nil
}

// Version returns the current version of key.
func (h *HardwareKVS) Version(key string) (block.Version, bool) {
	v, ok := h.Read(key)
	return v.Version, ok
}

// Len reports the number of stored entries.
func (h *HardwareKVS) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.data)
}

// AccessCounts reports cumulative reads and writes.
func (h *HardwareKVS) AccessCounts() (reads, writes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.reads, h.writes
}

// Snapshot returns a copy of the contents.
func (h *HardwareKVS) Snapshot() map[string]VersionedValue {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]VersionedValue, len(h.data))
	for k, v := range h.data {
		val := make([]byte, len(v.Value))
		copy(val, v.Value)
		out[k] = VersionedValue{Value: val, Version: v.Version}
	}
	return out
}

// SnapshotsEqual compares two database snapshots; used by integration tests
// to prove the software and hardware commit paths produce identical state.
func SnapshotsEqual(a, b map[string]VersionedValue) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.Version != vb.Version || string(va.Value) != string(vb.Value) {
			return false
		}
	}
	return true
}
