package statedb

import (
	"fmt"

	"bmac/internal/block"
)

// KVS is the versioned key-value contract shared by every state-database
// backend. The software validator, the parallel commit engine and the
// endorsement simulator all run against this interface, so a peer can be
// pointed at the in-memory Store or the paper's §5 hybrid hardware/host
// database (HybridKVS) without touching the validation code.
//
// The key of a read (Get, Version) may be lent: a string whose bytes alias
// a caller's buffer, such as a block's frame, that will be overwritten once
// the call's block is done. A backend that keeps such a key, as HybridKVS
// does when a miss promotes it, copies it first. The keys of a write (Put,
// WriteBatch) are the caller's to give: a backend may keep them as they are.
type KVS interface {
	// Get returns the versioned value for key; a missing key reports an
	// error wrapping ErrNotFound.
	Get(key string) (VersionedValue, error)
	// Version returns the current version of key; ok=false when absent
	// (Fabric's zero-version semantics apply to absent keys).
	Version(key string) (block.Version, bool)
	// Put inserts a single value.
	Put(key string, value []byte, ver block.Version)
	// WriteBatch applies the write set of one transaction with the given
	// version. Batches of different transactions may be applied
	// concurrently only when their key sets are disjoint (the commit
	// engines guarantee this).
	WriteBatch(writes []block.KVWrite, ver block.Version)
	// MVCCCheck re-reads each read-set key and compares versions,
	// returning nil when the transaction is serializable.
	MVCCCheck(reads []block.KVRead) error
	// Len reports the number of live keys.
	Len() int
	// AccessCounts reports cumulative reads and writes (experiment
	// metrics).
	AccessCounts() (reads, writes int)
	// SetCountAccesses enables or disables the access counters feeding
	// AccessCounts. Counting defaults to on (the experiment-friendly
	// setting); load-driving hot paths that never read the counters turn
	// it off, reducing each access's accounting cost to one predicted
	// branch. Backends whose counters are free by construction (e.g.
	// HybridKVS, which counts under a mutex it already holds) may treat
	// this as a no-op.
	SetCountAccesses(on bool)
	// Snapshot returns a copy of the authoritative database contents.
	Snapshot() map[string]VersionedValue
}

// Compile-time checks that every backend satisfies the interface.
var (
	_ KVS = (*Store)(nil)
	_ KVS = (*HybridKVS)(nil)
)

// CheckMVCC implements the Fabric mvcc rule over any version source: every
// read's endorsed version must equal the current one, and absent keys match
// only the zero version. Each backend's MVCCCheck delegates here so all of
// them agree byte-for-byte on conflict semantics (and error text).
func CheckMVCC(version func(key string) (block.Version, bool), reads []block.KVRead) error {
	for _, r := range reads {
		cur, ok := version(r.Key)
		if !ok {
			if r.Version != (block.Version{}) {
				return fmt.Errorf("statedb: mvcc conflict on %q: expected %v, key deleted", r.Key, r.Version)
			}
			continue
		}
		if cur != r.Version {
			return fmt.Errorf("statedb: mvcc conflict on %q: expected %v, have %v", r.Key, r.Version, cur)
		}
	}
	return nil
}
