package pipeline

import (
	"sync"

	"bmac/internal/block"
	"bmac/internal/statedb"
)

// MVCache is a multi-version state cache layered in front of any
// statedb.KVS backend. The commit engine publishes the write sets of decided
// blocks here *before* they are flushed to the backing store, so the mvcc
// stage of block n+1 can start while the state-database writes (and ledger
// commit) of block n are still in flight. Each key holds a short version
// chain ordered by (block, tx); lookups resolve "the state as of the end of
// block n-1" regardless of how far the flusher has fallen behind.
//
// Entries are retired after their block is flushed — by then the backing
// store answers with the same version, so the two sources are always
// consistent during the hand-off window.
type MVCache struct {
	store statedb.KVS

	mu     sync.RWMutex
	chains map[string][]mvEntry // guarded by mu; ascending by Version
}

type mvEntry struct {
	ver block.Version
	val []byte
}

// NewMVCache creates an empty cache over the given backing store.
func NewMVCache(store statedb.KVS) *MVCache {
	return &MVCache{store: store, chains: make(map[string][]mvEntry)}
}

// Store returns the backing state database.
func (c *MVCache) Store() statedb.KVS { return c.store }

// Put records a decided write of key at ver. Versions need not arrive in
// order (the scheduler decides transactions as dependencies resolve):
// insertion keeps each chain sorted.
func (c *MVCache) Put(key string, val []byte, ver block.Version) {
	cp := make([]byte, len(val))
	copy(cp, val)
	c.mu.Lock()
	chain := c.chains[key]
	// Common case: append at the tail (writes arrive roughly in order).
	i := len(chain)
	for i > 0 && ver.Less(chain[i-1].ver) {
		i--
	}
	if i > 0 && chain[i-1].ver == ver {
		chain[i-1].val = cp // same (block, tx) rewrote the key: last wins
	} else {
		chain = append(chain, mvEntry{})
		copy(chain[i+1:], chain[i:])
		chain[i] = mvEntry{ver: ver, val: cp}
	}
	c.chains[key] = chain
	c.mu.Unlock()
}

// Version resolves the version of key as observed by block blockNum before
// any of blockNum's own writes: the newest cached version from an earlier
// block, falling back to the backing store. ok=false means the key does not
// exist in that snapshot (Fabric's zero-version semantics apply).
func (c *MVCache) Version(key string, blockNum uint64) (block.Version, bool) {
	c.mu.RLock()
	chain := c.chains[key]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ver.BlockNum < blockNum {
			v := chain[i].ver
			c.mu.RUnlock()
			return v, true
		}
	}
	c.mu.RUnlock()
	return c.store.Version(key)
}

// Get resolves the value+version of key in the same snapshot as Version.
func (c *MVCache) Get(key string, blockNum uint64) (statedb.VersionedValue, bool) {
	c.mu.RLock()
	chain := c.chains[key]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ver.BlockNum < blockNum {
			vv := statedb.VersionedValue{Value: chain[i].val, Version: chain[i].ver}
			c.mu.RUnlock()
			return vv, true
		}
	}
	c.mu.RUnlock()
	vv, err := c.store.Get(key)
	return vv, err == nil
}

// MVCCCheck re-checks a read set against the snapshot visible to blockNum,
// mirroring statedb.Store.MVCCCheck against pre-block state: every read's
// endorsed version must equal the current one (absent keys match only the
// zero version).
func (c *MVCache) MVCCCheck(reads []block.KVRead, blockNum uint64) bool {
	for _, r := range reads {
		cur, ok := c.Version(r.Key, blockNum)
		if !ok {
			if r.Version != (block.Version{}) {
				return false
			}
			continue
		}
		if cur != r.Version {
			return false
		}
	}
	return true
}

// WrittenBy reports whether any transaction of blockNum with index < txNum
// has published a write of key — the intra-block read-conflict check, the
// scheduled equivalent of the in-order shape's written-in-block map.
// Only *valid* transactions publish writes, so a hit is always a conflict.
func (c *MVCache) WrittenBy(key string, blockNum, txNum uint64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	chain := c.chains[key]
	for i := len(chain) - 1; i >= 0; i-- {
		e := chain[i].ver
		if e.BlockNum < blockNum {
			return false // chains are sorted: nothing newer can match
		}
		if e.BlockNum == blockNum && e.TxNum < txNum {
			return true
		}
	}
	return false
}

// Retire drops every cached entry written by blocks <= blockNum. Call only
// after those blocks' writes have landed in the backing store.
func (c *MVCache) Retire(blockNum uint64) {
	c.mu.Lock()
	for key, chain := range c.chains {
		keep := chain[:0]
		for _, e := range chain {
			if e.ver.BlockNum > blockNum {
				keep = append(keep, e)
			}
		}
		if len(keep) == 0 {
			delete(c.chains, key)
		} else {
			c.chains[key] = keep
		}
	}
	c.mu.Unlock()
}

// Len reports the number of keys with live cached versions.
func (c *MVCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.chains)
}
