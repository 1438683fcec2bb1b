// Package intern is the one sharded, bounded LRU interning table behind
// the hot path's parse caches: fabcrypto's CertCache (parsed identity
// certificates) and validator's ParseCache (parsed envelopes). Both map the
// exact bytes of an input to a value computed once from them and shared
// read-only by every later caller.
package intern

import (
	"bytes"
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Shards is the number of independently locked LRU shards of a Table.
const Shards = 16

var seed = maphash.MakeSeed()

// Table interns values computed from byte inputs. Lookups are keyed by a
// seeded 64-bit maphash of the input — chosen over a cryptographic hash
// because hashing must cost less than the computation it saves — and
// VERIFIED by byte comparison against the stored input before a hit is
// served, so a hash collision degrades to a miss, never to a wrong value.
// Each of the Shards shards is an LRU bounded to its share of the table's
// size.
//
// On a miss the input is copied and the value computed from the private
// copy, so an entry retains only its own input's bytes, never the larger
// buffer (a whole block) the caller's slice may come from.
//
// A nil *Table is valid and means "disabled": every Get computes.
type Table[V any] struct {
	shards [Shards]shard[V]

	hits   atomic.Int64
	misses atomic.Int64
}

type shard[V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[uint64]*list.Element // guarded by mu
	order    *list.List               // guarded by mu; front = most recently used
}

type entry[V any] struct {
	key uint64
	in  []byte // private copy of the input this entry interns
	val V
}

// New creates a table bounded to roughly size entries: size/Shards per
// shard, at least one. size < 1 returns nil (the disabled table).
func New[V any](size int) *Table[V] {
	if size < 1 {
		return nil
	}
	perShard := max(size/Shards, 1)
	t := new(Table[V])
	for i := range t.shards {
		t.shards[i] = shard[V]{
			capacity: perShard,
			entries:  make(map[uint64]*list.Element, perShard),
			order:    list.New(),
		}
	}
	return t
}

// Get returns the value interned for in, computing it as compute(copy of
// in) on a miss; hit reports whether it was interned. compute must be pure:
// it runs outside the shard lock, so two goroutines missing on the same
// input may both run it, and its result is shared by every later hit and
// must be treated as read-only. A nil receiver computes from in directly.
//
// bmaclint:noalloc
func (t *Table[V]) Get(in []byte, compute func([]byte) V) (v V, hit bool) {
	if t == nil {
		return compute(in), false
	}
	key := maphash.Bytes(seed, in)
	sh := &t.shards[key%Shards]

	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*entry[V])
		if bytes.Equal(e.in, in) {
			sh.order.MoveToFront(el)
			v = e.val
			sh.mu.Unlock()
			t.hits.Add(1)
			return v, true
		}
		// 64-bit collision between different inputs: evict the old entry
		// and fall through to a recompute.
		sh.order.Remove(el)
		delete(sh.entries, key)
	}
	sh.mu.Unlock()
	t.misses.Add(1)

	own := append([]byte(nil), in...) // bmaclint:allow allocbound (miss path: entry owns a private copy of its input)
	v = compute(own)

	sh.mu.Lock()
	if _, ok := sh.entries[key]; !ok {
		sh.entries[key] = sh.order.PushFront(&entry[V]{key: key, in: own, val: v}) // bmaclint:allow allocbound (miss path: LRU node for the new entry)
		if sh.order.Len() > sh.capacity {
			oldest := sh.order.Back()
			sh.order.Remove(oldest)
			delete(sh.entries, oldest.Value.(*entry[V]).key)
		}
	}
	sh.mu.Unlock()
	return v, false
}

// Stats reports cumulative hits and misses.
func (t *Table[V]) Stats() (hits, misses int64) {
	if t == nil {
		return 0, 0
	}
	return t.hits.Load(), t.misses.Load()
}

// HitRate reports hits / (hits + misses), 0 when empty or nil.
func (t *Table[V]) HitRate() float64 {
	if t == nil {
		return 0
	}
	h, m := t.hits.Load(), t.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
