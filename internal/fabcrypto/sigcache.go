package fabcrypto

import (
	"container/list"
	"crypto/ecdsa"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// SigCache is a sharded, bounded LRU cache of ECDSA verification verdicts,
// the analog of Fabric MSP's signature cache. A verdict is keyed by
// SHA-256(uncompressed public key ‖ digest ‖ DER signature), so a given
// signature is verified at most once per process no matter how many peers,
// commit paths or replays see it — the dominant CPU cost the paper measures
// (Figure 3a) collapses to one hash plus a map lookup on every repeat.
//
// Both successful and failed verdicts are cached: a verdict is a pure
// function of (key, digest, signature), so replaying a corrupt envelope
// through a second validation path must — and does — yield the identical
// error without re-running the curve math.
//
// A nil *SigCache is valid and means "disabled": every call verifies
// directly. All methods are safe for concurrent use.
type SigCache struct {
	shards []sigShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type sigShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[[HashSize]byte]*list.Element // guarded by mu
	order    *list.List                       // guarded by mu; front = most recently used
}

type sigEntry struct {
	key [HashSize]byte
	err error // nil for a valid signature
}

// sigCacheShards is the fixed stripe count; selection uses the first key
// byte, which is uniformly distributed (SHA-256 output).
const sigCacheShards = 32

// NewSigCache creates a cache bounded to roughly `size` verdicts in total.
// size < 1 returns nil (the disabled cache).
func NewSigCache(size int) *SigCache {
	if size < 1 {
		return nil
	}
	perShard := size / sigCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &SigCache{shards: make([]sigShard, sigCacheShards)}
	for i := range c.shards {
		c.shards[i] = sigShard{
			capacity: perShard,
			entries:  make(map[[HashSize]byte]*list.Element, perShard),
			order:    list.New(),
		}
	}
	return c
}

// sigCacheKey hashes (public key, digest, signature) into the cache key.
func sigCacheKey(pub *ecdsa.PublicKey, digest, sig []byte) [HashSize]byte {
	var pt [1 + 2*ScalarSize]byte
	pt[0] = 4
	pub.X.FillBytes(pt[1 : 1+ScalarSize])
	pub.Y.FillBytes(pt[1+ScalarSize:])
	h := sha256.New()
	h.Write(pt[:])
	h.Write(digest)
	h.Write(sig)
	var key [HashSize]byte
	h.Sum(key[:0])
	return key
}

// VerifyDigest checks a DER signature over a precomputed digest, consulting
// the cache first. hit reports whether the verdict came from the cache (so
// callers can attribute timing honestly: a hit is a hash + lookup, not an
// ECDSA verification). A nil receiver always verifies directly.
//
// bmaclint:noalloc
func (c *SigCache) VerifyDigest(pub *ecdsa.PublicKey, digest, sig []byte) (err error, hit bool) {
	if c == nil {
		return VerifyDigest(pub, digest, sig), false
	}
	key := sigCacheKey(pub, digest, sig)
	if err, hit := c.lookup(&key); hit {
		return err, true
	}
	// Verify outside the shard lock: concurrent misses on the same shard
	// (even on the same key) may both pay the curve math, but the verdict
	// is deterministic, so the double insert is harmless.
	verr := VerifyDigest(pub, digest, sig)
	c.store(&key, verr)
	return verr, false
}

// lookup returns key's cached verdict and counts the hit or miss.
//
// bmaclint:noalloc
func (c *SigCache) lookup(key *[HashSize]byte) (err error, hit bool) {
	sh := &c.shards[key[0]%sigCacheShards]
	sh.mu.Lock()
	if el, ok := sh.entries[*key]; ok {
		sh.order.MoveToFront(el)
		err := el.Value.(*sigEntry).err
		sh.mu.Unlock()
		c.hits.Add(1)
		return err, true
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// store records a computed verdict, evicting the shard's oldest beyond its
// capacity.
func (c *SigCache) store(key *[HashSize]byte, verr error) {
	sh := &c.shards[key[0]%sigCacheShards]
	sh.mu.Lock()
	if el, ok := sh.entries[*key]; ok {
		sh.order.MoveToFront(el)
	} else {
		sh.entries[*key] = sh.order.PushFront(&sigEntry{key: *key, err: verr})
		if sh.order.Len() > sh.capacity {
			oldest := sh.order.Back()
			sh.order.Remove(oldest)
			delete(sh.entries, oldest.Value.(*sigEntry).key)
			c.evictions.Add(1)
		}
	}
	sh.mu.Unlock()
}

// Batch is a set of signature checks decided together: Add looks each one
// up in the cache and queues the misses, Run hands the queue to the
// verification engine as one batch (keytable.go) and stores the verdicts,
// Err reads them. The zero value is ready and uses no cache; a Batch is
// reused through Reset and is not safe for concurrent use.
type Batch struct {
	cache *SigCache
	errs  []error     // one verdict per Add
	reqs  []verifyReq // the checks Run has to compute: reqs[j] is check
	slots []int       // slots[j], cached under keys[j] unless that is zero
	keys  [][HashSize]byte
}

// Reset empties b and makes c (nil: none) the cache of its next checks.
func (b *Batch) Reset(c *SigCache) {
	b.cache, b.errs, b.reqs, b.slots, b.keys = c, b.errs[:0], b.reqs[:0], b.slots[:0], b.keys[:0]
}

// Add queues one check of a DER signature over a precomputed digest and
// returns its number. hit reports a verdict served from the cache. digest
// must stay untouched until Run returns.
func (b *Batch) Add(pub *ecdsa.PublicKey, digest, sig []byte) (i int, hit bool) {
	var key [HashSize]byte
	var err error
	if b.cache != nil {
		key = sigCacheKey(pub, digest, sig)
		err, hit = b.cache.lookup(&key)
	}
	if !hit {
		var parts SignatureParts
		if parts, err = DecodeDERToParts(sig); err == nil {
			i = b.AddParts(pub, digest, parts)
			b.keys[len(b.keys)-1] = key
			return i, false
		}
		if b.cache != nil {
			b.cache.store(&key, err)
		}
	}
	b.errs = append(b.errs, err)
	return len(b.errs) - 1, hit
}

// AddParts queues one check of a signature that is already split into its
// halves — what the BMac receiver's DER post-processor hands the block
// processor — and returns its number. The cache is keyed by the DER form, so
// such a check is always computed and its verdict is stored nowhere.
func (b *Batch) AddParts(pub *ecdsa.PublicKey, digest []byte, parts SignatureParts) int {
	b.reqs = append(b.reqs, verifyReq{pub: pub, digest: digest, parts: parts})
	b.slots, b.keys = append(b.slots, len(b.errs)), append(b.keys, [HashSize]byte{})
	b.errs = append(b.errs, nil)
	return len(b.errs) - 1
}

// Run decides every queued check, as one batch of the verification engine,
// and stores the verdicts in the cache. Call it once, after the last Add.
func (b *Batch) Run() {
	engine.verify(b.reqs)
	for j := range b.reqs {
		var err error
		if !b.reqs[j].valid {
			err = ErrVerifyFailed
		}
		b.errs[b.slots[j]] = err
		if b.keys[j] != ([HashSize]byte{}) {
			b.cache.store(&b.keys[j], err)
		}
	}
}

// Err returns check i's verdict, nil for a valid signature: final after
// Run, and at once for a hit.
func (b *Batch) Err(i int) error { return b.errs[i] }

// Stats reports cumulative hits, misses and evictions.
func (c *SigCache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// HitRate reports hits / (hits + misses), 0 when empty or nil.
func (c *SigCache) HitRate() float64 {
	if c == nil {
		return 0
	}
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len reports the number of cached verdicts.
func (c *SigCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.order.Len()
		sh.mu.Unlock()
	}
	return n
}
