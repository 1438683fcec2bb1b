package fabcrypto

import (
	"crypto/ecdsa"
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// SigCache is a sharded, bounded cache of ECDSA verification verdicts, the
// analog of Fabric MSP's signature cache: a signature is verified at most
// once per process however many peers, paths or replays see it. A verdict
// is keyed by its request tuple — X ‖ Y, digest, r, s, which strict DER
// names exactly as the encoding does — compared in full on a hit and never
// hashed: bytes of the digest and of r, uniform already, pick shard and
// bucket. Each shard is a fixed ring of pointer-free entries overwritten in
// insertion order, so storing allocates nothing: the cache's job is a repeat
// within a few blocks (a second peer or path, a re-fetched block), not a
// history. Failed verdicts are cached too: a verdict is a pure function of
// the tuple, so a corrupt envelope replayed through a second path gets the
// identical error without the curve math.
//
// A nil *SigCache is valid and means "disabled": every call verifies
// directly. All methods are safe for concurrent use.
type SigCache struct {
	shards []sigShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// sigKey is a verification request as the cache holds it.
type sigKey struct {
	pt     pointKey
	digest [HashSize]byte
	parts  SignatureParts
}

// cacheKey returns rq's key; ok is false for a request the cache does not
// hold: a key the engine leaves to crypto/ecdsa, a digest that is not 32
// bytes.
func (rq *verifyReq) cacheKey() (k sigKey, ok bool) {
	if !rq.eligible || len(rq.digest) != HashSize {
		return k, false
	}
	return sigKey{pt: rq.pt, digest: [HashSize]byte(rq.digest), parts: rq.parts}, true
}

// slot selects the shard (its low bits) and the bucket (the bits above).
func (k *sigKey) slot() uint32 {
	return binary.LittleEndian.Uint32(k.digest[:4]) ^ binary.LittleEndian.Uint32(k.parts.R[ScalarSize-4:])
}

type sigShard struct {
	mu      sync.Mutex
	ring    []sigEntry // guarded by mu; fixed, written in insertion order
	next    int        // guarded by mu; the slot of the next verdict: the oldest one's once the ring is full
	buckets []int32    // guarded by mu; 1 + the ring index of each bucket's newest entry, 0 for none
}

type sigEntry struct {
	key   sigKey
	older int32 // 1 + the ring index of the bucket's next older entry, 0 for none
	used  bool
	valid bool
}

// sigCacheShards is the fixed stripe count.
const sigCacheShards = 32

// NewSigCache creates a cache bounded to roughly `size` verdicts in total.
// size < 1 returns nil (the disabled cache).
func NewSigCache(size int) *SigCache {
	if size < 1 {
		return nil
	}
	perShard := max(size/sigCacheShards, 1)
	buckets := 1
	for buckets < perShard {
		buckets <<= 1
	}
	c := &SigCache{shards: make([]sigShard, sigCacheShards)}
	for i := range c.shards {
		c.shards[i] = sigShard{ring: make([]sigEntry, perShard), buckets: make([]int32, buckets)}
	}
	return c
}

func (c *SigCache) shard(k *sigKey) *sigShard { return &c.shards[k.slot()%sigCacheShards] }

// bucketLocked returns the head of k's bucket in sh.
func (sh *sigShard) bucketLocked(k *sigKey) *int32 {
	return &sh.buckets[k.slot()/sigCacheShards&uint32(len(sh.buckets)-1)]
}

// findLocked returns k's entry, or nil, and the head of its bucket.
func (sh *sigShard) findLocked(k *sigKey) (e *sigEntry, head *int32) {
	head = sh.bucketLocked(k)
	for i := *head; i != 0; i = sh.ring[i-1].older {
		if e := &sh.ring[i-1]; e.key == *k {
			return e, head
		}
	}
	return nil, head
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// VerifyDigest checks a DER signature over a precomputed digest, consulting
// the cache first: a batch of one. hit reports whether the verdict came from
// the cache (so callers can attribute timing honestly: a hit is a DER parse
// and a lookup, not an ECDSA verification). A nil receiver always verifies
// directly.
//
// bmaclint:noalloc
func (c *SigCache) VerifyDigest(pub *ecdsa.PublicKey, digest, sig []byte) (err error, hit bool) {
	b := batchPool.Get().(*Batch)
	b.Reset(c)
	i, hit := b.Add(pub, digest, sig)
	b.Run()
	err = b.Err(i)
	batchPool.Put(b)
	return err, hit
}

// lookup returns k's cached verdict and counts the hit or miss.
//
// bmaclint:noalloc
func (c *SigCache) lookup(k *sigKey) (valid, hit bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	if e, _ := sh.findLocked(k); e != nil {
		valid, hit = e.valid, true
	}
	sh.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return valid, hit
}

// store records a computed verdict in the shard's next slot, overwriting the
// shard's oldest verdict once the ring is full. Two concurrent misses may both
// have paid the curve math; the verdict is the same, and the first one stays.
//
// bmaclint:noalloc
func (c *SigCache) store(k *sigKey, valid bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	if e, head := sh.findLocked(k); e == nil {
		e = &sh.ring[sh.next]
		if e.used {
			// The oldest entry of the shard is the oldest of its bucket: the
			// last link of its chain.
			p := sh.bucketLocked(&e.key)
			for *p != int32(sh.next+1) {
				p = &sh.ring[*p-1].older
			}
			*p = e.older
			c.evictions.Add(1)
		}
		*e = sigEntry{key: *k, older: *head, used: true, valid: valid}
		*head = int32(sh.next + 1)
		sh.next = (sh.next + 1) % len(sh.ring)
	}
	sh.mu.Unlock()
}

// Batch is a set of signature checks decided together. Add parses a
// signature to its request tuple, AddParts takes one as the BMac receiver's
// DER post-processor made it; both resolve the key once per batch, look the
// tuple up in the cache and queue a miss. Run verifies the queue as one
// batch of the engine (keytable.go) and stores the verdicts; Err reads them.
// The zero value is ready and uses no cache; a Batch is reused through Reset
// and is not safe for concurrent use.
type Batch struct {
	cache *SigCache
	errs  []error     // one verdict per check
	reqs  []verifyReq // the checks Run has to compute: reqs[j] is check slots[j]
	slots []int
	keys  []verifyKey // the batch's keys, resolved
}

// Reset empties b and makes c (nil: none) the cache of its next checks.
func (b *Batch) Reset(c *SigCache) {
	b.cache, b.errs, b.reqs, b.slots, b.keys = c, b.errs[:0], b.reqs[:0], b.slots[:0], b.keys[:0]
}

// Add queues one check of a DER signature over a precomputed digest and
// returns its number. hit reports a verdict served from the cache; a
// malformed signature is ErrBadSignature at once and no hit. digest must
// stay untouched until Run returns.
//
// bmaclint:noalloc
func (b *Batch) Add(pub *ecdsa.PublicKey, digest, sig []byte) (i int, hit bool) {
	parts, err := DecodeDERToParts(sig)
	if err != nil {
		b.errs = append(b.errs, err)
		return len(b.errs) - 1, false
	}
	return b.AddParts(pub, digest, parts)
}

// AddParts queues one check of a signature that is already split into its
// halves — what the BMac receiver's DER post-processor hands the block
// processor — and returns its number, like Add.
//
// bmaclint:noalloc
func (b *Batch) AddParts(pub *ecdsa.PublicKey, digest []byte, parts SignatureParts) (i int, hit bool) {
	rq := verifyReq{verifyKey: b.resolve(pub), digest: digest, parts: parts}
	if b.cache != nil {
		if k, ok := rq.cacheKey(); ok {
			if valid, hit := b.cache.lookup(&k); hit {
				b.errs = append(b.errs, verdict(valid))
				return len(b.errs) - 1, true
			}
		}
	}
	b.reqs, b.slots = append(b.reqs, rq), append(b.slots, len(b.errs))
	b.errs = append(b.errs, nil)
	return len(b.errs) - 1, false
}

// resolve returns pub resolved for the engine, once per key and batch.
func (b *Batch) resolve(pub *ecdsa.PublicKey) verifyKey {
	for i := range b.keys {
		if b.keys[i].pub == pub {
			return b.keys[i]
		}
	}
	b.keys = append(b.keys, resolveKey(pub))
	return b.keys[len(b.keys)-1]
}

// Run decides every queued check, as one batch of the verification engine,
// and stores the verdicts in the cache. Call it once, after the last Add.
func (b *Batch) Run() {
	engine.verify(b.reqs)
	for j := range b.reqs {
		rq := &b.reqs[j]
		b.errs[b.slots[j]] = verdict(rq.valid)
		if b.cache != nil {
			if k, ok := rq.cacheKey(); ok {
				b.cache.store(&k, rq.valid)
			}
		}
	}
}

// Err returns check i's verdict, nil for a valid signature: final after
// Run, and at once for a hit or a malformed signature.
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
		if sh.ring[sh.next].used {
			n += len(sh.ring)
		} else {
			n += sh.next
		}
		sh.mu.Unlock()
	}
	return n
}
