package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

type sigFixture struct {
	pub    *ecdsa.PublicKey
	digest []byte
	sig    []byte
}

func makeSigs(t testing.TB, n int) []sigFixture {
	t.Helper()
	signer, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]sigFixture, n)
	for i := range out {
		digest := HashSlice([]byte(fmt.Sprintf("msg-%d", i)))
		sig, err := signer.SignDigest(digest)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sigFixture{pub: signer.Public(), digest: digest, sig: sig}
	}
	return out
}

func TestSigCacheHitMissAndVerdicts(t *testing.T) {
	c := NewSigCache(128)
	sigs := makeSigs(t, 3)

	for _, s := range sigs {
		if err, hit := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil || hit {
			t.Fatalf("first verify: err=%v hit=%v", err, hit)
		}
	}
	for _, s := range sigs {
		if err, hit := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil || !hit {
			t.Fatalf("second verify: err=%v hit=%v", err, hit)
		}
	}
	hits, misses, _ := c.Stats()
	if hits != 3 || misses != 3 {
		t.Fatalf("stats: hits=%d misses=%d, want 3/3", hits, misses)
	}

	// A failed verdict is cached too, and stays identical on the hit path.
	bad := append([]byte(nil), sigs[0].sig...)
	bad[len(bad)-1] ^= 0xff
	err1, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, bad)
	if err1 == nil || hit {
		t.Fatalf("corrupt sig: err=%v hit=%v", err1, hit)
	}
	err2, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, bad)
	if !hit || !errors.Is(err2, err1) && err2.Error() != err1.Error() {
		t.Fatalf("cached failure differs: %v vs %v (hit=%v)", err2, err1, hit)
	}

	// A different digest under the same key must not hit.
	other := HashSlice([]byte("other"))
	if err, hit := c.VerifyDigest(sigs[0].pub, other, sigs[0].sig); err == nil || hit {
		t.Fatalf("cross-digest lookup: err=%v hit=%v", err, hit)
	}
}

func TestSigCacheNilDisabled(t *testing.T) {
	var c *SigCache
	sigs := makeSigs(t, 1)
	for i := 0; i < 2; i++ {
		if err, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig); err != nil || hit {
			t.Fatalf("nil cache round %d: err=%v hit=%v", i, err, hit)
		}
	}
	if h, m, e := c.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("nil cache stats: %d/%d/%d", h, m, e)
	}
	if NewSigCache(0) != nil {
		t.Fatal("NewSigCache(0) should be nil (disabled)")
	}
}

// TestSigCacheEvictionCorrectness fills a tiny cache far past capacity and
// checks verdicts stay correct after eviction (an evicted signature is
// simply re-verified) and the cache never exceeds its bound.
func TestSigCacheEvictionCorrectness(t *testing.T) {
	c := NewSigCache(sigCacheShards) // one verdict per shard
	sigs := makeSigs(t, 80)
	for round := 0; round < 2; round++ {
		for _, s := range sigs {
			if err, _ := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if got := c.Len(); got > sigCacheShards {
		t.Fatalf("cache holds %d verdicts, capacity %d", got, sigCacheShards)
	}
	if _, _, ev := c.Stats(); ev == 0 {
		t.Fatal("expected evictions")
	}
}

// TestSigCacheConcurrent hammers one small cache from many goroutines with
// overlapping valid and corrupt signatures; run under -race. Every verdict
// must be correct regardless of hits, misses and evictions interleaving.
func TestSigCacheConcurrent(t *testing.T) {
	c := NewSigCache(64)
	sigs := makeSigs(t, 24)
	corrupt := make([][]byte, len(sigs))
	for i, s := range sigs {
		corrupt[i] = append([]byte(nil), s.sig...)
		corrupt[i][len(corrupt[i])-1] ^= 0x01
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				s := sigs[(g+it)%len(sigs)]
				if err, _ := c.VerifyDigest(s.pub, s.digest, s.sig); err != nil {
					t.Errorf("valid sig rejected: %v", err)
					return
				}
				if err, _ := c.VerifyDigest(s.pub, s.digest, corrupt[(g+it)%len(sigs)]); err == nil {
					t.Error("corrupt sig accepted")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSigCacheRingEvictsInInsertionOrder drives one shard of four verdicts
// whose keys share two buckets, so eviction unlinks entries from chains
// longer than one: at every step the four newest verdicts hit, with their
// own verdicts, and everything older misses.
func TestSigCacheRingEvictsInInsertionOrder(t *testing.T) {
	c := NewSigCache(4 * sigCacheShards)
	key := func(i int) *sigKey {
		var k sigKey
		binary.LittleEndian.PutUint32(k.digest[:], uint32(i%2*sigCacheShards+5)) // shard 5, bucket i%2
		k.digest[4] = byte(i)
		return &k
	}
	for i := 0; i < 12; i++ {
		c.store(key(i), i%3 == 0)
		for j := 0; j <= i; j++ {
			valid, hit := c.lookup(key(j))
			if hit != (j > i-4) || hit && valid != (j%3 == 0) {
				t.Fatalf("after storing %d: key %d hit %v valid %v", i, j, hit, valid)
			}
		}
		if n := c.Len(); n != min(i+1, 4) {
			t.Fatalf("after storing %d: %d verdicts", i, n)
		}
	}
	if _, _, ev := c.Stats(); ev != 12-4 {
		t.Fatalf("%d evictions, want 8", ev)
	}
}

// warmPoolKeys gives the fuzz pool keys their tables in the process-wide
// engine and returns the neighbours' signatures as DER.
func warmPoolKeys(t testing.TB) [][]byte {
	nb := neighbours()
	ders := make([][]byte, len(nb))
	for i := range nb {
		ders[i] = PartsToDER(nb[i].req.parts)
	}
	for u := 0; u <= PromoteAfter; u++ {
		for i := 0; i < fuzzKeys; i++ {
			if err := VerifyDigest(nb[i].req.pub, nb[i].req.digest, ders[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ders
}

// raceEnabled is set under the race detector, whose sync.Pool drops a share
// of what is put back: allocation counts through a pool are not steady there.
var raceEnabled bool

// TestVerifyAllocsOnlyInTheCurve: a signature check allocates nothing. A
// warm range through a Batch and its SigCache allocates nothing when every
// check hits, and when every check misses what the engine's batch alone
// does, which is nothing; a verdict stored at capacity and a SigCache hit
// allocate nothing.
func TestVerifyAllocsOnlyInTheCurve(t *testing.T) {
	const runs = 20
	nb, ders := neighbours(), warmPoolKeys(t)
	n := FullBatch
	cache := NewSigCache(4096)
	var b Batch
	rangeOf := func(digests [][]byte) {
		b.Reset(cache)
		for i := 0; i < n; i++ {
			b.Add(nb[i].req.pub, digests[i], ders[i])
		}
		b.Run()
	}
	digests := make([][]byte, n)
	for i := range digests {
		digests[i] = nb[i].req.digest
	}
	rangeOf(digests)
	if a := testing.AllocsPerRun(runs, func() { rangeOf(digests) }); a != 0 {
		t.Errorf("a range of cache hits: %v allocations", a)
	}

	full := NewSigCache(sigCacheShards)
	var k sigKey
	storeNext := func() {
		binary.LittleEndian.PutUint64(k.digest[8:], binary.LittleEndian.Uint64(k.digest[8:])+1)
		k.digest[0]++
		full.store(&k, true)
	}
	for full.Len() < sigCacheShards {
		storeNext()
	}
	_, _, before := full.Stats()
	if a := testing.AllocsPerRun(runs, storeNext); a != 0 {
		t.Errorf("store at capacity: %v allocations", a)
	}
	if _, _, ev := full.Stats(); ev-before != runs+1 {
		t.Errorf("%d of %d stores at capacity evicted", ev-before, runs+1)
	}

	if raceEnabled {
		t.Skip("the engine's scratch and SigCache.VerifyDigest's batch are pooled")
	}
	fresh := make([][][]byte, runs+1) // a digest set per run: every check misses
	for r := range fresh {
		fresh[r] = make([][]byte, n)
		for i := range fresh[r] {
			d := sha256.Sum256([]byte{byte(r), byte(i)})
			fresh[r][i] = d[:]
		}
	}
	reqs := make([]verifyReq, n)
	for i := range reqs {
		reqs[i] = nb[i].req
	}
	curve := testing.AllocsPerRun(runs, func() { engine.verify(reqs) })
	if curve != 0 {
		t.Errorf("the engine's batch of %d: %v allocations", n, curve)
	}
	miss := testing.AllocsPerRun(runs, func() {
		rangeOf(fresh[0])
		fresh = fresh[1:]
	})
	if miss != curve {
		t.Errorf("a range of cache misses: %v allocations, the engine's batch alone %v", miss, curve)
	}
	t.Logf("a range of %d cache misses: %v allocations", n, miss)

	s := makeSigs(t, 1)[0]
	if _, hit := cache.VerifyDigest(s.pub, s.digest, s.sig); hit {
		t.Fatal("first sight was a hit")
	}
	if a := testing.AllocsPerRun(runs, func() { cache.VerifyDigest(s.pub, s.digest, s.sig) }); a != 0 {
		t.Errorf("SigCache.VerifyDigest hit: %v allocations", a)
	}
}

func BenchmarkVerifyDigestCold(b *testing.B) {
	sigs := makeSigs(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSigCacheHit(b *testing.B) {
	sigs := makeSigs(b, 1)
	c := NewSigCache(64)
	c.VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err, hit := c.VerifyDigest(sigs[0].pub, sigs[0].digest, sigs[0].sig); err != nil || !hit {
			b.Fatalf("err=%v hit=%v", err, hit)
		}
	}
}

func BenchmarkCertCacheHit(b *testing.B) {
	signer, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	der, err := IssueCertificate(CertTemplate{CommonName: "peer0.bench", Organization: "Org1", SerialNumber: 1},
		signer.Public(), nil, signer.Private())
	if err != nil {
		b.Fatal(err)
	}
	c := NewCertCache(64)
	if _, err := c.PublicKeyFromCert(der); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.PublicKeyFromCert(der); err != nil {
			b.Fatal(err)
		}
	}
}
