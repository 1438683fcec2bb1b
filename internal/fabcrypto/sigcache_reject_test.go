package fabcrypto

import (
	"fmt"
	"testing"
	"time"
)

// makeBadSigs returns n distinct invalid (pub, digest, sig) tuples: valid
// signatures with a flipped tail byte, the shape a signature-flood
// adversary replays at volume.
func makeBadSigs(t testing.TB, n int) []sigFixture {
	t.Helper()
	sigs := makeSigs(t, n)
	for i := range sigs {
		bad := append([]byte(nil), sigs[i].sig...)
		bad[len(bad)-1] ^= 0xff
		sigs[i].sig = bad
	}
	return sigs
}

// TestRejectWarmIsLookupFast is the failure-caching O(lookup) gate: the
// first rejection of a corrupt signature pays the ECDSA curve math, every
// repeat must be a DER parse + shard lookup. The warm path has no business
// being within an order of magnitude of the cold one; the test asserts a
// conservative 5x to stay robust under scheduler noise.
func TestRejectWarmIsLookupFast(t *testing.T) {
	const n = 64
	bad := makeBadSigs(t, n)
	c := NewSigCache(4096)

	cold := time.Duration(0)
	for _, s := range bad {
		start := time.Now()
		err, hit := c.VerifyDigest(s.pub, s.digest, s.sig)
		cold += time.Since(start)
		if err == nil || hit {
			t.Fatalf("cold reject: err=%v hit=%v", err, hit)
		}
	}
	warm := time.Duration(0)
	for round := 0; round < 4; round++ {
		warm = 0
		for _, s := range bad {
			start := time.Now()
			err, hit := c.VerifyDigest(s.pub, s.digest, s.sig)
			warm += time.Since(start)
			if err == nil || !hit {
				t.Fatalf("warm reject: err=%v hit=%v", err, hit)
			}
		}
		if warm*5 < cold {
			break // converged: repeats are lookups, not curve math
		}
	}
	if warm*5 >= cold {
		t.Errorf("warm rejects (%v for %d) not lookup-fast vs cold (%v): failure caching broken",
			warm, n, cold)
	}
	hits, misses, _ := c.Stats()
	if misses != n || hits < n {
		t.Errorf("stats hits=%d misses=%d, want %d misses (cold only) and >= %d hits", hits, misses, n, n)
	}
}

// BenchmarkRejectColdVsWarm reports the two rejection costs side by side:
// run with -bench 'RejectCold|RejectWarm' to see the O(curve math) vs
// O(lookup) gap the adversarial experiment's TPS floor depends on.
func BenchmarkRejectCold(b *testing.B) {
	bad := makeBadSigs(b, 1)
	s := bad[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh digest per iteration defeats the cache: every reject
		// pays the verification. (The signature stays invalid for any
		// digest it was not produced over.)
		digest := HashSlice([]byte(fmt.Sprintf("cold-%d", i)))
		if err := VerifyDigest(s.pub, digest, s.sig); err == nil {
			b.Fatal("corrupt signature verified")
		}
	}
}

func BenchmarkRejectWarm(b *testing.B) {
	bad := makeBadSigs(b, 1)
	s := bad[0]
	c := NewSigCache(1024)
	if err, _ := c.VerifyDigest(s.pub, s.digest, s.sig); err == nil {
		b.Fatal("corrupt signature verified")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err, hit := c.VerifyDigest(s.pub, s.digest, s.sig)
		if err == nil || !hit {
			b.Fatalf("warm reject: err=%v hit=%v", err, hit)
		}
	}
}
