package fabcrypto

import (
	"sync"
	"testing"
	"time"

	"bmac/internal/intern"
)

func makeCertDER(t *testing.T, cn string) []byte {
	t.Helper()
	signer, err := NewSigner()
	if err != nil {
		t.Fatal(err)
	}
	der, err := IssueCertificate(CertTemplate{
		CommonName:   cn,
		Organization: "Org1",
		SerialNumber: 1,
		NotBefore:    time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	}, signer.Public(), nil, signer.Private())
	if err != nil {
		t.Fatal(err)
	}
	return der
}

func TestCertCacheHitMissAndVerdicts(t *testing.T) {
	c := NewCertCache(64)
	der := makeCertDER(t, "peer0.org1")

	pub1, err := c.PublicKeyFromCert(der)
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := c.PublicKeyFromCert(der)
	if err != nil {
		t.Fatal(err)
	}
	if pub1 != pub2 {
		t.Fatal("cache did not intern the public key")
	}
	if want, _ := PublicKeyFromCert(der); !pub1.Equal(want) {
		t.Fatal("wrong public key")
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", h, m)
	}

	// Failed parses are cached verdicts too, and must match the uncached
	// error text.
	bad := append([]byte(nil), der...)
	bad[0] ^= 0xff
	_, wantErr := PublicKeyFromCert(bad)
	_, err1 := c.PublicKeyFromCert(bad)
	_, err2 := c.PublicKeyFromCert(bad)
	if wantErr == nil || err1 == nil || err2 == nil {
		t.Fatal("corrupt certificate parsed")
	}
	if err1.Error() != wantErr.Error() || err2.Error() != err1.Error() {
		t.Fatalf("cached parse error diverged: %v / %v / %v", wantErr, err1, err2)
	}
}

func TestCertCacheNilDisabled(t *testing.T) {
	var c *CertCache
	der := makeCertDER(t, "peer1.org1")
	if _, err := c.PublicKeyFromCert(der); err != nil {
		t.Fatal(err)
	}
	if NewCertCache(0) != nil {
		t.Fatal("NewCertCache(0) should be nil (disabled)")
	}
}

// TestCertCacheDoesNotAliasInput pins the copy-on-insert contract: mutating
// the caller's DER buffer after a lookup must not corrupt the cache.
func TestCertCacheDoesNotAliasInput(t *testing.T) {
	c := NewCertCache(64)
	der := makeCertDER(t, "peer2.org1")
	buf := append([]byte(nil), der...)
	if _, err := c.PublicKeyFromCert(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0
	}
	pub, err := c.PublicKeyFromCert(der)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := PublicKeyFromCert(der); !pub.Equal(want) {
		t.Fatal("cache entry corrupted by caller mutation")
	}
	if h, _ := c.Stats(); h != 1 {
		t.Fatalf("lookup after the mutation missed (hits=%d): the entry did not survive", h)
	}
}

// TestCertCacheConcurrent hammers one small cache from many goroutines
// with distinct certificates (forcing evictions); run under -race.
func TestCertCacheConcurrent(t *testing.T) {
	c := NewCertCache(intern.Shards) // one cert per shard
	ders := make([][]byte, 12)
	for i := range ders {
		ders[i] = makeCertDER(t, "peer.concurrent")
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				if _, err := c.PublicKeyFromCert(ders[(g+it)%len(ders)]); err != nil {
					t.Errorf("valid cert rejected: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
