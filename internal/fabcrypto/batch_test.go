package fabcrypto

import (
	"crypto/ecdsa"
	"fmt"
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
// warm range through a Batch allocates what the engine's batch alone does,
// which is nothing.
func TestVerifyAllocsOnlyInTheCurve(t *testing.T) {
	if raceEnabled {
		t.Skip("the engine's scratch is pooled")
	}
	const runs = 20
	nb, ders := neighbours(), warmPoolKeys(t)
	n := FullBatch
	reqs := make([]verifyReq, n)
	for i := range reqs {
		reqs[i] = nb[i].req
	}
	curve := testing.AllocsPerRun(runs, func() { engine.verify(reqs) })
	if curve != 0 {
		t.Errorf("the engine's batch of %d: %v allocations", n, curve)
	}
	var b Batch
	rng := testing.AllocsPerRun(runs, func() {
		b.Reset()
		for i := 0; i < n; i++ {
			b.Add(nb[i].req.pub, nb[i].req.digest, ders[i])
		}
		b.Run()
	})
	if rng != curve {
		t.Errorf("a range through a Batch: %v allocations, the engine's batch alone %v", rng, curve)
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
