package fabcrypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

func newTestSigner(t *testing.T) *Signer {
	t.Helper()
	s, err := NewSigner()
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	return s
}

func TestSignVerify(t *testing.T) {
	s := newTestSigner(t)
	msg := []byte("validate this block")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if err := Verify(s.Public(), msg, sig); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	s := newTestSigner(t)
	sig, err := s.Sign([]byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s.Public(), []byte("tampered"), sig); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("err = %v, want ErrVerifyFailed", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	s1, s2 := newTestSigner(t), newTestSigner(t)
	msg := []byte("block data")
	sig, err := s1.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s2.Public(), msg, sig); !errors.Is(err, ErrVerifyFailed) {
		t.Errorf("err = %v, want ErrVerifyFailed", err)
	}
}

func TestVerifyRejectsGarbageDER(t *testing.T) {
	s := newTestSigner(t)
	if err := Verify(s.Public(), []byte("m"), []byte{0x30, 0x01, 0x02}); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestDERSignatureRoundTrip(t *testing.T) {
	r := big.NewInt(123456789)
	sv := big.NewInt(987654321)
	der, err := marshalDER(r, sv)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := DecodeDERToParts(der)
	if err != nil {
		t.Fatal(err)
	}
	if r2, s2 := new(big.Int).SetBytes(parts.R[:]), new(big.Int).SetBytes(parts.S[:]); r.Cmp(r2) != 0 || sv.Cmp(s2) != 0 {
		t.Errorf("round trip: (%v,%v) != (%v,%v)", r, sv, r2, s2)
	}
}

func TestUnmarshalDERRejectsTrailing(t *testing.T) {
	der, err := marshalDER(big.NewInt(1), big.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	der = append(der, 0x00)
	if _, err := DecodeDERToParts(der); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestUnmarshalDERRejectsNegative(t *testing.T) {
	der, err := marshalDER(big.NewInt(-5), big.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDERToParts(der); !errors.Is(err, ErrBadSignature) {
		t.Errorf("err = %v, want ErrBadSignature", err)
	}
}

func TestDecodePartsLossless(t *testing.T) {
	s := newTestSigner(t)
	msg := []byte("hardware representation")
	sig, err := s.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := DecodeDERToParts(sig)
	if err != nil {
		t.Fatal(err)
	}
	if back := PartsToDER(parts); !bytes.Equal(sig, back) {
		t.Error("DER -> parts -> DER is not lossless")
	}
	digest := Hash(msg)
	if !VerifyParts(s.Public(), digest[:], parts) {
		t.Error("VerifyParts rejected a valid signature")
	}
}

func TestVerifyPartsRejectsZero(t *testing.T) {
	s := newTestSigner(t)
	digest := Hash([]byte("m"))
	var zero SignatureParts
	if VerifyParts(s.Public(), digest[:], zero) {
		t.Error("VerifyParts accepted the zero signature")
	}
}

// TestLowSNormalization: every signature is low-S, verifies under
// crypto/ecdsa.VerifyASN1 and is the minimal DER of its halves. 64
// signatures take the n − s branch with probability 1 − 2⁻⁶⁴.
func TestLowSNormalization(t *testing.T) {
	s := newTestSigner(t)
	half := new(big.Int).Rsh(bigN, 1)
	for i := 0; i < 64; i++ {
		digest := Hash([]byte{byte(i)})
		sig, err := s.SignDigest(digest[:])
		if err != nil {
			t.Fatal(err)
		}
		parts, err := DecodeDERToParts(sig)
		if err != nil {
			t.Fatal(err)
		}
		if new(big.Int).SetBytes(parts.S[:]).Cmp(half) > 0 {
			t.Fatalf("signature %d has high S", i)
		}
		if !ecdsa.VerifyASN1(s.Public(), digest[:], sig) {
			t.Fatalf("signature %d does not verify under crypto/ecdsa", i)
		}
		if !bytes.Equal(PartsToDER(parts), sig) {
			t.Fatalf("signature %d is not the minimal DER of its halves: % x", i, sig)
		}
	}
}

// TestSignDigestAllocs bounds what signing allocates beyond crypto/ecdsa:
// nothing but the re-encoded DER, and that only for a high S.
func TestSignDigestAllocs(t *testing.T) {
	s := newTestSigner(t)
	digest := Hash([]byte("allocs"))
	base := testing.AllocsPerRun(50, func() { _, _ = ecdsa.SignASN1(rand.Reader, s.priv, digest[:]) })
	got := testing.AllocsPerRun(50, func() { _, _ = s.SignDigest(digest[:]) })
	t.Logf("crypto/ecdsa.SignASN1: %.2f allocs, SignDigest: %.2f", base, got)
	if got > base+1 {
		t.Fatalf("SignDigest allocates %.2f, crypto/ecdsa alone %.2f", got, base)
	}
}

func TestIssueAndParseCertificate(t *testing.T) {
	ca := newTestSigner(t)
	caDER, err := IssueCertificate(CertTemplate{
		CommonName:   "ca.org1.example.com",
		Organization: "Org1",
		IsCA:         true,
		SerialNumber: 1,
	}, ca.Public(), nil, ca.Private())
	if err != nil {
		t.Fatalf("issue CA cert: %v", err)
	}
	caCert, err := ParseCertificate(caDER)
	if err != nil {
		t.Fatal(err)
	}

	peer := newTestSigner(t)
	peerDER, err := IssueCertificate(CertTemplate{
		CommonName:   "peer0.org1.example.com",
		Organization: "Org1",
		SerialNumber: 2,
	}, peer.Public(), caCert, ca.Private())
	if err != nil {
		t.Fatalf("issue peer cert: %v", err)
	}

	// Identity certificates in Fabric are ~860 bytes; ours must be in a
	// realistic band for the Figure 9a bandwidth experiment to hold.
	if len(peerDER) < 500 || len(peerDER) > 1100 {
		t.Errorf("peer cert size %d bytes, want ~500-1100", len(peerDER))
	}

	pub, err := PublicKeyFromCert(peerDER)
	if err != nil {
		t.Fatal(err)
	}
	if pub.X.Cmp(peer.Public().X) != 0 || pub.Y.Cmp(peer.Public().Y) != 0 {
		t.Error("extracted public key does not match")
	}

	// A signature by the peer verifies under the extracted key.
	sig, err := peer.Sign([]byte("endorsement"))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pub, []byte("endorsement"), sig); err != nil {
		t.Errorf("verify with extracted key: %v", err)
	}
}

func TestStreamHasherMatchesHash(t *testing.T) {
	var sh StreamHasher
	sh.Write([]byte("block "))
	sh.Write([]byte("data"))
	want := Hash([]byte("block data"))
	if !bytes.Equal(sh.Sum(), want[:]) {
		t.Error("StreamHasher digest mismatch")
	}
	sh.Reset()
	sh.Write([]byte("x"))
	want2 := Hash([]byte("x"))
	if !bytes.Equal(sh.Sum(), want2[:]) {
		t.Error("StreamHasher reset broken")
	}
}

func TestDERPartsQuick(t *testing.T) {
	f := func(rRaw, sRaw [8]byte) bool {
		r := new(big.Int).SetBytes(rRaw[:])
		s := new(big.Int).SetBytes(sRaw[:])
		if r.Sign() == 0 || s.Sign() == 0 {
			return true // DER codec rejects zero by design
		}
		der, err := marshalDER(r, s)
		if err != nil {
			return false
		}
		parts, err := DecodeDERToParts(der)
		if err != nil {
			return false
		}
		return bytes.Equal(der, PartsToDER(parts))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkECDSASign(b *testing.B) {
	s, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkECDSAVerify measures the software ECDSA verification cost — the
// operation the paper identifies as ~40% of validation time (Figure 3a) and
// the unit the hardware replaces with a 360 us engine.
func BenchmarkECDSAVerify(b *testing.B) {
	s, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message")
	sig, err := s.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(s.Public(), msg, sig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSHA256Block(b *testing.B) {
	data := bytes.Repeat([]byte{0xab}, 4096)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Hash(data)
	}
}
