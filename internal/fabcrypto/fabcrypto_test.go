package fabcrypto

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"encoding/asn1"
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
// signatures over 64 distinct digests take the n − s branch with
// probability 1 − 2⁻⁶⁴; the digests must stay distinct, because one key
// signing one digest 64 times now gives one signature.
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

// TestSignDigestAllocs bounds what a signature allocates, on each k·G path:
// on the lanes' comb only the DER, at most 2; through crypto/ecdh also its
// key and point for R = k·G and the nonce's bytes handed to it, at most 10;
// crypto/ecdsa's signer takes 63.
func TestSignDigestAllocs(t *testing.T) {
	s := newTestSigner(t)
	digest := Hash([]byte("allocs"))
	base := testing.AllocsPerRun(50, func() { _, _ = s.priv.Sign(nil, digest[:], crypto.SHA256) })
	onEachBasePath(func(path string) {
		limit := 10.0
		if path == "lanes" {
			limit = 2
		}
		got := testing.AllocsPerRun(50, func() { _, _ = s.SignDigest(digest[:]) })
		t.Logf("crypto/ecdsa.(*PrivateKey).Sign: %.2f allocs, SignDigest on %s: %.2f", base, path, got)
		if got > limit {
			t.Errorf("SignDigest on %s allocates %.2f, want at most %.0f", path, got, limit)
		}
	})
}

// TestSignDigestRFC6979 pins SignDigest to RFC 6979 A.2.5's P-256/SHA-256
// vectors (as crypto/ecdsa's TestRFC6979 carries them), signed by a Signer
// holding the RFC's private key. "sample" signs to a high s, so SignDigest
// must return r and n − s; "test" signs to a low s, which must come back
// unchanged. Both low-S branches, with nothing left to chance, on each k·G
// path.
func TestSignDigestRFC6979(t *testing.T) {
	hexInt := func(h string) *big.Int {
		v, ok := new(big.Int).SetString(h, 16)
		if !ok {
			t.Fatalf("bad hex %q", h)
		}
		return v
	}
	s := &Signer{priv: &ecdsa.PrivateKey{
		D: hexInt("C9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721"),
		PublicKey: ecdsa.PublicKey{
			Curve: elliptic.P256(),
			X:     hexInt("60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6"),
			Y:     hexInt("7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299"),
		},
	}}
	half := new(big.Int).Rsh(bigN, 1)
	for _, v := range []struct {
		msg, r, s string
		highS     bool
	}{
		{"sample", "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716",
			"F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8", true},
		{"test", "F1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367",
			"019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083", false},
	} {
		r, sv := hexInt(v.r), hexInt(v.s)
		if (sv.Cmp(half) > 0) != v.highS {
			t.Fatalf("%q: the vector's s is not on the branch it is meant to test", v.msg)
		}
		if v.highS {
			sv.Sub(bigN, sv)
		}
		want, err := asn1.Marshal(struct{ R, S *big.Int }{r, sv})
		if err != nil {
			t.Fatal(err)
		}
		digest := Hash([]byte(v.msg))
		onEachBasePath(func(path string) {
			sig, err := s.SignDigest(digest[:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sig, want) {
				t.Errorf("%q on %s: SignDigest = %x, want %x", v.msg, path, sig, want)
			}
		})
	}
}

// TestSignDigestDeterministic: one key signing one digest twice gives the
// same bytes, SignDigestECDH gives them too, and they verify under
// crypto/ecdsa.
func TestSignDigestDeterministic(t *testing.T) {
	s := newTestSigner(t)
	digest := Hash([]byte("endorse"))
	a, err := s.SignDigest(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.SignDigest(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two signatures of one digest differ:\n%x\n%x", a, b)
	}
	if c, err := s.SignDigestECDH(digest[:]); err != nil || !bytes.Equal(a, c) {
		t.Fatalf("SignDigestECDH = %x, %v; SignDigest %x", c, err, a)
	}
	if !ecdsa.VerifyASN1(s.Public(), digest[:], a) {
		t.Fatal("signature does not verify under crypto/ecdsa")
	}
}

// FuzzSignMatchesStdlib: for any private key d in [1, n) and any digest,
// SignDigest returns crypto/ecdsa's (*PrivateKey).Sign(nil, …) — RFC 6979,
// the same nonce — after low-S, byte for byte, on each k·G path. Inputs are
// cut or padded to 32 bytes, so every one signs. Seeds: d = 1 and d = n − 1,
// a digest ≥ n, the all-0xff and the all-zero digests.
func FuzzSignMatchesStdlib(f *testing.F) {
	one := make([]byte, ScalarSize)
	one[ScalarSize-1] = 1
	nMinus1 := new(big.Int).Sub(bigN, big.NewInt(1)).FillBytes(make([]byte, ScalarSize))
	aboveN := new(big.Int).Add(bigN, big.NewInt(5)).FillBytes(make([]byte, ScalarSize))
	ffs := bytes.Repeat([]byte{0xff}, HashSize)
	zeros := make([]byte, HashSize)
	mid := Hash([]byte("endorse"))
	for _, d := range [][]byte{one, nMinus1, mid[:]} {
		for _, h := range [][]byte{aboveN, ffs, zeros, mid[:]} {
			f.Add(d, h)
		}
	}
	half := new(big.Int).Rsh(bigN, 1)
	fixed := func(b []byte) []byte { // the last 32 bytes, zero-padded in front
		out := make([]byte, 32)
		copy(out[max(0, 32-len(b)):], b[max(0, len(b)-32):])
		return out
	}
	f.Fuzz(func(t *testing.T, d, digest []byte) {
		d, digest = fixed(d), fixed(digest)
		k, err := ecdh.P256().NewPrivateKey(d)
		if err != nil {
			t.Skip() // d = 0 or d ≥ n: no key
		}
		pub := k.PublicKey().Bytes()
		priv := &ecdsa.PrivateKey{
			PublicKey: ecdsa.PublicKey{
				Curve: elliptic.P256(),
				X:     new(big.Int).SetBytes(pub[1 : 1+ScalarSize]),
				Y:     new(big.Int).SetBytes(pub[1+ScalarSize:]),
			},
			D: new(big.Int).SetBytes(d),
		}
		std, err := priv.Sign(nil, digest, crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := DecodeDERToParts(std)
		if err != nil {
			t.Fatal(err)
		}
		if sv := new(big.Int).SetBytes(parts.S[:]); sv.Cmp(half) > 0 {
			sv.Sub(bigN, sv).FillBytes(parts.S[:])
		}
		want := PartsToDER(parts)
		onEachBasePath(func(path string) {
			got, err := (&Signer{priv: priv}).SignDigest(digest)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("d = %x, digest = %x: SignDigest on %s = %x, crypto/ecdsa after low-S %x", d, digest, path, got, want)
			}
		})
	})
}

// TestSignDigestRejectsOtherLengths: SignDigest signs SHA-256 digests, and a
// digest of any other length is an error, not a truncated or padded input.
func TestSignDigestRejectsOtherLengths(t *testing.T) {
	s := newTestSigner(t)
	for _, n := range []int{0, 1, 20, HashSize - 1, HashSize + 1, 48, 64} {
		if sig, err := s.SignDigest(make([]byte, n)); err == nil {
			t.Errorf("%d-byte digest signed: %x", n, sig)
		}
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

// BenchmarkSignDigest runs the package's signer and, beside it, crypto/ecdsa's
// RFC 6979 signer on the same key and digest.
func BenchmarkSignDigest(b *testing.B) {
	s, err := NewSigner()
	if err != nil {
		b.Fatal(err)
	}
	digest := Hash([]byte("benchmark message"))
	b.Run("fabcrypto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SignDigest(digest[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.priv.Sign(nil, digest[:], crypto.SHA256); err != nil {
				b.Fatal(err)
			}
		}
	})
}
