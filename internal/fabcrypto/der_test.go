package fabcrypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/sha256"
	"encoding/asn1"
	"errors"
	"math/big"
	"math/rand"
	"testing"
)

// ecdsaSignature is X9.62's SEQUENCE { r INTEGER, s INTEGER }, for
// encoding/asn1: the reference encoder, which takes any integers.
type ecdsaSignature struct {
	R, S *big.Int
}

func marshalDER(r, s *big.Int) ([]byte, error) { return asn1.Marshal(ecdsaSignature{R: r, S: s}) }

// TestDEREncoderMatchesASN1 holds the signing path's hand-written DER
// encoder to encoding/asn1 for (r, s) of every bit length 1–256 — every
// length of the minimal encoding, with and without the zero byte a set top
// bit needs — in one exact-size allocation.
func TestDEREncoderMatchesASN1(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	ofBits := func(n int) *big.Int {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(n-1)))
		return v.SetBit(v, n-1, 1)
	}
	for rb := 1; rb <= 256; rb++ {
		for _, sb := range []int{rb, 257 - rb, 1 + rng.Intn(256)} {
			r, s := ofBits(rb), ofBits(sb)
			got := PartsToDER(partsOf(r, s))
			want, err := marshalDER(r, s)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("r %d bits, s %d bits: got %x (cap %d), want %x", rb, sb, got, cap(got), want)
			}
		}
	}
}

// tlv is one DER element: tag, length — the long form when long is set or
// the content needs it — and content.
func tlv(tag byte, long bool, content ...[]byte) []byte {
	c := bytes.Join(content, nil)
	if long || len(c) >= 0x80 {
		return append([]byte{tag, 0x81, byte(len(c))}, c...)
	}
	return append([]byte{tag, byte(len(c))}, c...)
}

// derInt is the minimal content of a non-negative INTEGER.
func derInt(v *big.Int) []byte {
	b := v.Bytes()
	if len(b) == 0 || b[0]&0x80 != 0 {
		b = append([]byte{0}, b...)
	}
	return b
}

// FuzzDERMatchesStdlib fuzzes the DER bytes themselves, seeded with the
// framing around a valid signature and an invalid one taken apart: tags,
// short- and long-form lengths, zero padding, 33-byte integers, zero and
// negative values, bytes after s and after the SEQUENCE. DecodeDERToParts
// must never panic; what it accepts must re-encode to the same bytes,
// because strict DER is canonical; and VerifyDigest, SigCache.VerifyDigest
// and Batch.Add must reach crypto/ecdsa.VerifyASN1's verdict, a malformed
// encoding as ErrBadSignature.
func FuzzDERMatchesStdlib(f *testing.F) {
	priv := testKey(3)
	pub := &priv.PublicKey
	digest := sha256.Sum256([]byte("der"))
	r, s := signWith(priv, digest[:], big.NewInt(31337))
	for _, s := range []*big.Int{s, new(big.Int).Sub(bigN, s), big.NewInt(1)} { // valid, its high-S twin, invalid
		ri, si := derInt(r), derInt(s)
		seq := func(content ...[]byte) []byte { return tlv(0x30, false, content...) }
		f.Add(seq(tlv(2, false, ri), tlv(2, false, si)))
		f.Add(seq(tlv(2, false, ri), tlv(2, false, si), tlv(2, false, []byte{0}))) // a third element
		f.Add(append(seq(tlv(2, false, ri), tlv(2, false, si)), 0))
		f.Add(seq(tlv(2, false, ri), tlv(2, false, si), []byte{0}))
		f.Add(tlv(0x30, true, tlv(2, false, ri), tlv(2, false, si)))
		f.Add(seq(tlv(2, true, ri), tlv(2, false, si)))
		f.Add(seq(tlv(2, false, append([]byte{0}, ri...)), tlv(2, false, si)))
		f.Add(seq(tlv(2, false, ri), tlv(2, false, append([]byte{1}, make([]byte, 32)...))))
		f.Add(seq(tlv(2, false, []byte{0}), tlv(2, false, si)))
		f.Add(seq(tlv(2, false, ri), tlv(2, false, []byte{0x80 | si[len(si)-1]})))
		f.Add(tlv(0x31, false, tlv(2, false, ri), tlv(2, false, si)))
		f.Add(seq(tlv(3, false, ri), tlv(2, false, si)))
		f.Add(seq(tlv(2, false, ri)))
	}
	for _, c := range [][2]*big.Int{{new(big.Int).Lsh(big.NewInt(1), 299), big.NewInt(1)}, {big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 299)}, {new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)}} {
		der, err := marshalDER(c[0], c[1])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(der)
	}
	cache := NewSigCache(64)
	var b Batch
	f.Fuzz(func(t *testing.T, sig []byte) {
		want := ecdsa.VerifyASN1(pub, digest[:], sig)
		parts, err := DecodeDERToParts(sig)
		if err == nil {
			if back := PartsToDER(parts); !bytes.Equal(back, sig) {
				t.Fatalf("accepted %x, which re-encodes as %x", sig, back)
			}
		} else if want {
			t.Fatalf("rejected %x, which crypto/ecdsa verifies: %v", sig, err)
		}
		cacheErr, _ := cache.VerifyDigest(pub, digest[:], sig)
		b.Reset(cache)
		i, _ := b.Add(pub, digest[:], sig)
		b.Run()
		for name, got := range map[string]error{"VerifyDigest": VerifyDigest(pub, digest[:], sig), "SigCache.VerifyDigest": cacheErr, "Batch.Add": b.Err(i)} {
			if (got == nil) != want || err != nil && !errors.Is(got, ErrBadSignature) {
				t.Fatalf("%s(%x) = %v; crypto/ecdsa verifies %v, the parser says %v", name, sig, got, want, err)
			}
		}
	})
}

// TestDecodeDERNoAllocs: parsing a signature allocates nothing, accepted or
// rejected.
func TestDecodeDERNoAllocs(t *testing.T) {
	sig := makeSigs(t, 1)[0].sig
	bad := append(append([]byte{0x30, sig[1] + 3}, sig[2:]...), 0x02, 0x01, 0x00)
	for _, der := range [][]byte{sig, bad, sig[:len(sig)-1]} {
		if n := testing.AllocsPerRun(100, func() { _, _ = DecodeDERToParts(der) }); n != 0 {
			t.Errorf("DecodeDERToParts(%x): %v allocations", der, n)
		}
	}
}
