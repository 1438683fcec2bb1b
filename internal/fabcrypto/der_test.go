package fabcrypto

import (
	"bytes"
	"encoding/asn1"
	"math/big"
	"math/rand"
	"testing"
)

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
			got := encodeDERSignature(r, s)
			want, err := asn1.Marshal(ecdsaSignature{R: r, S: s})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || cap(got) != len(got) {
				t.Fatalf("r %d bits, s %d bits: got %x (cap %d), want %x", rb, sb, got, cap(got), want)
			}
		}
	}
}
