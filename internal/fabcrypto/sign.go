package fabcrypto

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"math/bits"
)

// The signer: ECDSA P-256 over a SHA-256 digest with RFC 6979's
// deterministic nonce, the same (r, s) as crypto/ecdsa's
// (*PrivateKey).Sign(nil, …), which the tests hold it to byte for byte.
//
// Secrets — the private key d, the nonce k, k⁻¹ and their products — touch
// only code whose time does not depend on them: the HMAC-SHA-256 DRBG on
// crypto/sha256, crypto/ecdh's constant-time base multiplication for
// R = k·G, ordMul (the kernel, or ordMulGeneric, whose final select is a
// mask) and the masked addition ordAdd. k⁻¹ is computed blinded: a fresh
// random b, and k⁻¹ = b·(k·b)⁻¹, where the variable-time ordInvVar only ever
// sees k·b, uniform on [1, n) and independent of k. What is branched on is
// public or rejected: r, s, the low-S choice and a DRBG output outside
// [1, n), which is discarded. The timing test (timing_test.go, build tag
// timing) measures exactly these claims.

var (
	errBadKey  = errors.New("fabcrypto: private key outside [1, n)")
	errZeroSig = errors.New("fabcrypto: r or s is zero") // probability ≈ 2⁻²⁵⁶
)

// signDigest signs digest under the private key d (big-endian, in [1, n)),
// returning r and a low-S s.
func signDigest(d *[ScalarSize]byte, digest *[HashSize]byte) (SignatureParts, error) {
	dl := limbsFromBytes(d)
	if dl == ([4]uint64{}) || !lessThan(&dl, &nLimbs) {
		return SignatureParts{}, errBadKey
	}
	e := ordReduce(limbsFromBytes(digest)) // bits2int(h) mod n, and bits2octets(h) below
	var h1 [ScalarSize]byte
	bytesFromLimbs(&h1, e)

	var k [ScalarSize]byte
	var kl [4]uint64
	for drbg := newNonceDRBG(d, &h1); ; drbg.next() {
		k = drbg.v
		if kl = limbsFromBytes(&k); kl != ([4]uint64{}) && lessThan(&kl, &nLimbs) {
			break
		}
	}

	var parts SignatureParts
	rl, err := scalarBaseX(&k)
	if err != nil {
		return parts, err
	}
	kInv, err := ordInvBlinded(&kl)
	if err != nil {
		return parts, err
	}
	var dm, rd, s [4]uint64
	ordMul(&dm, &dl, &ordRR) // d·R
	ordMul(&rd, &rl, &dm)    // r·d
	ordAdd(&rd, &e, &rd)     // e + r·d
	ordMul(&s, &kInv, &rd)   // k⁻¹·(e + r·d), out of Montgomery form
	if rl == ([4]uint64{}) || s == ([4]uint64{}) {
		return parts, errZeroSig
	}
	if lessThan(&nHalfLimbs, &s) { // low-S, on the public s
		var b uint64
		for i := range s {
			s[i], b = bits.Sub64(nLimbs[i], s[i], b)
		}
	}
	bytesFromLimbs(&parts.R, rl)
	bytesFromLimbs(&parts.S, s)
	return parts, nil
}

// scalarBaseX returns the x-coordinate of k·G reduced mod n (r), k in
// [1, n), by crypto/ecdh: a constant-time base multiplication and affine
// conversion.
func scalarBaseX(k *[ScalarSize]byte) ([4]uint64, error) {
	priv, err := ecdh.P256().NewPrivateKey(k[:])
	if err != nil {
		return [4]uint64{}, err
	}
	pub := priv.PublicKey().Bytes() // 0x04 ‖ X ‖ Y
	return ordReduce(limbsFromBytes((*[ScalarSize]byte)(pub[1 : 1+ScalarSize]))), nil
}

// ordInvBlinded returns k⁻¹ mod n in Montgomery form for k in [1, n): with b
// a fresh random scalar in [1, n), k⁻¹ = b·(k·b)⁻¹, so the variable-time
// inversion sees only k·b.
//
// bmaclint:noalloc
func ordInvBlinded(k *[4]uint64) ([4]uint64, error) {
	var bb [ScalarSize]byte
	var b [4]uint64
	for b == ([4]uint64{}) || !lessThan(&b, &nLimbs) {
		if _, err := rand.Read(bb[:]); err != nil {
			return b, err
		}
		b = limbsFromBytes(&bb)
	}
	var bm, kb, inv [4]uint64
	ordMul(&bm, &b, &ordRR) // b·R
	ordMul(&kb, k, &bm)     // k·b
	ordInvVar(&inv, &kb)    // k·b taken as Montgomery form: (k·b)⁻¹·R²
	ordMul(&inv, &inv, &b)  // (k·b)⁻¹·b·R = k⁻¹·R
	return inv, nil
}

// ordAdd sets z = x + y mod n for x, y < n. The reduction is a mask, not a
// branch. z may alias x or y.
func ordAdd(z, x, y *[4]uint64) {
	var a [4]uint64
	var c uint64
	for i := range a {
		a[i], c = bits.Add64(x[i], y[i], c)
	}
	*z = ordReduceOnce(a, c)
}

// ordReduce returns v mod n for any 256-bit v (below 2n), in constant time.
func ordReduce(v [4]uint64) [4]uint64 { return ordReduceOnce(v, 0) }

// nonceDRBG is RFC 6979's HMAC-SHA-256 DRBG (section 3.2, steps b–h) on
// fixed buffers: v holds the current candidate T, since for P-256 and
// SHA-256 one block of output is one candidate.
type nonceDRBG struct{ k, v [sha256.Size]byte }

// newNonceDRBG seeds the DRBG with the private key x and h1 = bits2octets(h),
// both 32 bytes, and draws the first candidate.
func newNonceDRBG(x, h1 *[ScalarSize]byte) nonceDRBG {
	var g nonceDRBG
	for i := range g.v {
		g.v[i] = 0x01
	}
	var seed [sha256.Size + 1 + 2*ScalarSize]byte // V ‖ sep ‖ x ‖ h1
	copy(seed[sha256.Size+1:], x[:])
	copy(seed[sha256.Size+1+ScalarSize:], h1[:])
	for _, sep := range [2]byte{0x00, 0x01} {
		copy(seed[:], g.v[:])
		seed[sha256.Size] = sep
		g.k = hmacSHA256(&g.k, seed[:])
		g.v = hmacSHA256(&g.k, g.v[:])
	}
	g.v = hmacSHA256(&g.k, g.v[:])
	return g
}

// next rejects the current candidate and draws another (step h.3).
func (g *nonceDRBG) next() {
	var m [sha256.Size + 1]byte
	copy(m[:], g.v[:])
	g.k = hmacSHA256(&g.k, m[:])
	g.v = hmacSHA256(&g.k, g.v[:])
	g.v = hmacSHA256(&g.k, g.v[:])
}

// hmacSHA256 is HMAC-SHA-256 under a 32-byte key, for messages of at most
// V ‖ sep ‖ x ‖ h1, on the stack.
func hmacSHA256(key *[sha256.Size]byte, msg []byte) [sha256.Size]byte {
	var buf [sha256.BlockSize + sha256.Size + 1 + 2*ScalarSize]byte
	for i := range sha256.BlockSize {
		buf[i] = 0x36
	}
	for i, b := range key {
		buf[i] ^= b
	}
	inner := sha256.Sum256(buf[:sha256.BlockSize+copy(buf[sha256.BlockSize:], msg)])
	for i := range sha256.BlockSize {
		buf[i] = 0x5c
	}
	for i, b := range key {
		buf[i] ^= b
	}
	copy(buf[sha256.BlockSize:], inner[:])
	return sha256.Sum256(buf[:sha256.BlockSize+sha256.Size])
}
