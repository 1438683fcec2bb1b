package fabcrypto

import (
	"encoding/binary"
	"math/bits"
)

// This file is the arithmetic of the verification engine (keytable.go): the
// P-256 base field on 4×64-bit Montgomery limbs and the two point operations
// a table-driven verification needs, and the products mod n. The field and
// point code is VARIABLE TIME — branches and table indices depend on the
// operands — which is sound only because every operand of a verification
// (public key, digest, signature) is public. The signer (sign.go) hands a
// secret to nothing here but ordMul and feMul, whose kernels and portable
// twins are constant time (the final select of each is a mask), and to
// nothing in safegcd.go but the blinded k·b and Z·β. Its k·G on the lanes
// (sign_lanes.go) builds its table from G with this file's point code once,
// before any secret. The timing test (timing_test.go) checks those claims
// and no others.
//
// Multiplication and squaring, most of a verification's time, run on a
// kernel chosen by GOARCH alone, and so do the batch's three inner loops —
// the chord addition, the two passes of the shared inversion, the products
// mod n. On amd64 it is p256_amd64.s: routines of Go's own
// crypto/internal/fips140/nistec (Go 1.24.0, BSD licence, notice kept in the
// file), which use this file's representation exactly — the same limbs,
// R = 2²⁵⁶, results in [0, p) — so tables and callers are the same on either
// side, and three routines composed from its register-operand internals.
// Everywhere else feMul, feSqrN, addAffine, invertAll and ordMul are
// the …Generic functions below (p256_other.go). Those are compiled on every
// architecture, and on amd64 the tests hold the kernel to them, bit for bit,
// and to math/big. The batch's affine levels have a second kernel on amd64
// CPUs with AVX-512 IFMA, eight pairs at a time in radix 2⁵²
// (p256_lanes_amd64.s), chosen from CPUID at package init; its levels hand
// back this file's representation (keytable.go, laneLevel).

// fe is a field element x·2²⁵⁶ mod p (Montgomery form), little-endian
// limbs, always fully reduced to [0, p) so equality is limb equality.
type fe [4]uint64

// p = 2²⁵⁶ − 2²²⁴ + 2¹⁹² + 2⁹⁶ − 1. p ≡ −1 (mod 2⁶⁴), so the Montgomery
// factor of a reduction round is the low limb itself and m·p needs one
// multiplication: m·p = m·2⁹⁶ − m + m·p3·2¹⁹².
const (
	p0 = 0xffffffffffffffff
	p1 = 0x00000000ffffffff
	p2 = 0x0000000000000000
	p3 = 0xffffffff00000001
)

var (
	feRR  = fe{0x0000000000000003, 0xfffffffbffffffff, 0xfffffffffffffffe, 0x00000004fffffffd} // 2⁵¹² mod p
	feOne = fe{0x0000000000000001, 0xffffffff00000000, 0xffffffffffffffff, 0x00000000fffffffe} // 2²⁵⁶ mod p
)

// feMulGeneric sets z = x·y·2⁻²⁵⁶ mod p: four rounds of "add x[i]·y, cancel
// the low limb with a multiple of p, shift down one limb". The running value
// stays below 2p, so it fits four limbs and one carry bit. z may alias x or y.
func feMulGeneric(z, x, y *fe) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var a0, a1, a2, a3, a4 uint64
	for i := 0; i < 4; i++ {
		xi := x[i]
		h0, l0 := bits.Mul64(xi, y0)
		h1, l1 := bits.Mul64(xi, y1)
		h2, l2 := bits.Mul64(xi, y2)
		h3, l3 := bits.Mul64(xi, y3)
		var c uint64
		l1, c = bits.Add64(l1, h0, 0)
		l2, c = bits.Add64(l2, h1, c)
		l3, c = bits.Add64(l3, h2, c)
		h3 += c
		a0, c = bits.Add64(a0, l0, 0)
		a1, c = bits.Add64(a1, l1, c)
		a2, c = bits.Add64(a2, l2, c)
		a3, c = bits.Add64(a3, l3, c)
		a4, _ = bits.Add64(a4, h3, c)

		m := a0
		hi, lo := bits.Mul64(m, p3)
		a0, c = bits.Add64(a1, m<<32, 0)
		a1, c = bits.Add64(a2, m>>32, c)
		a2, c = bits.Add64(a3, lo, c)
		a3, c = bits.Add64(a4, hi, c)
		a4 = c
	}
	feReduceOnce(z, a0, a1, a2, a3, a4)
}

// feReduceOnce stores a − p when a ≥ p, else a, for a < 2p given as four
// limbs and a carry bit. The select is a mask, not a branch: which side is
// taken is close to a coin flip.
func feReduceOnce(z *fe, a0, a1, a2, a3, carry uint64) {
	d0, b := bits.Sub64(a0, p0, 0)
	d1, b := bits.Sub64(a1, p1, b)
	d2, b := bits.Sub64(a2, p2, b)
	d3, b := bits.Sub64(a3, p3, b)
	_, b = bits.Sub64(carry, 0, b)
	keep := -b // all ones when a < p
	z[0] = d0 ^ (d0^a0)&keep
	z[1] = d1 ^ (d1^a1)&keep
	z[2] = d2 ^ (d2^a2)&keep
	z[3] = d3 ^ (d3^a3)&keep
}

// feSqrNGeneric sets z = x^(2ⁿ) for n ≥ 1, the kernel's contract.
func feSqrNGeneric(z, x *fe, n int) {
	feMulGeneric(z, x, x)
	for i := 1; i < n; i++ {
		feMulGeneric(z, z, z)
	}
}

func feSqr(z, x *fe) { feSqrN(z, x, 1) }

func feAdd(z, x, y *fe) {
	a0, c := bits.Add64(x[0], y[0], 0)
	a1, c := bits.Add64(x[1], y[1], c)
	a2, c := bits.Add64(x[2], y[2], c)
	a3, c := bits.Add64(x[3], y[3], c)
	feReduceOnce(z, a0, a1, a2, a3, c)
}

func feSub(z, x, y *fe) {
	a0, b := bits.Sub64(x[0], y[0], 0)
	a1, b := bits.Sub64(x[1], y[1], b)
	a2, b := bits.Sub64(x[2], y[2], b)
	a3, b := bits.Sub64(x[3], y[3], b)
	mask := -b // borrow: add p back
	var c uint64
	z[0], c = bits.Add64(a0, p0&mask, 0)
	z[1], c = bits.Add64(a1, p1&mask, c)
	z[2], c = bits.Add64(a2, p2&mask, c)
	z[3], _ = bits.Add64(a3, p3&mask, c)
}

// feNeg sets z = −x.
func feNeg(z, x *fe) { feSub(z, &fe{}, x) }

// limbsFromBytes loads a 32-byte big-endian integer as little-endian limbs.
func limbsFromBytes(b *[ScalarSize]byte) [4]uint64 {
	return [4]uint64{
		binary.BigEndian.Uint64(b[24:]), binary.BigEndian.Uint64(b[16:]),
		binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:]),
	}
}

// bytesFromLimbs stores little-endian limbs as a 32-byte big-endian integer.
func bytesFromLimbs(dst *[ScalarSize]byte, l [4]uint64) {
	for i, v := range l {
		binary.BigEndian.PutUint64(dst[24-8*i:], v)
	}
}

// lessThan reports a < b on little-endian limbs.
func lessThan(a, b *[4]uint64) bool {
	_, br := bits.Sub64(a[0], b[0], 0)
	_, br = bits.Sub64(a[1], b[1], br)
	_, br = bits.Sub64(a[2], b[2], br)
	_, br = bits.Sub64(a[3], b[3], br)
	return br == 1
}

var pLimbs = [4]uint64{p0, p1, p2, p3}

// feFromLimbs converts an integer v < p to Montgomery form; ok is false for
// v ≥ p (not a field element's canonical encoding).
func feFromLimbs(v [4]uint64) (z fe, ok bool) {
	if !lessThan(&v, &pLimbs) {
		return fe{}, false
	}
	x := fe(v)
	feMul(&z, &x, &feRR)
	return z, true
}

// affinePoint is a curve point (x, y) ≠ ∞; jacobianPoint is (X/Z², Y/Z³)
// and never holds ∞ either: the verification loop tracks "nothing added
// yet" itself and treats a sum that would be ∞ as exceptional.
type affinePoint struct{ x, y fe }

type jacobianPoint struct{ x, y, z fe }

// addMixed sets p = p + q and reports whether it could. It cannot when
// p = ±q (the chord formula divides by H = 0: the sum is a doubling or ∞);
// p is then unchanged and the caller must fall back, not guess.
func (p *jacobianPoint) addMixed(q *affinePoint) bool {
	var zz, u2, s2, h, r, hh, hhh, v, t fe
	feSqr(&zz, &p.z)
	feMul(&u2, &q.x, &zz)
	feSub(&h, &u2, &p.x)
	if h == (fe{}) {
		return false
	}
	feMul(&s2, &p.z, &zz)
	feMul(&s2, &s2, &q.y)
	feSub(&r, &s2, &p.y)
	feSqr(&hh, &h)
	feMul(&hhh, &hh, &h)
	feMul(&v, &p.x, &hh)

	feSqr(&t, &r) // X3 = r² − H³ − 2V
	feSub(&t, &t, &hhh)
	feSub(&t, &t, &v)
	feSub(&t, &t, &v)
	feMul(&p.z, &p.z, &h) // Z3 = Z1·H
	feSub(&v, &v, &t)     // Y3 = r·(V − X3) − Y1·H³
	feMul(&v, &v, &r)
	feMul(&hhh, &hhh, &p.y)
	feSub(&p.y, &v, &hhh)
	p.x = t
	return true
}

// double sets p = 2p (a = −3 doubling; y ≠ 0 on a prime-order curve).
func (p *jacobianPoint) double() {
	var delta, gamma, beta, alpha, t, t2 fe
	feSqr(&delta, &p.z)
	feSqr(&gamma, &p.y)
	feMul(&beta, &p.x, &gamma)
	feSub(&t, &p.x, &delta)
	feAdd(&t2, &p.x, &delta)
	feMul(&alpha, &t, &t2)
	feAdd(&t, &alpha, &alpha)
	feAdd(&alpha, &alpha, &t) // α = 3(X−δ)(X+δ)

	feAdd(&t, &p.y, &p.z) // Z3 = (Y+Z)² − γ − δ
	feSqr(&t, &t)
	feSub(&t, &t, &gamma)
	feSub(&p.z, &t, &delta)

	feAdd(&t, &beta, &beta) // 4β
	feAdd(&t, &t, &t)
	feAdd(&t2, &t, &t) // 8β
	feSqr(&p.x, &alpha)
	feSub(&p.x, &p.x, &t2) // X3 = α² − 8β

	feSub(&t, &t, &p.x) // Y3 = α(4β − X3) − 8γ²
	feMul(&t, &t, &alpha)
	feSqr(&gamma, &gamma)
	feAdd(&gamma, &gamma, &gamma)
	feAdd(&gamma, &gamma, &gamma)
	feAdd(&gamma, &gamma, &gamma)
	feSub(&p.y, &t, &gamma)
}

// addAffineGeneric sets r = p + q for p ≠ ±q, given inv = 1/(q.x − p.x): the
// chord formula with the division already paid for, 1 S + 2 M. r may alias p
// or q. It is addAffine wherever the kernel is not.
func addAffineGeneric(r, p, q *affinePoint, inv *fe) {
	var l, x, y fe
	feSub(&l, &q.y, &p.y)
	feMul(&l, &l, inv) // λ
	feSqr(&x, &l)      // x3 = λ² − x1 − x2
	feSub(&x, &x, &p.x)
	feSub(&x, &x, &q.x)
	feSub(&y, &p.x, &x) // y3 = λ(x1 − x3) − y1
	feMul(&y, &y, &l)
	feSub(&r.y, &y, &p.y)
	r.x = x
}

// invertAllGeneric replaces every element of xs (none zero) by its inverse
// with one shared inversion (Montgomery's trick: 3 M per element); prefix is
// scratch of the same length. It is invertAll wherever the kernel is not.
func invertAllGeneric(xs, prefix []fe) {
	if len(xs) == 0 {
		return
	}
	acc := feOne
	for i := range xs {
		feMul(&acc, &acc, &xs[i])
		prefix[i] = acc
	}
	var inv fe
	feInvVar(&inv, &acc)
	for i := len(xs) - 1; i > 0; i-- {
		x := xs[i]
		feMul(&xs[i], &inv, &prefix[i-1])
		feMul(&inv, &inv, &x)
	}
	xs[0] = inv
}

// toAffine converts ps to affine with one shared inversion: out[i] = ps[i].
// No Z may be zero.
func toAffine(out []affinePoint, ps []jacobianPoint) {
	zinv, prefix := make([]fe, len(ps)), make([]fe, len(ps))
	for i := range ps {
		zinv[i] = ps[i].z
	}
	invertAll(zinv, prefix)
	for i := range ps {
		var zz fe
		feSqr(&zz, &zinv[i])
		feMul(&out[i].x, &ps[i].x, &zz)
		feMul(&zz, &zz, &zinv[i])
		feMul(&out[i].y, &ps[i].y, &zz)
	}
}

// The scalars of a verification and of a signature live mod n, the group
// order, which has no special form: ordMul is a generic 4-limb Montgomery
// multiplication, z = x·y·2⁻²⁵⁶ mod n for x·y < n·2²⁵⁶ (one factor below
// n, the other any 256-bit value, a digest say). Like feMul it runs on the
// kernel where GOARCH has one, and on ordMulGeneric below everywhere else.
// z may alias x or y.
var (
	nLimbs = [4]uint64{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff, 0xffffffff00000000}
	ordRR  = [4]uint64{0x83244c95be79eea2, 0x4699799c49bd6fa6, 0x2845b2392b6bec59, 0x66e12d94f3d95620} // 2⁵¹² mod n
)

// nNegInv = −n⁻¹ mod 2⁶⁴, the Montgomery factor of one reduction round.
const nNegInv = 0xccd1c8aaee00bc4f

func ordMulGeneric(z, x, y *[4]uint64) {
	var a [5]uint64
	for _, xi := range *x {
		top := mulAdd(&a, xi, y)
		top += mulAdd(&a, a[0]*nNegInv, &nLimbs) // cancels the low limb
		a = [5]uint64{a[1], a[2], a[3], a[4], top}
	}
	*z = ordReduceOnce([4]uint64(a[:4]), a[4]) // a < 2n
}

// ordReduceOnce returns a − n when a ≥ n, else a, for a < 2n given as four
// limbs and a carry bit. As in feReduceOnce the select is a mask, not a
// branch: the signer hands ordMul its secrets.
func ordReduceOnce(a [4]uint64, carry uint64) [4]uint64 {
	var d [4]uint64
	var b uint64
	for i := range d {
		d[i], b = bits.Sub64(a[i], nLimbs[i], b)
	}
	_, b = bits.Sub64(carry, 0, b)
	keep := -b // all ones when a < n
	for i := range d {
		d[i] ^= (d[i] ^ a[i]) & keep
	}
	return d
}

// mulAdd adds k·v to a and returns the carry out of its top limb.
func mulAdd(a *[5]uint64, k uint64, v *[4]uint64) uint64 {
	var carry, c uint64
	for j, vj := range v {
		hi, lo := bits.Mul64(k, vj)
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		a[j], c = bits.Add64(a[j], lo, 0)
		carry = hi + c
	}
	a[4], c = bits.Add64(a[4], carry, 0)
	return c
}
