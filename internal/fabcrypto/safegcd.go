package fabcrypto

import "math/bits"

// Variable-time modular inversion by Bernstein and Yang's safegcd ("Fast
// constant-time gcd computation and modular inversion", 2019), in the form
// libsecp256k1's modinv64_var takes: batches of 62 divsteps, each batch
// folded into a 2×2 matrix of int64 that is then applied to five signed
// 62-bit limbs, with no allocation. One core serves two moduli: feInvVar
// inverts in the field, ordInvVar mod the group order n.
//
// It is VARIABLE TIME: how many batches it runs, and the shortcuts inside a
// batch, depend on the value inverted. Every caller hands it either a public
// value (invertAll's product of chord denominators, invertScalars' product
// of signature s values) or, in the signer, the blinded product k·b of the
// nonce and a fresh random scalar, which is uniform on [1, n) and
// independent of k (sign.go).

// s62 is the signed integer Σ v[i]·2^(62·i). Normalized, limbs 0–3 lie in
// [0, 2⁶²) and the top limb carries the sign; in between they may not.
type s62 [5]int64

const mask62 = 1<<62 - 1

// divMatrix is the transition of 62 divsteps: [f, g] becomes
// [u·f + v·g, q·f + r·g] / 2⁶².
type divMatrix struct{ u, v, q, r int64 }

// invModulus is what the core needs of a modulus m: m in s62 limbs,
// m⁻¹ mod 2⁶², and 2⁵¹² mod m, the value the inverse is scaled by so that a
// Montgomery-form input comes out as its Montgomery-form inverse:
// (x·2²⁵⁶)⁻¹·2⁵¹² = x⁻¹·2²⁵⁶.
type invModulus struct {
	m     s62
	inv62 uint64
	rr    [4]uint64
}

var (
	// p ≡ −1 (mod 2⁶⁴), so p⁻¹ ≡ −1 (mod 2⁶²).
	fieldModulus = invModulus{m: toS62(pLimbs), inv62: mask62, rr: feRR}
	// nNegInv is −n⁻¹ mod 2⁶⁴.
	orderModulus = invModulus{m: toS62(nLimbs), inv62: (1<<64 - nNegInv) & mask62, rr: ordRR}
)

// feInvVar sets z = x⁻¹ for x ≠ 0 (0 for x = 0), both in Montgomery form, in
// variable time: the same value as feInv's. z may alias x.
//
// bmaclint:noalloc
func feInvVar(z, x *fe) {
	*z = fe(fieldModulus.invert((*[4]uint64)(x)))
}

// ordInvVar sets z = x⁻¹ mod n for x ≠ 0 (0 for x = 0), both in Montgomery
// form, in variable time: the same value as ordInv's. z may alias x.
//
// bmaclint:noalloc
func ordInvVar(z, x *[4]uint64) {
	*z = orderModulus.invert(x)
}

// toS62 splits a 256-bit value into s62 limbs.
func toS62(l [4]uint64) s62 {
	return s62{
		int64(l[0] & mask62),
		int64((l[0]>>62 | l[1]<<2) & mask62),
		int64((l[1]>>60 | l[2]<<4) & mask62),
		int64((l[2]>>58 | l[3]<<6) & mask62),
		int64(l[3] >> 56),
	}
}

// fromS62 joins normalized s62 limbs of a value below 2²⁵⁶.
func fromS62(v *s62) [4]uint64 {
	return [4]uint64{
		uint64(v[0]) | uint64(v[1])<<62,
		uint64(v[1])>>2 | uint64(v[2])<<60,
		uint64(v[2])>>4 | uint64(v[3])<<58,
		uint64(v[3])>>6 | uint64(v[4])<<56,
	}
}

// invert returns x⁻¹·2⁵¹² mod m for x < m (0 for x = 0). It tracks
// f = d·x and g = e·x (mod m, up to a common power of two the updates divide
// out) from f = m, g = x, d = 0, e = 2⁵¹² mod m, until g = 0; then f = ±1
// and ±d is the result.
//
// bmaclint:noalloc
func (m *invModulus) invert(x *[4]uint64) [4]uint64 {
	d, e := s62{}, toS62(m.rr)
	f, g := m.m, toS62(*x)
	n := len(f) // limbs of f and g still in use
	eta := int64(-1)
	for {
		var t divMatrix
		eta, t = divsteps62(eta, uint64(f[0]), uint64(g[0]))
		m.updateDE(&d, &e, &t)
		updateFG(n, &f, &g, &t)
		if g[0] == 0 {
			var rest int64
			for _, gi := range g[1:n] {
				rest |= gi
			}
			if rest == 0 {
				break
			}
		}
		// Drop the top limb when it is 0 or −1 in both f and g, folding its
		// sign into the limb below.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && (fn^(fn>>63))|(gn^(gn>>63)) == 0 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	m.normalize(&d, f[n-1])
	return fromS62(&d)
}

// divsteps62 runs 62 divsteps on the low limbs f0 (odd) and g0 of f and g
// and returns the new eta (−delta) and the transition matrix. Runs of zeros
// in g are skipped at once, and each other step cancels up to six low bits
// of g at a time.
//
// bmaclint:noalloc
func divsteps62(eta int64, f0, g0 uint64) (int64, divMatrix) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := 62
	for {
		// Shift counts are masked to 63 (none exceeds 62): it spares Go's
		// code for counts of 64 and more.
		zeros := uint(bits.TrailingZeros64(g|^uint64(0)<<(uint(i)&63))) & 63 // the sentinel stops at i
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= int(zeros)
		if i == 0 {
			break
		}
		// When eta < 0, negate it and replace (f, g) by (g, −f), under a
		// mask: the sign of eta is a coin flip the predictor cannot learn.
		c := uint64(eta >> 63)
		eta = (eta ^ int64(c)) - int64(c)
		f, g = f^(f^g)&c, g^(g^-f)&c
		u, q = u^(u^q)&c, q^(q^-u)&c
		v, r = v^(v^r)&c, r^(r^-v)&c
		// Cancel up to six low bits of g with a multiple of f: no more than
		// i (the batch ends there) and eta + 1 (eta changes sign there).
		limit := min(int(eta)+1, i)
		w := f * g * (f*f - 2) & (^uint64(0) >> (uint(64-limit) & 63) & 63)
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, divMatrix{int64(u), int64(v), int64(q), int64(r)}
}

// acc128 is a signed 128-bit accumulator, hi·2⁶⁴ + lo.
type acc128 struct{ lo, hi uint64 }

// mulAdd adds x·y.
func (a *acc128) mulAdd(x, y int64) {
	hi, lo := bits.Mul64(uint64(x), uint64(y))
	hi -= uint64(x>>63)&uint64(y) + uint64(y>>63)&uint64(x) // signed correction
	var c uint64
	a.lo, c = bits.Add64(a.lo, lo, 0)
	a.hi += hi + c
}

// shr62 shifts right by 62 bits, arithmetically.
func (a *acc128) shr62() {
	a.lo = a.lo>>62 | a.hi<<2
	a.hi = uint64(int64(a.hi) >> 62)
}

// updateDE sets [d, e] = (t·[d, e] + m·[md, me]) / 2⁶², choosing md and me
// so that the division is exact: the same step mod m that updateFG takes
// over the integers. d and e stay in (−2m, m).
//
// bmaclint:noalloc
func (m *invModulus) updateDE(d, e *s62, t *divMatrix) {
	u, v, q, r := t.u, t.v, t.q, t.r
	sd, se := d[4]>>63, e[4]>>63
	md := u&sd + v&se // bring a negative d or e back towards (−m, m)
	me := q&sd + r&se
	var cd, ce acc128
	cd.mulAdd(u, d[0])
	cd.mulAdd(v, e[0])
	ce.mulAdd(q, d[0])
	ce.mulAdd(r, e[0])
	md -= int64((m.inv62*cd.lo + uint64(md)) & mask62)
	me -= int64((m.inv62*ce.lo + uint64(me)) & mask62)
	cd.mulAdd(m.m[0], md)
	ce.mulAdd(m.m[0], me)
	cd.shr62() // the low 62 bits are zero now
	ce.shr62()
	for i := 1; i < len(d); i++ {
		cd.mulAdd(u, d[i])
		cd.mulAdd(v, e[i])
		cd.mulAdd(m.m[i], md)
		ce.mulAdd(q, d[i])
		ce.mulAdd(r, e[i])
		ce.mulAdd(m.m[i], me)
		d[i-1] = int64(cd.lo & mask62)
		e[i-1] = int64(ce.lo & mask62)
		cd.shr62()
		ce.shr62()
	}
	d[4], e[4] = int64(cd.lo), int64(ce.lo)
}

// updateFG sets [f, g] = t·[f, g] / 2⁶² on their low n limbs, the division
// exact by the choice of t.
//
// bmaclint:noalloc
func updateFG(n int, f, g *s62, t *divMatrix) {
	u, v, q, r := t.u, t.v, t.q, t.r
	var cf, cg acc128
	cf.mulAdd(u, f[0])
	cf.mulAdd(v, g[0])
	cg.mulAdd(q, f[0])
	cg.mulAdd(r, g[0])
	cf.shr62()
	cg.shr62()
	for i := 1; i < n; i++ {
		cf.mulAdd(u, f[i])
		cf.mulAdd(v, g[i])
		cg.mulAdd(q, f[i])
		cg.mulAdd(r, g[i])
		f[i-1] = int64(cf.lo & mask62)
		g[i-1] = int64(cg.lo & mask62)
		cf.shr62()
		cg.shr62()
	}
	f[n-1], g[n-1] = int64(cf.lo), int64(cg.lo)
}

// normalize brings d from (−2m, m) to [0, m), negated first when sign < 0.
func (m *invModulus) normalize(d *s62, sign int64) {
	addM := func() {
		neg := d[4] >> 63
		for i := range d {
			d[i] += m.m[i] & neg
		}
	}
	carry := func() {
		for i := 0; i < 4; i++ {
			d[i+1] += d[i] >> 62
			d[i] &= mask62
		}
	}
	addM() // now in (−m, m)
	neg := sign >> 63
	for i := range d {
		d[i] = d[i] ^ neg - neg
	}
	carry()
	addM()
	carry()
}
