package fabcrypto

import "sync"

// The signer's R = k·G on the 8-lane kernel (p256_lanes_amd64.s, generated
// by p256_lanes_gen.go): the fixed-base comb of Gueron and Krasnov (J.
// Cryptogr. Eng. 2015), which is Go's own ScalarBaseMult, with its additions
// spread over eight lanes. k is Booth-recoded into 43 signed 6-bit digits
// d_w in [−32, 32], padded to 48 with zeros, so that k·G = Σ d_w·2^(6w)·G,
// and window w's table holds 1..32 times its base 2^(6w)·G. Lane l sums
// windows l, 8 + l, …, 40 + l, one per round:
//
//   - lanesCombSelect: in each of the six rounds every lane scans all 32
//     entries of its window's table under masks. There is no gather: a
//     gather's address would put the digit into the cache.
//   - lanesCombStart and lanesCombAdd: y is negated by a masked select where
//     the digit is negative, and the point is added into the lane's running
//     sum with the complete mixed addition of Renes, Costello and Batina
//     (EUROCRYPT 2016, a = −3), kept only in the lanes whose digit is not
//     zero.
//   - lanesCombine: three complete full additions sum the eight lanes, so the
//     identity, P = Q and P = −Q need no branch anywhere.
//
// x = X/Z comes from the variable-time feInvVar blinded like k⁻¹: it sees
// Z·β for a fresh random β. Everything else runs the same instructions on
// the same addresses for every k; the timing test (timing_test.go) holds it
// to that.

const (
	combWindows = 43 // 6-bit windows over 257 bits: the last takes the recoding's top
	combRounds  = 6  // 48 windows, eight lanes
	combEntries = 32 // the multiples 1..32 of a window's base
)

// laneAffine and laneProj are eight affine points and eight projective
// points (X : Y : Z), one per lane.
type laneAffine struct{ x, y laneFE }

type laneProj struct{ x, y, z laneFE }

// laneComb is the comb's working memory, in the order p256_lanes_gen.go
// addresses it (TestLaneCombLayout): the digits, round by round, the
// entries they select, the running sums, the addend and the formulas'
// temporaries.
type laneComb struct {
	digit [8 * combRounds]uint64 // |d| of window w = 8r + l at [w]
	sign  [8 * combRounds]uint64 // all ones where d is negative
	sel   [combRounds]laneAffine // entry |d| of the window's table; 0 for d = 0
	acc   laneProj               // the eight running sums
	q     laneProj               // lanesCombine's rotated sums; q.y is lanesCombAdd's signed y
	t     [8]laneFE              // t0–t4 and the sum X3, Y3, Z3 before it is kept
}

// gCombLanes is G's comb in the lanes' layout and form: lane l of entry j of
// round r is (j + 1)·2^(6(8r+l))·G, each coordinate times 2²⁶⁰ mod p (the
// lanes' Montgomery factor); the five padding windows are zero. 120 KB,
// built once.
var gCombLanes = sync.OnceValue(func() *[combRounds][combEntries]laneAffine {
	t := newCombTable(generator(), 6)
	tab := new([combRounds][combEntries]laneAffine)
	for w := 0; w < t.count; w++ {
		for j := 0; j < combEntries; j++ {
			p := &t.pts[w*t.half+j]
			x, y := laneForm(&p.x), laneForm(&p.y)
			tab[w/8][j].x.set(w%8, &x)
			tab[w/8][j].y.set(w%8, &y)
		}
	}
	return tab
})

// laneForm returns x·2⁴: for x = a·2²⁵⁶ mod p (Montgomery form) that is
// a·2²⁶⁰ mod p, the lanes' form of a.
func laneForm(x *fe) fe {
	z := *x
	for range 4 {
		feAdd(&z, &z, &z)
	}
	return z
}

// scalarBaseXLanes returns the x-coordinate of k·G reduced mod n, for k in
// [1, n), with the inversion blinded by beta, a random field element in
// [1, p).
//
// bmaclint:noalloc
func scalarBaseXLanes(k *[4]uint64, beta *fe) [4]uint64 {
	var c laneComb
	c.recode(k)
	lanesCombSelect(&c, gCombLanes())
	c.sum()
	return c.x(beta)
}

// recode sets c's digits from k (below n): Go's boothW6 on the seven bits
// 6w − 1 … 6w + 5 of window w (bit −1 is zero), without a branch on k.
// Windows 43 to 47 are left as they are, zero in a fresh laneComb.
//
// bmaclint:noalloc
func (c *laneComb) recode(k *[4]uint64) {
	kk := [5]uint64{k[0], k[1], k[2], k[3]}
	v := k[0] << 1
	for w := range combWindows {
		if w > 0 {
			i := uint(6*w - 1)
			v = kk[i/64]>>(i%64) | kk[i/64+1]<<(63-i%64)<<1
		}
		v &= 0x7f
		s := -(v >> 6) // all ones when the digit is negative
		d := (0x7f-v)&s | v&^s
		c.digit[w], c.sign[w] = d>>1+d&1, s
	}
}

// sum adds up the entries c.sel holds for c's digits: lane 0 of c.acc is
// then k·G, its X and Z canonical.
//
// bmaclint:noalloc
func (c *laneComb) sum() {
	lanesCombStart(c)
	for r := 1; r < combRounds; r++ {
		lanesCombAdd(c, r)
	}
	for s := 4; s > 0; s >>= 1 {
		lanesCombine(c, s)
	}
	lanesCanonical(&c.acc.x, &c.acc.x)
	lanesCanonical(&c.acc.z, &c.acc.z)
}

// x returns the x-coordinate of sum's point mod n, with the inversion
// blinded by beta.
//
// bmaclint:noalloc
func (c *laneComb) x(beta *fe) [4]uint64 {
	// Lane 0 holds X·2⁴ and Z·2⁴ in Montgomery form; the factors cancel.
	X, Z := c.acc.x.pack(0), c.acc.z.pack(0)
	var zb, inv, x fe
	feMul(&zb, &Z, beta)
	feInvVar(&inv, &zb)     // sees only Z·β
	feMul(&inv, &inv, beta) // 1/(Z·2⁴)
	feMul(&x, &X, &inv)
	feMul(&x, &x, &fe{1}) // out of Montgomery form
	return ordReduce(x)
}
