package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"math/big"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The verification engine: the software analog of the paper's ecdsa_engine
// with its identity cache. A verification computes R = u1·G + u2·Q; the
// standard library re-derives the multiples of Q on every call, although in
// a permissioned chain a handful of enrolled identities sign everything.
// The engine keeps, per recurring public key (and once for G), a table of
// affine multiples j·2^(w·i)·Q, so a verification is one table lookup and
// one mixed addition per window and scalar — no doubling, no field
// inversion — on the variable-time arithmetic of p256.go. A batch of
// signatures shares its field inversions: level by level, every
// signature's points are added pairwise in affine coordinates, their
// chords' denominators inverted together (reduceLevels). On an amd64 CPU
// with AVX-512 IFMA those levels run eight pairs at a time on the 8-lane
// kernel (p256_lanes_amd64.s, chosen at package init from CPUID, never by
// an option): the paper's ecdsa_engines working in space; everywhere else,
// and for levels too small to fill the lanes' fixed cost, on the scalar
// kernel.
//
// Every input of a verification is public, which is what makes variable
// time sound here. No secret-dependent value enters this code: the signer
// (sign.go) shares with it only ordMul, feMul, the blinded inversions and,
// for its k·G, the 8-lane kernel's multiplication, whose comb routines are
// its own and constant time (sign_lanes.go).
//
// crypto/ecdsa also stays the verifier for keys not (yet) worth a table,
// for anything but a 32-byte digest under a valid P-256 key, and for the
// exceptional case of the addition formula, so a verdict never rests on a
// code path the standard library could not have decided.

// Table geometry is a property of a table: signed digits of bits bits, so
// each of count windows stores the multiples 1..half and a negative digit
// negates y. (bits must not divide 256: the last window, which absorbs the
// recoding carry, has to begin inside the scalar.) G's table is shared and
// built once, so it affords wider windows than a key's, which is paid for
// per identity: 26 additions instead of 37 for 852 KB instead of 148 KiB.
const (
	gWinBits   = 10
	keyWinBits = 7

	// maxKeyTables bounds the resident per-key tables: 64 × 148 KiB ≈ 9.3 MiB
	// (plus G's, which is shared and never evicted). The least recently
	// used entry goes first.
	maxKeyTables = 64

	// PromoteAfter is the rent-or-buy threshold: a key gets its table once
	// it has been verified this many times on the standard library. A
	// table costs about as much to build as 11 such verifications (≈ 1.1 ms
	// against ≈ 100 µs on a 2-CPU Xeon; both scale with the CPU; 13–14
	// before the field kernel of p256.go), so a key that stops recurring
	// right after promotion has cost less than twice the optimum, and a key
	// seen a few times costs nothing. The break-even alone would now put the
	// threshold near 11; it stays 16 until a workload with non-recurring
	// signers can show the difference. The hotpath record measures both
	// sides (key_table_build, ecdsa_verify_stdlib) and gates their ratio
	// against this constant.
	PromoteAfter = 16

	// maxColdKeys bounds the use counters of keys below the threshold.
	maxColdKeys = 1024

	// affineLevelMin and laneLevelMin are how many additions a level of a
	// batch must hold to be done in affine coordinates, on the scalar
	// kernel and on the 8-lane one: a level pays once its additions cost
	// less than the mixed additions (addMixed, 8 M + 3 S) they save in the
	// final chains.
	//
	// Scalar: an addition is 1 S + 2 M and a 3 M share of the level's
	// inversion, so the level pays from inversion ÷ (addMixed − affine
	// add). Over seven interleaved rounds on a 2-CPU Xeon (CPU model 207),
	// BenchmarkFeInvVar, AddMixed and AddAffine read 2.73–3.20 µs,
	// 238–306 ns and 145–179 ns, and the quotient 22.5–31.3, median 25.7.
	//
	// Lanes: BenchmarkAddAffineLanes prices an addition with everything its
	// level does (both passes, the joint feInvVar, the padded tail group)
	// at a given level size; over five rounds on the same host it read
	// 292–360 ns at 12 pairs, 217–255 ns at 16 (median 227) and 192–253 ns
	// at 20, against AddMixed's 224–310 ns (median 239): 16 is the
	// break-even. (At 256 pairs it reads 60–71 ns, against AddAffine's
	// 153–166 ns.)
	affineLevelMin = 26
	laneLevelMin   = 16

	// FullBatch is the batch length callers cut their work into (pipeline's
	// vscc ranges, core's rounds). At 39 signatures, five of a batch's six
	// levels of point additions ran in affine coordinates with the
	// square-and-multiply inversion's threshold (77): the fifth holds two
	// additions per signature. A batch twice as long saves only a smaller
	// share of the same five inversions, about a twentieth of the
	// arithmetic with the square-and-multiply inversion and a thirtieth
	// with the addition chain. With the kernel's chord addition,
	// BenchmarkVerify/batch with ranges of 24, 27, 39 and 54 costs 14.2,
	// 14.5, 12.9 and 13.8 µs per signature (medians of seven interleaved
	// rounds; ÷ the 39 of the same round 1.10, 1.07, 1 and 1.07), so 39
	// stayed the best of the four. It is a literal, not derived from the
	// thresholds above: re-pricing them must not shrink every range, and
	// moving it needs a sweep of its own.
	FullBatch = 39
)

// combTable holds pts[i·half + j−1] = j · 2^(bits·i) · P.
type combTable struct {
	bits, count, half int
	pts               []affinePoint
}

// bytes is the table's resident size.
func (t *combTable) bytes() int64 { return int64(len(t.pts)) * 64 }

// newCombTable builds the table of base, a point on the curve, with windows
// of bits bits.
func newCombTable(base affinePoint, bits int) *combTable {
	t := &combTable{bits: bits, count: (256 + bits) / bits, half: 1 << (bits - 1)}
	// The window bases 2^(bits·i)·P, made affine so that every further
	// multiple is a mixed addition.
	doubled := make([]jacobianPoint, t.count)
	p := jacobianPoint{x: base.x, y: base.y, z: feOne}
	for i := range doubled {
		doubled[i] = p
		for k := 0; k < bits && i < t.count-1; k++ {
			p.double()
		}
	}
	bases := make([]affinePoint, t.count)
	toAffine(bases, doubled)

	t.pts = make([]affinePoint, t.count*t.half)
	jac := make([]jacobianPoint, len(t.pts))
	for i := range bases {
		row := jac[i*t.half : (i+1)*t.half]
		row[0] = jacobianPoint{x: bases[i].x, y: bases[i].y, z: feOne}
		row[1] = row[0]
		row[1].double()
		for j := 2; j < t.half; j++ {
			row[j] = row[j-1]
			row[j].addMixed(&bases[i]) // j·B + B with 1 < j < n: never exceptional
		}
	}
	toAffine(t.pts, jac)
	return t
}

// gather appends to dst the points whose sum is k·P, P being t's point: one
// per non-zero digit of k's signed recoding. It works in three passes so
// that no branch depends on k and the table's cache misses overlap: it
// recodes every window into a table index and a sign mask (a zero digit
// is written and then overwritten), copies the points in one loop, and
// negates y where the digit is negative by a masked select.
//
// bmaclint:noalloc
func (t *combTable) gather(dst []affinePoint, k *[4]uint64) []affinePoint {
	var (
		idx      [maxWindows]int32
		signs    [maxWindows]uint64 // all ones where the digit is negative
		n, carry uint64
	)
	full, half := uint64(2*t.half), uint64(t.half)
	for i := 0; i < t.count; i++ {
		limb, off := i*t.bits/64, uint(i*t.bits%64)
		v := k[limb] >> off
		if int(off)+t.bits > 64 && limb < 3 {
			v |= k[limb+1] << (64 - off)
		}
		v = v&(full-1) + carry
		carry = (half - v) >> 63 // the digit is v − full
		neg := -carry
		v ^= (v ^ (full - v)) & neg
		idx[n], signs[n] = int32(uint64(i)*half+v-1), neg
		n += (v | -v) >> 63
	}
	start := len(dst)
	for _, i := range idx[:n] {
		dst = append(dst, t.pts[i])
	}
	for j := range dst[start:] {
		feNegIf(&dst[start+j].y, signs[j])
	}
	return dst
}

// maxWindows is the most windows a table has: a key's, whose windows are
// the narrower.
const maxWindows = (256 + keyWinBits) / keyWinBits

// feNegIf sets y = −y where mask is all ones and leaves it where mask is
// zero, for 0 < y < p: (y ⊕ mask) + ((p + 1) ∧ mask) mod 2²⁵⁶ is
// 2²⁵⁶ − 1 − y + p + 1 ≡ p − y, feNeg's result. The limbs of p + 1 are 0,
// p1 + 1, p2 and p3.
func feNegIf(y *fe, mask uint64) {
	y[0] ^= mask
	var c uint64
	y[1], c = bits.Add64(y[1]^mask, (p1+1)&mask, 0)
	y[2], c = bits.Add64(y[2]^mask, p2&mask, c)
	y[3], _ = bits.Add64(y[3]^mask, p3&mask, c)
}

var (
	nBig         = elliptic.P256().Params().N
	pMinusNLimbs = limbsOfBig(new(big.Int).Sub(elliptic.P256().Params().P, nBig))
	curveB, _    = feFromLimbs(limbsOfBig(elliptic.P256().Params().B))
	nMont, _     = feFromLimbs(nLimbs)
)

func limbsOfBig(v *big.Int) [4]uint64 {
	var b [ScalarSize]byte
	v.FillBytes(b[:])
	return limbsFromBytes(&b)
}

// verifyReq is one verification handed to the engine, the paper's request
// tuple: a public key resolved once (verifyKey), a digest — 32 bytes for the
// tables; crypto/ecdsa takes any other — and the 32-byte r and s. The
// verdict, crypto/ecdsa's, comes back in valid. table is the engine's own:
// pub's table while the request is in the batch arithmetic.
type verifyReq struct {
	verifyKey
	digest []byte
	parts  SignatureParts
	table  *combTable
	valid  bool
}

// batchSig is one signature inside verifyTabled: its points are pts[off],
// pts[off+stride], …, n of them (batchScratch.stride), and n = −1 once it
// has left the batch undecided.
type batchSig struct {
	req, off, n int
	r           [4]uint64
	w, pre      [4]uint64 // Montgomery form mod n: s, then s⁻¹; the product of every s up to this one
}

// batchScratch is verifyTabled's working memory, pooled and pointer-free,
// bounded by the caller's batch: 63 points of 64 B, 31 pairs, 2 × 31
// field elements and a batchSig per signature ≈ 6 KB, and 320 B of lane
// products per eight pairs of the first level, ≈ 1.2 KB, plus 3.2 KB of
// lane temporaries once (≈ 290 KB for the FullBatch = 39 signatures of a
// caller's largest range).
type batchScratch struct {
	sigs     []batchSig
	pts      []affinePoint
	stride   int     // between a signature's points: 2^levels done
	pairs    []int32 // a level's pairs (pairUp)
	den, pre []fe    // scalarLevel's
	lanePre  []laneFE
	laneTmp  laneTemps
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// verifyTabled is the engine's one verification routine: it decides every
// request of reqs that has a table, together. The checks are crypto/ecdsa's:
// 0 < r, s < n, then x(u1·G + u2·Q) ≡ r (mod n) with u1 = e·s⁻¹, u2 = r·s⁻¹.
// The requests share what can be shared: one inversion mod n for every s,
// and, level by level, one field inversion for the chords of every
// signature's pairwise point sums (reduceLevels). A decided request comes
// back with table = nil and its verdict in valid; one whose sum meets the
// exceptional case of the addition formula keeps its table, undecided — it
// alone — and the caller asks crypto/ecdsa. lanes puts the affine levels on
// the 8-lane kernel. Every chain of mixed additions ends in the r·Z² = X
// comparison. sc grows to the largest batch seen and is reused, so the
// steady state allocates nothing.
//
// bmaclint:noalloc
func verifyTabled(g *combTable, reqs []verifyReq, sc *batchScratch, lanes bool) {
	sigs, pts := sc.sigs[:0], sc.pts[:0]
	for i := range reqs {
		rq := &reqs[i]
		if rq.table == nil {
			continue
		}
		r, s := limbsFromBytes(&rq.parts.R), limbsFromBytes(&rq.parts.S)
		if r == ([4]uint64{}) || s == ([4]uint64{}) || !lessThan(&r, &nLimbs) || !lessThan(&s, &nLimbs) {
			rq.table, rq.valid = nil, false
			continue
		}
		sigs = append(sigs, batchSig{req: i, r: r, w: s})
	}
	sc.sigs = sigs
	if len(sigs) == 0 {
		return
	}
	invertScalars(sigs)
	for j := range sigs {
		sg := &sigs[j]
		rq := &reqs[sg.req]
		e := limbsFromBytes((*[HashSize]byte)(rq.digest))
		var u1, u2 [4]uint64
		ordMul(&u1, &e, &sg.w)
		ordMul(&u2, &sg.r, &sg.w)
		sg.off = len(pts)
		pts = g.gather(pts, &u1)
		pts = rq.table.gather(pts, &u2)
		sg.n = len(pts) - sg.off
	}
	sc.pts = pts
	sc.reduceLevels(lanes)

	for j := range sigs {
		sg := &sigs[j]
		sum, ok := sc.sum(sg)
		if !ok {
			continue
		}
		// x = X/Z² must be r or, when that is still a field element, r + n:
		// compare r·Z² with X instead of inverting Z.
		rq := &reqs[sg.req]
		var zz, t fe
		feSqr(&zz, &sum.z)
		rm, _ := feFromLimbs(sg.r) // r < n < p
		feMul(&t, &rm, &zz)
		rq.table, rq.valid = nil, t == sum.x
		if !rq.valid && lessThan(&sg.r, &pMinusNLimbs) {
			feAdd(&rm, &rm, &nMont)
			feMul(&t, &rm, &zz)
			rq.valid = t == sum.x
		}
	}
}

// sum adds up what reduceLevels left of sg's points on a chain of mixed
// additions; ok is false for an empty list (the sum is ∞) and when an
// addition, here or in reduceLevels, was exceptional.
//
// bmaclint:noalloc
func (sc *batchScratch) sum(sg *batchSig) (sum jacobianPoint, ok bool) {
	if sg.n < 1 {
		return sum, false
	}
	p := &sc.pts[sg.off]
	sum = jacobianPoint{x: p.x, y: p.y, z: feOne}
	for i := 1; i < sg.n; i++ {
		if !sum.addMixed(&sc.pts[sg.off+i*sc.stride]) {
			return sum, false
		}
	}
	return sum, true
}

// invertScalars replaces every sigs[j].w, holding s, by s⁻¹ in Montgomery
// form, with one inversion mod n for all of them (Montgomery's trick): the
// variable-time ordInvVar (≈ 2.9 µs against ordInv's ≈ 12 µs on a 2-CPU
// Xeon), which is sound because every s is public.
//
// bmaclint:noalloc
func invertScalars(sigs []batchSig) {
	acc := [4]uint64{1}
	ordMul(&acc, &acc, &ordRR) // 1 in Montgomery form
	for j := range sigs {
		sg := &sigs[j]
		ordMul(&sg.w, &sg.w, &ordRR)
		ordMul(&acc, &acc, &sg.w)
		sg.pre = acc
	}
	var inv [4]uint64
	ordInvVar(&inv, &acc)
	for j := len(sigs) - 1; j > 0; j-- {
		s := sigs[j].w
		ordMul(&sigs[j].w, &inv, &sigs[j-1].pre)
		ordMul(&inv, &inv, &s)
	}
	sigs[0].w = inv
}

// reduceLevels halves every signature's point list, level by level, adding
// its points pairwise in affine coordinates, while a level holds enough
// additions across the batch to pay for the inversion their chords share:
// laneLevelMin on the 8-lane kernel (lanes), affineLevelMin on the scalar
// one.
//
// bmaclint:noalloc
func (sc *batchScratch) reduceLevels(lanes bool) {
	levelMin := affineLevelMin
	if lanes {
		levelMin = laneLevelMin
	}
	for sc.stride = 1; ; {
		adds := 0
		for j := range sc.sigs {
			adds += max(sc.sigs[j].n, 0) / 2
		}
		if adds < levelMin {
			return
		}
		sc.level(lanes)
	}
}

// level is one level. Each pair's sum is written over the pair's first
// point, which is where the next level, at twice the stride, looks for it;
// an odd list's last point is in its place already, so nothing is copied.
// The lanes and the scalar kernel leave the same points bit for bit.
//
// bmaclint:noalloc
func (sc *batchScratch) level(lanes bool) {
	if sc.pairUp(); len(sc.pairs) > 0 {
		if lanes {
			sc.laneLevel()
		} else {
			sc.scalarLevel()
		}
	}
	for j := range sc.sigs {
		if sg := &sc.sigs[j]; sg.n > 0 {
			sg.n = (sg.n + 1) / 2
		}
	}
	sc.stride *= 2
}

// pairUp lists a level's pairs in sc.pairs, signature by signature: k for
// the pair pts[k], pts[k+stride]. A pair with equal x (P = ±Q: a doubling
// or ∞) is found here, before its zero denominator can enter the shared
// product: that signature leaves the batch (n = −1) and the list, its
// neighbours are untouched.
//
// bmaclint:noalloc
func (sc *batchScratch) pairUp() {
	pairs := sc.pairs[:0]
	for j := range sc.sigs {
		sg := &sc.sigs[j]
		mark := len(pairs)
		for i := 0; i+1 < sg.n; i += 2 {
			k := sg.off + i*sc.stride
			if sc.pts[k].x == sc.pts[k+sc.stride].x {
				pairs, sg.n = pairs[:mark], -1
				break
			}
			pairs = append(pairs, int32(k))
		}
	}
	sc.pairs = pairs
}

// scalarLevel adds every listed pair on the scalar kernel: the chords'
// denominators inverted together (invertAll), then addAffine.
//
// bmaclint:noalloc
func (sc *batchScratch) scalarLevel() {
	pts, den, d := sc.pts, sc.den[:0], sc.stride
	for _, k := range sc.pairs {
		var x fe
		feSub(&x, &pts[int(k)+d].x, &pts[k].x)
		den = append(den, x)
	}
	sc.den, sc.pre = den, append(sc.pre[:0], den...) // sized alike; invertAll overwrites both
	invertAll(den, sc.pre)
	for i, k := range sc.pairs {
		addAffine(&pts[k], &pts[k], &pts[int(k)+d], &den[i])
	}
}

// laneLevel is scalarLevel on the 8-lane kernel (p256_lanes_amd64.s), the
// software's ecdsa_engines working in space: lane l of group c adds pair
// 8c + l, the tail group is padded with copies of the first pair, whose
// sums are not written. lanesPrefix leaves in pre[c] each lane's product
// of its denominators up to group c; the eight products of the last group
// are inverted together here, by one feInvVar; lanesChord walks the groups
// back, taking each group's inverses from the running one and pre of the
// group before, and adds the pairs. The lanes multiply with R′ = 2²⁶⁰, not
// 2²⁵⁶, so each step drops a factor 2⁴: every chain has the same length,
// and one constant, laneInvScale = 2⁶, put back into the eight inverses
// makes each λ = (y2 − y1)/(x2 − x1) come out with two factors 2 to spare,
// which λ² consumes; the kernel shifts λ·(x1 − x3) left by two.
//
// bmaclint:noalloc
func (sc *batchScratch) laneLevel() {
	n := len(sc.pairs)
	groups := (n + 7) / 8
	for len(sc.pairs) < 8*groups {
		sc.pairs = append(sc.pairs, sc.pairs[0])
	}
	if cap(sc.lanePre) < groups {
		sc.lanePre = make([]laneFE, groups) // bmaclint:allow allocbound (regrown to the largest level seen, then reused)
	}
	pre := sc.lanePre[:groups]
	pts, next := &sc.pts[0], &sc.pts[sc.stride] // a pair's points, pts[k] and next[k]
	lanesPrefix(pts, next, &sc.pairs[0], &pre[0], groups)
	var prod, prefix [8]fe
	for l := range prod {
		prod[l] = pre[groups-1].get(l)
	}
	invertAll(prod[:], prefix[:])
	for l := range prod {
		feMul(&prod[l], &prod[l], &laneInvScale)
		sc.laneTmp.i.set(l, &prod[l])
	}
	lanesChord(pts, next, &sc.pairs[0], &pre[0], &sc.laneTmp, groups, n-8*(groups-1))
}

// laneFE is eight field elements, one per lane, in radix 2⁵²: limb j of
// lane l at [j][l]. It is the 8-lane kernel's operand.
type laneFE [5][8]uint64

// laneTemps is lanesChord's working memory, in the order
// p256_lanes_gen.go addresses it: the gathered coordinates, the two
// differences, the running inverse (i, set by laneLevel), the group's
// inverses, λ and x3.
type laneTemps struct {
	x1, y1, x2, y2, d, dy, i, inv, l, x3 laneFE
}

// laneInvScale is 2⁶ in Montgomery form; see laneLevel.
var laneInvScale, _ = feFromLimbs([4]uint64{1 << 6})

// get returns lane l of v, which must be below 2²⁵⁸ in 52-bit limbs, as a
// canonical field element. It is variable time; pack is not.
//
// bmaclint:noalloc
func (v *laneFE) get(l int) fe {
	a := [4]uint64(v.pack(l))
	top := v[4][l] >> 48
	for top != 0 || !lessThan(&a, &pLimbs) {
		var b uint64
		for i := range a {
			a[i], b = bits.Sub64(a[i], pLimbs[i], b)
		}
		top -= b
	}
	return fe(a)
}

// pack returns the low 256 bits of lane l of v, in 52-bit limbs: lane l
// itself where it is below 2²⁵⁶, as a canonical lane is.
//
// bmaclint:noalloc
func (v *laneFE) pack(l int) fe {
	return fe{v[0][l] | v[1][l]<<52, v[1][l]>>12 | v[2][l]<<40, v[2][l]>>24 | v[3][l]<<28, v[3][l]>>36 | v[4][l]<<16}
}

// set stores x as lane l of v.
//
// bmaclint:noalloc
func (v *laneFE) set(l int, x *fe) {
	const m = 1<<52 - 1
	v[0][l] = x[0] & m
	v[1][l] = (x[0]>>52 | x[1]<<12) & m
	v[2][l] = (x[1]>>40 | x[2]<<24) & m
	v[3][l] = (x[2]>>28 | x[3]<<36) & m
	v[4][l] = x[3] >> 16
}

// gTable is the generator's table: shared, immutable, built on first use.
var gTable = sync.OnceValue(func() *combTable { return newCombTable(generator(), gWinBits) })

// generator returns G.
func generator() affinePoint {
	c := elliptic.P256().Params()
	gx, _ := feFromLimbs(limbsOfBig(c.Gx))
	gy, _ := feFromLimbs(limbsOfBig(c.Gy))
	return affinePoint{x: gx, y: gy}
}

// pointKey identifies a public key by its affine coordinates, X ‖ Y.
type pointKey [2 * ScalarSize]byte

// verifyKey is a public key as the engine takes it, resolved
// once per key and batch: pt is X ‖ Y; eligible is false for anything but a
// P-256 key with coordinates of at most 256 bits, left to crypto/ecdsa.
type verifyKey struct {
	pub      *ecdsa.PublicKey
	pt       pointKey
	eligible bool
}

func resolveKey(pub *ecdsa.PublicKey) verifyKey {
	k := verifyKey{pub: pub}
	if pub.Curve != elliptic.P256() || pub.X == nil || pub.Y == nil ||
		pub.X.Sign() < 0 || pub.Y.Sign() < 0 || pub.X.BitLen() > 256 || pub.Y.BitLen() > 256 {
		return k
	}
	pub.X.FillBytes(k.pt[:ScalarSize])
	pub.Y.FillBytes(k.pt[ScalarSize:])
	k.eligible = true
	return k
}

// keyEntry is one promoted key. table stays nil while the table is being
// built, and for good if the key is not a point of the curve.
type keyEntry struct {
	table    atomic.Pointer[combTable]
	lastUsed atomic.Uint64 // keyTables.epoch at the last use, for eviction
}

// keyTables is the engine's identity cache: the tables of the recurring
// keys, looked up without a lock, and use counters for the others. It holds
// no per-signature state. The zero value is ready.
type keyTables struct {
	hot   atomic.Pointer[map[pointKey]*keyEntry] // copy-on-write, replaced under mu
	epoch atomic.Uint64                          // advances with every promotion

	mu   sync.Mutex
	cold map[pointKey]int // guarded by mu; uses so far of keys below PromoteAfter

	tableVerifies  atomic.Int64
	stdlibVerifies atomic.Int64
	fallbacks      atomic.Int64
	built          atomic.Int64
	evicted        atomic.Int64
}

// engine is the process-wide instance behind Verify, VerifyDigest and
// VerifyParts: identities outlive peers and configurations.
var engine keyTables

// EngineStats counts what the verification engine did since process start.
type EngineStats struct {
	TableVerifies  int64 // verdicts computed from key tables
	StdlibVerifies int64 // verdicts computed by crypto/ecdsa, fallbacks included
	Fallbacks      int64 // table verifications handed to crypto/ecdsa (exceptional addition)
	TablesBuilt    int64
	TablesEvicted  int64 // least recently used keys dropped at the cap
	ResidentBytes  int64 // tables currently held, each at its own size, G's included
}

// KeyTableStats reports the process-wide engine's counters.
func KeyTableStats() EngineStats { return engine.stats() }

func (kt *keyTables) stats() EngineStats {
	st := EngineStats{
		TableVerifies:  kt.tableVerifies.Load(),
		StdlibVerifies: kt.stdlibVerifies.Load(),
		Fallbacks:      kt.fallbacks.Load(),
		TablesBuilt:    kt.built.Load(),
		TablesEvicted:  kt.evicted.Load(),
	}
	if hot := kt.hot.Load(); hot != nil {
		for _, e := range *hot {
			if t := e.table.Load(); t != nil {
				st.ResidentBytes += t.bytes()
			}
		}
	}
	if st.TablesBuilt > 0 {
		st.ResidentBytes += gTable().bytes() // built with the first key's
	}
	return st
}

// verify is the engine's one entry point: the verdict of crypto/ecdsa for
// every request, those under keys that have a table decided together, their
// affine levels on the 8-lane kernel wherever the CPU has it.
func (kt *keyTables) verify(reqs []verifyReq) { kt.verifyOn(reqs, haveLanes && !scalarLevels) }

// scalarLevels makes verify run the affine levels on the scalar kernel on a
// CPU that has the lanes. Only tests set it, so that both paths run there.
var scalarLevels bool

// verifyOn is verify with the affine levels on the lanes or not.
func (kt *keyTables) verifyOn(reqs []verifyReq, lanes bool) {
	tabled := 0
	for i := range reqs {
		rq := &reqs[i]
		if !rq.eligible || len(rq.digest) != HashSize {
			kt.verifyStdlib(rq)
		} else if e := kt.lookup(rq.pt); e == nil {
			promote := kt.countUse(rq.pt)
			kt.verifyStdlib(rq)
			if promote {
				kt.promote(rq.pt)
			}
		} else if rq.table = e.table.Load(); rq.table == nil {
			kt.verifyStdlib(rq)
		} else {
			tabled++
		}
	}
	if tabled == 0 {
		return
	}
	sc := scratchPool.Get().(*batchScratch)
	verifyTabled(gTable(), reqs, sc, lanes)
	scratchPool.Put(sc)
	for i := range reqs {
		if rq := &reqs[i]; rq.table != nil { // undecided: an exceptional addition
			rq.table = nil
			kt.fallbacks.Add(1)
			kt.verifyStdlib(rq)
			tabled--
		}
	}
	kt.tableVerifies.Add(int64(tabled))
}

func (kt *keyTables) verifyStdlib(rq *verifyReq) {
	kt.stdlibVerifies.Add(1)
	r, s := new(big.Int).SetBytes(rq.parts.R[:]), new(big.Int).SetBytes(rq.parts.S[:])
	rq.valid = r.Sign() > 0 && s.Sign() > 0 && ecdsa.Verify(rq.pub, rq.digest, r, s)
}

// lookup returns k's entry, or nil, and marks it used. Lock-free; the mark
// writes only in the first use after a promotion.
func (kt *keyTables) lookup(k pointKey) *keyEntry {
	hot := kt.hot.Load()
	if hot == nil {
		return nil
	}
	e := (*hot)[k]
	if e != nil {
		if now := kt.epoch.Load(); e.lastUsed.Load() != now {
			e.lastUsed.Store(now)
		}
	}
	return e
}

// countUse records one standard-library verification under k and reports
// whether it is the one that reaches the threshold.
func (kt *keyTables) countUse(k pointKey) bool {
	kt.mu.Lock()
	defer kt.mu.Unlock()
	n := kt.cold[k] + 1
	if n >= PromoteAfter {
		delete(kt.cold, k)
		return true
	}
	if kt.cold == nil {
		kt.cold = make(map[pointKey]int)
	}
	if _, ok := kt.cold[k]; !ok && len(kt.cold) >= maxColdKeys {
		for victim := range kt.cold { // any one: the counters are a filter, not a record
			delete(kt.cold, victim)
			break
		}
	}
	kt.cold[k] = n
	return false
}

// promote publishes an entry for k, evicting the least recently used one
// beyond maxKeyTables, and then builds k's table on the calling goroutine,
// outside every lock. Publishing first makes the build happen once:
// concurrent verifications under k find the entry, see no table yet and use
// crypto/ecdsa.
func (kt *keyTables) promote(k pointKey) {
	e := new(keyEntry)
	kt.mu.Lock()
	next := map[pointKey]*keyEntry{k: e}
	if hot := kt.hot.Load(); hot != nil {
		if (*hot)[k] != nil {
			kt.mu.Unlock()
			return
		}
		for hk, he := range *hot {
			next[hk] = he
		}
	}
	e.lastUsed.Store(kt.epoch.Add(1))
	if len(next) > maxKeyTables {
		var victim pointKey
		oldest := ^uint64(0)
		for hk, he := range next {
			if u := he.lastUsed.Load(); u < oldest {
				victim, oldest = hk, u
			}
		}
		delete(next, victim)
		kt.evicted.Add(1)
	}
	kt.hot.Store(&next)
	kt.mu.Unlock()

	x, okx := feFromLimbs(limbsFromBytes((*[ScalarSize]byte)(k[:ScalarSize])))
	y, oky := feFromLimbs(limbsFromBytes((*[ScalarSize]byte)(k[ScalarSize:])))
	if !okx || !oky || !onCurve(&x, &y) {
		return // crypto/ecdsa rejects such a key on every call
	}
	gTable() // a one-off build of about five of this one (≈ 5 ms)
	e.table.Store(newCombTable(affinePoint{x: x, y: y}, keyWinBits))
	kt.built.Add(1)
}

// BuildKeyTable builds pub's table on a store of its own and drops it,
// leaving the process-wide engine as it was; false means pub is not a P-256
// point and can have no table. It exists so the hotpath record can time a
// build without evicting the tables of the identities being served.
func BuildKeyTable(pub *ecdsa.PublicKey) bool {
	k := resolveKey(pub)
	if !k.eligible {
		return false
	}
	var kt keyTables
	kt.promote(k.pt)
	return kt.built.Load() == 1
}

// onCurve reports y² = x³ − 3x + b.
func onCurve(x, y *fe) bool {
	var lhs, rhs, t fe
	feSqr(&lhs, y)
	feSqr(&rhs, x)
	feMul(&rhs, &rhs, x)
	feAdd(&t, x, x)
	feAdd(&t, &t, x)
	feSub(&rhs, &rhs, &t)
	feAdd(&rhs, &rhs, &curveB)
	return lhs == rhs
}
