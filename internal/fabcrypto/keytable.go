package fabcrypto

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"math/big"
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
// inversion — on the variable-time arithmetic of p256.go.
//
// Every input of a verification is public, which is what makes variable
// time sound here. No secret-dependent value enters this code: signing
// (Signer.Sign*) calls crypto/ecdsa's RFC 6979 signer and nothing else.
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

	// affineLevelMin is how many additions a level of a batch must hold to
	// be done in affine coordinates, where one costs 6 field multiplications
	// (1 S + 2 M and a 3 M share of the level's inversion) against addMixed's
	// 11 (8 M + 3 S): it pays once a level saves an inversion's worth,
	// feInv ÷ (addMixed − affine add). The value 77 is 384 ÷ 5, from the
	// square-and-multiply inversion (384 M). The addition chain of feInv is
	// 255 S + 12 M, so the quotient is now 267 ÷ 5 ≈ 53; BenchmarkFeInv,
	// AddMixed and AddAffine measure 46–60 on a 2-CPU Xeon (≈ 80 with the
	// old inversion). The constant stays until the batch geometry is
	// measured end to end (ROADMAP item 3). One signature has at most 31
	// pairs, so a batch of one never gets here; the hotpath row
	// ecdsa_verify_batch ÷ ecdsa_verify_table pins it.
	affineLevelMin = 77

	// FullBatch is the fewest signatures that run five of a batch's six
	// levels of point additions in affine coordinates: the fifth holds two
	// additions per signature (the sixth, with one, would take
	// affineLevelMin signatures). A batch twice as long saves only a smaller
	// share of the same five inversions, about a twentieth of the
	// arithmetic with the square-and-multiply inversion and a thirtieth with
	// the addition chain, so callers that cut work into batches cut it
	// here. The re-derived affineLevelMin (46–60) would make it 23–30.
	FullBatch = (affineLevelMin + 1) / 2
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
// per non-zero digit of k's signed recoding.
//
// bmaclint:noalloc
func (t *combTable) gather(dst []affinePoint, k *[4]uint64) []affinePoint {
	var carry uint64
	full := uint64(2 * t.half)
	for i := 0; i < t.count; i++ {
		limb, off := i*t.bits/64, uint(i*t.bits%64)
		v := k[limb] >> off
		if int(off)+t.bits > 64 && limb < 3 {
			v |= k[limb+1] << (64 - off)
		}
		v = v&(full-1) + carry
		neg := v > uint64(t.half)
		if carry = 0; neg {
			v, carry = full-v, 1
		}
		if v == 0 {
			continue
		}
		dst = append(dst, t.pts[i*t.half+int(v)-1])
		if neg {
			q := &dst[len(dst)-1]
			feNeg(&q.y, &q.y)
		}
	}
	return dst
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

// batchSig is one signature inside verifyTabled: its points are
// pts[off : off+n], and n = −1 once it has left the batch undecided.
type batchSig struct {
	req, off, n int
	r           [4]uint64
	w, pre      [4]uint64 // Montgomery form mod n: s, then s⁻¹; the product of every s up to this one
}

// batchScratch is verifyTabled's working memory, pooled and pointer-free,
// bounded by the caller's batch: 63 points of 64 B, 2 × 31 field elements
// and a batchSig per signature ≈ 6 KB (≈ 240 KB for the FullBatch = 39
// signatures of a caller's largest range).
type batchScratch struct {
	sigs     []batchSig
	pts      []affinePoint
	den, pre []fe
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
// alone — and the caller asks crypto/ecdsa. A batch of one shares nothing and
// never reaches affineLevelMin: it is the plain chain of mixed additions and
// the r·Z² = X comparison. sc grows to the largest batch seen and is reused,
// so the steady state allocates nothing but invertScalars' one ModInverse.
//
// bmaclint:noalloc
func verifyTabled(g *combTable, reqs []verifyReq, sc *batchScratch) {
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
	sc.reduceLevels()

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
	pts := sc.pts[sg.off : sg.off+sg.n]
	sum = jacobianPoint{x: pts[0].x, y: pts[0].y, z: feOne}
	for k := 1; k < len(pts); k++ {
		if !sum.addMixed(&pts[k]) {
			return sum, false
		}
	}
	return sum, true
}

// invertScalars replaces every sigs[j].w, holding s, by s⁻¹ in Montgomery
// form, with one inversion mod n for all of them (Montgomery's trick).
func invertScalars(sigs []batchSig) {
	acc := [4]uint64{1}
	ordMul(&acc, &acc, &ordRR) // 1 in Montgomery form
	for j := range sigs {
		sg := &sigs[j]
		ordMul(&sg.w, &sg.w, &ordRR)
		ordMul(&acc, &acc, &sg.w)
		sg.pre = acc
	}
	ordMul(&acc, &acc, &[4]uint64{1}) // out of Montgomery form
	var b [ScalarSize]byte
	bytesFromLimbs(&b, acc)
	var v big.Int
	v.ModInverse(v.SetBytes(b[:]), nBig)
	inv := limbsOfBig(&v)
	ordMul(&inv, &inv, &ordRR)
	for j := len(sigs) - 1; j > 0; j-- {
		s := sigs[j].w
		ordMul(&sigs[j].w, &inv, &sigs[j-1].pre)
		ordMul(&inv, &inv, &s)
	}
	sigs[0].w = inv
}

// reduceLevels halves every signature's point list, level by level, adding
// its points pairwise in affine coordinates, while a level holds enough
// additions across the batch to pay for the inversion their chords share. A
// pair with equal x (P = ±Q: a doubling or ∞) is found before its zero
// denominator can enter the shared product: that signature leaves the batch
// (n = −1), its neighbours are untouched.
//
// bmaclint:noalloc
func (sc *batchScratch) reduceLevels() {
	pts := sc.pts
	for {
		adds := 0
		for j := range sc.sigs {
			adds += max(sc.sigs[j].n, 0) / 2
		}
		if adds < affineLevelMin {
			return
		}
		den := sc.den[:0]
		for j := range sc.sigs {
			sg := &sc.sigs[j]
			mark := len(den)
			for k := sg.off; k+1 < sg.off+sg.n; k += 2 {
				var d fe
				if feSub(&d, &pts[k+1].x, &pts[k].x); d == (fe{}) {
					den, sg.n = den[:mark], -1
					break
				}
				den = append(den, d)
			}
		}
		sc.den, sc.pre = den, append(sc.pre[:0], den...) // sized alike; invertAll overwrites both
		invertAll(den, sc.pre)
		for j := range sc.sigs {
			sg := &sc.sigs[j]
			if sg.n < 2 {
				continue
			}
			dst := sg.off
			for k := sg.off; k+1 < sg.off+sg.n; k, dst = k+2, dst+1 {
				addAffine(&pts[dst], &pts[k], &pts[k+1], &den[0])
				den = den[1:]
			}
			if sg.n%2 == 1 {
				pts[dst] = pts[sg.off+sg.n-1]
			}
			sg.n = (sg.n + 1) / 2
		}
	}
}

// gTable is the generator's table: shared, immutable, built on first use.
var gTable = sync.OnceValue(func() *combTable {
	c := elliptic.P256().Params()
	gx, _ := feFromLimbs(limbsOfBig(c.Gx))
	gy, _ := feFromLimbs(limbsOfBig(c.Gy))
	return newCombTable(affinePoint{x: gx, y: gy}, gWinBits)
})

// pointKey identifies a public key by its affine coordinates, X ‖ Y.
type pointKey [2 * ScalarSize]byte

// verifyKey is a public key as the engine and the SigCache take it, resolved
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
// every request, those under keys that have a table decided together.
func (kt *keyTables) verify(reqs []verifyReq) {
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
	verifyTabled(gTable(), reqs, sc)
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
