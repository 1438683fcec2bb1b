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
// (Signer.Sign*) calls crypto/ecdsa with rand.Reader and nothing else.
//
// crypto/ecdsa also stays the verifier for keys not (yet) worth a table,
// for anything but a 32-byte digest under a valid P-256 key, and for the
// exceptional case of the addition formula, so a verdict never rests on a
// code path the standard library could not have decided.

// Table geometry: signed digits of winBits bits, so each of winCount windows
// stores the multiples 1..winHalf and a negative digit negates y. (winBits
// must not divide 256: the last window, which absorbs the recoding carry,
// has to begin inside the scalar.)
const (
	winBits  = 7
	winCount = (256 + winBits) / winBits // covers 256 bits plus the recoding carry
	winHalf  = 1 << (winBits - 1)

	// keyTableBytes is the size of one key's table (37 × 64 points × 64 B).
	keyTableBytes = winCount * winHalf * 64

	// maxKeyTables bounds the resident per-key tables: 64 × 148 KiB ≈ 9.3 MiB
	// (plus G's, which is shared and never evicted). The least recently
	// used entry goes first.
	maxKeyTables = 64

	// PromoteAfter is the rent-or-buy threshold: a key gets its table once
	// it has been verified this many times on the standard library. A
	// table costs about as much to build as 13 such verifications (≈ 1.15 ms
	// against ≈ 89 µs on the reference host; both scale with the CPU), so
	// a key that stops recurring right after promotion has cost less than
	// twice the optimum, and a key seen a few times costs nothing. The
	// hotpath record measures both sides (key_table_build,
	// ecdsa_verify_stdlib) and gates their ratio against this constant.
	PromoteAfter = 16

	// maxColdKeys bounds the use counters of keys below the threshold.
	maxColdKeys = 1024
)

// combTable holds pts[i·winHalf + j−1] = j · 2^(winBits·i) · P.
type combTable struct {
	pts [winCount * winHalf]affinePoint
}

// newCombTable builds the table of base, a point on the curve.
func newCombTable(base affinePoint) *combTable {
	// The window bases 2^(winBits·i)·P, made affine so that every further
	// multiple is a mixed addition.
	var doubled [winCount]jacobianPoint
	p := jacobianPoint{x: base.x, y: base.y, z: feOne}
	for i := range doubled {
		doubled[i] = p
		for k := 0; k < winBits && i < winCount-1; k++ {
			p.double()
		}
	}
	var bases [winCount]affinePoint
	toAffine(bases[:], doubled[:])

	t := new(combTable)
	jac := make([]jacobianPoint, len(t.pts))
	for i := range bases {
		row := jac[i*winHalf : (i+1)*winHalf]
		row[0] = jacobianPoint{x: bases[i].x, y: bases[i].y, z: feOne}
		row[1] = row[0]
		row[1].double()
		for j := 2; j < winHalf; j++ {
			row[j] = row[j-1]
			row[j].addMixed(&bases[i]) // j·B + B with 1 < j < n: never exceptional
		}
	}
	toAffine(t.pts[:], jac)
	return t
}

// pointSum accumulates table points; the zero value is the empty sum.
type pointSum struct {
	p   jacobianPoint
	set bool
}

// addMult adds k·P to s, P being t's point; false means an addition hit the
// exceptional case and s is no longer meaningful.
func (t *combTable) addMult(s *pointSum, k *[4]uint64) bool {
	var carry uint64
	for i := 0; i < winCount; i++ {
		limb, off := i*winBits/64, uint(i*winBits%64)
		v := k[limb] >> off
		if off+winBits > 64 && limb < 3 {
			v |= k[limb+1] << (64 - off)
		}
		v = v&(2*winHalf-1) + carry
		neg := v > winHalf
		if carry = 0; neg {
			v, carry = 2*winHalf-v, 1
		}
		if v == 0 {
			continue
		}
		q := t.pts[i*winHalf+int(v)-1]
		if neg {
			feNeg(&q.y, &q.y)
		}
		if !s.set {
			s.p, s.set = jacobianPoint{x: q.x, y: q.y, z: feOne}, true
		} else if !s.p.addMixed(&q) {
			return false
		}
	}
	return true
}

var (
	nBig         = elliptic.P256().Params().N
	nLimbs       = limbsOfBig(nBig)
	pMinusNLimbs = limbsOfBig(new(big.Int).Sub(elliptic.P256().Params().P, nBig))
	curveB, _    = feFromLimbs(limbsOfBig(elliptic.P256().Params().B))
	nMont, _     = feFromLimbs(nLimbs)
)

func limbsOfBig(v *big.Int) [4]uint64 {
	var b [ScalarSize]byte
	v.FillBytes(b[:])
	return limbsFromBytes(&b)
}

// verifyTables decides one signature from G's and the key's tables. The
// checks are crypto/ecdsa's: 0 < r, s < n, then x(u1·G + u2·Q) ≡ r (mod n)
// with u1 = e·s⁻¹, u2 = r·s⁻¹. decided is false when an addition was
// exceptional (or the sum is ∞) and the caller must ask crypto/ecdsa.
func verifyTables(g, q *combTable, digest *[HashSize]byte, sig *SignatureParts) (valid, decided bool) {
	r, s := limbsFromBytes(&sig.R), limbsFromBytes(&sig.S)
	if r == ([4]uint64{}) || s == ([4]uint64{}) || !lessThan(&r, &nLimbs) || !lessThan(&s, &nLimbs) {
		return false, true
	}
	w := new(big.Int).SetBytes(sig.S[:])
	w.ModInverse(w, nBig)
	u := new(big.Int).SetBytes(digest[:])
	u1 := limbsOfBig(u.Mod(u.Mul(u, w), nBig))
	u.SetBytes(sig.R[:])
	u2 := limbsOfBig(u.Mod(u.Mul(u, w), nBig))

	var sum pointSum
	if !g.addMult(&sum, &u1) || !q.addMult(&sum, &u2) || !sum.set {
		return false, false
	}
	// x = X/Z² must be r or, when that is still a field element, r + n:
	// compare r·Z² with X instead of inverting Z.
	var zz, t fe
	feSqr(&zz, &sum.p.z)
	rm, _ := feFromLimbs(r) // r < n < p
	feMul(&t, &rm, &zz)
	if t == sum.p.x {
		return true, true
	}
	if lessThan(&r, &pMinusNLimbs) {
		feAdd(&rm, &rm, &nMont)
		feMul(&t, &rm, &zz)
		return t == sum.p.x, true
	}
	return false, true
}

// gTable is the generator's table: shared, immutable, built on first use.
var gTable = sync.OnceValue(func() *combTable {
	c := elliptic.P256().Params()
	gx, _ := feFromLimbs(limbsOfBig(c.Gx))
	gy, _ := feFromLimbs(limbsOfBig(c.Gy))
	return newCombTable(affinePoint{x: gx, y: gy})
})

// pointKey identifies a public key by its affine coordinates, X ‖ Y.
type pointKey [2 * ScalarSize]byte

// pointKeyOf returns pub's key; ok is false for anything that is not a
// P-256 key with coordinates of at most 256 bits, which stays with
// crypto/ecdsa.
func pointKeyOf(pub *ecdsa.PublicKey) (k pointKey, ok bool) {
	if pub.Curve != elliptic.P256() || pub.X == nil || pub.Y == nil ||
		pub.X.Sign() < 0 || pub.Y.Sign() < 0 || pub.X.BitLen() > 256 || pub.Y.BitLen() > 256 {
		return k, false
	}
	pub.X.FillBytes(k[:ScalarSize])
	pub.Y.FillBytes(k[ScalarSize:])
	return k, true
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
	ResidentBytes  int64 // key tables currently held, G's included
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
			if e.table.Load() != nil {
				st.ResidentBytes += keyTableBytes
			}
		}
	}
	if st.TablesBuilt > 0 {
		st.ResidentBytes += keyTableBytes // G's, built with the first key's
	}
	return st
}

// verify is the engine's one entry point: the verdict of crypto/ecdsa for
// (pub, digest, sig), from pub's table when it has one.
func (kt *keyTables) verify(pub *ecdsa.PublicKey, digest []byte, sig *SignatureParts) bool {
	k, eligible := pointKeyOf(pub)
	eligible = eligible && len(digest) == HashSize
	promote := false
	if eligible {
		if e := kt.lookup(k); e == nil {
			promote = kt.countUse(k)
		} else if t := e.table.Load(); t != nil {
			if valid, decided := verifyTables(gTable(), t, (*[HashSize]byte)(digest), sig); decided {
				kt.tableVerifies.Add(1)
				return valid
			}
			kt.fallbacks.Add(1)
		}
	}
	kt.stdlibVerifies.Add(1)
	r, s := new(big.Int).SetBytes(sig.R[:]), new(big.Int).SetBytes(sig.S[:])
	valid := r.Sign() > 0 && s.Sign() > 0 && ecdsa.Verify(pub, digest, r, s)
	if promote {
		kt.promote(k)
	}
	return valid
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
	gTable() // a one-off build the size of this one
	e.table.Store(newCombTable(affinePoint{x: x, y: y}))
	kt.built.Add(1)
}

// BuildKeyTable builds pub's table on a store of its own and drops it,
// leaving the process-wide engine as it was; false means pub is not a P-256
// point and can have no table. It exists so the hotpath record can time a
// build without evicting the tables of the identities being served.
func BuildKeyTable(pub *ecdsa.PublicKey) bool {
	k, ok := pointKeyOf(pub)
	if !ok {
		return false
	}
	var kt keyTables
	kt.promote(k)
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
