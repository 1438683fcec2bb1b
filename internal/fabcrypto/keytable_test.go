package fabcrypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// testKey derives a key pair from a seed alone, so fuzz inputs and corpus
// files mean the same key on every run.
func testKey(seed byte) *ecdsa.PrivateKey {
	h := sha256.Sum256([]byte{'k', 'e', 'y', seed})
	d := new(big.Int).SetBytes(h[:])
	d.Mod(d, new(big.Int).Sub(bigN, big.NewInt(1))).Add(d, big.NewInt(1))
	return keyOf(d)
}

func keyOf(d *big.Int) *ecdsa.PrivateKey {
	x, y := elliptic.P256().ScalarBaseMult(d.Bytes())
	return &ecdsa.PrivateKey{PublicKey: ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}, D: d}
}

// signWith is textbook ECDSA with a chosen nonce: deterministic, and able to
// sign digests that are not hashes.
func signWith(priv *ecdsa.PrivateKey, digest []byte, k *big.Int) (r, s *big.Int) {
	x, _ := elliptic.P256().ScalarBaseMult(k.Bytes())
	r = new(big.Int).Mod(x, bigN)
	e := new(big.Int).SetBytes(digest)
	s = new(big.Int).Mul(r, priv.D)
	s.Add(s, e).Mul(s, new(big.Int).ModInverse(k, bigN)).Mod(s, bigN)
	return r, s
}

// verifyOne is a batch of one on kt.
func verifyOne(kt *keyTables, pub *ecdsa.PublicKey, digest []byte, parts SignatureParts) bool {
	one := [1]verifyReq{reqOf(pub, digest, parts)}
	kt.verify(one[:])
	return one[0].valid
}

func reqOf(pub *ecdsa.PublicKey, digest []byte, parts SignatureParts) verifyReq {
	return verifyReq{verifyKey: resolveKey(pub), digest: digest, parts: parts}
}

func partsOf(r, s *big.Int) SignatureParts {
	var p SignatureParts
	r.FillBytes(p.R[:])
	s.FillBytes(p.S[:])
	return p
}

// tablesFor returns an engine in which every given key already has its
// table: the table path forced.
func tablesFor(t testing.TB, pubs ...*ecdsa.PublicKey) *keyTables {
	t.Helper()
	kt := new(keyTables)
	for _, pub := range pubs {
		k := resolveKey(pub)
		if !k.eligible {
			t.Fatal("not a P-256 key")
		}
		kt.promote(k.pt)
		if kt.lookup(k.pt).table.Load() == nil {
			t.Fatal("no table built")
		}
	}
	return kt
}

// checkVerdict verifies on the table path and directly with crypto/ecdsa and
// fails on any difference. It reports the verdict and whether the table path
// decided it (as opposed to falling back). The same tuple is then verified
// doubled and between valid neighbours, where its arithmetic is shared.
func checkVerdict(t testing.TB, kt *keyTables, pub *ecdsa.PublicKey, digest []byte, r, s *big.Int) (valid, onTable bool) {
	t.Helper()
	want := r.Sign() > 0 && s.Sign() > 0 && ecdsa.Verify(pub, digest, r, s)
	if r.Sign() < 0 || s.Sign() < 0 || r.BitLen() > 256 || s.BitLen() > 256 {
		if want {
			t.Fatalf("crypto/ecdsa accepts r %x s %x, which has no fixed-width form", r, s)
		}
		return false, false
	}
	x := reqOf(pub, digest, partsOf(r, s))
	before := kt.stats()
	alone := [1]verifyReq{x}
	kt.verify(alone[:])
	after := kt.stats()

	nb := neighbours()
	kn := withNeighbourTables(kt)
	for name, batch := range map[string][]verifyReq{
		"alone":   alone[:],
		"doubled": verifyBatchOf(kn, x, x),
		"between": verifyBatchOf(kn, nb[0].req, nb[1].req, x, nb[3].req, nb[4].req),
	} {
		for i := range batch {
			rq, w := &batch[i], true // a neighbour, unless it is x
			if rq.pub == pub && bytes.Equal(rq.digest, digest) && rq.parts == x.parts {
				w = want
			}
			if rq.valid != w {
				t.Fatalf("%s, item %d: engine says %v, crypto/ecdsa says %v\n pub (%x, %x)\n digest %x\n r %x\n s %x",
					name, i, rq.valid, w, rq.pub.X, rq.pub.Y, rq.digest, rq.parts.R, rq.parts.S)
			}
		}
	}
	return want, after.TableVerifies == before.TableVerifies+1
}

func verifyBatchOf(kt *keyTables, reqs ...verifyReq) []verifyReq {
	kt.verify(reqs)
	return reqs
}

// neighbour is a fixed tuple with its crypto/ecdsa verdict, for batches
// around a tuple under test. They sit under the five fuzz pool keys; one in
// three is invalid (a flipped digest bit); the first five are valid.
type neighbour struct {
	req  verifyReq
	want bool
}

var neighbours = sync.OnceValue(func() []neighbour {
	out := make([]neighbour, 40)
	for i := range out {
		priv := testKey(byte(i % fuzzKeys))
		digest := sha256.Sum256([]byte{'n', byte(i)})
		r, s := signWith(priv, digest[:], big.NewInt(int64(9000+i)))
		if i >= fuzzKeys && i%3 == 2 {
			digest[i%32] ^= 1
		}
		out[i] = neighbour{reqOf(&priv.PublicKey, digest[:], partsOf(r, s)), ecdsa.Verify(&priv.PublicKey, digest[:], r, s)}
		if out[i].want != (i < fuzzKeys || i%3 != 2) {
			panic("neighbour fixture: unexpected crypto/ecdsa verdict")
		}
	}
	return out
})

// neighbourTables holds the pool keys' tables, built once per test binary.
var neighbourTables = sync.OnceValue(func() *keyTables {
	kt := new(keyTables)
	for i := 0; i < fuzzKeys; i++ {
		kt.promote(resolveKey(&testKey(byte(i)).PublicKey).pt)
	}
	return kt
})

// withNeighbourTables returns an engine that has kt's tables and the pool
// keys', sharing the entries, so that kt's own counters stay what the
// caller's assertions expect.
func withNeighbourTables(kt *keyTables) *keyTables {
	hot := map[pointKey]*keyEntry{}
	for _, src := range []*keyTables{neighbourTables(), kt} {
		if m := src.hot.Load(); m != nil {
			for k, e := range *m {
				hot[k] = e
			}
		}
	}
	kn := new(keyTables)
	kn.hot.Store(&hot)
	return kn
}

const fuzzKeys = 5

// FuzzVerifyMatchesStdlib: for any key of the pool, digest and (r, s), the
// engine with the key's table in place reaches crypto/ecdsa's verdict —
// alone, going through the same DER as a client's signature does, and at
// position pos of a batch of 1 + size%40 among fixed valid and invalid
// neighbours, whose own verdicts must not depend on the fuzzed tuple.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	var pubs []*ecdsa.PublicKey
	for i := 0; i < fuzzKeys; i++ {
		priv := testKey(byte(i))
		pubs = append(pubs, &priv.PublicKey)
		digest := sha256.Sum256([]byte{byte(i)})
		r, s := signWith(priv, digest[:], big.NewInt(int64(1000+i)))
		f.Add(byte(i), digest[:], r.Bytes(), s.Bytes(), byte(i), byte(7*i))                                  // valid
		f.Add(byte(i), digest[:], r.Bytes(), new(big.Int).Sub(bigN, s).Bytes(), byte(0), byte(1))            // high-S twin
		f.Add(byte(i+1), digest[:], r.Bytes(), s.Bytes(), byte(3), byte(3))                                  // wrong key
		f.Add(byte(i), digest[:], new(big.Int).Add(r, big.NewInt(1)).Bytes(), s.Bytes(), byte(38), byte(39)) // r+1
		f.Add(byte(i), digest[:31], r.Bytes(), s.Bytes(), byte(1), byte(2))                                  // short digest
	}
	f.Add(byte(0), make([]byte, 32), []byte{1}, []byte{1}, byte(0), byte(0))
	f.Add(byte(0), bigN.Bytes(), bigN.Bytes(), bigP.Bytes(), byte(20), byte(29))
	kt := tablesFor(f, pubs...)
	nb := neighbours()
	f.Fuzz(func(t *testing.T, keySeed byte, digest, rb, sb []byte, pos, size byte) {
		pub := pubs[keySeed%fuzzKeys]
		r, s := new(big.Int).SetBytes(rb), new(big.Int).SetBytes(sb)
		before := kt.stats()
		want, onTable := checkVerdict(t, kt, pub, digest, r, s)
		after := kt.stats()
		inRange := r.BitLen() <= 256 && s.BitLen() <= 256
		if inRange && len(digest) == HashSize && !onTable && after.Fallbacks == before.Fallbacks {
			t.Fatalf("a 32-byte digest under a tabled key went to crypto/ecdsa without a fallback")
		}
		if inRange {
			batch := make([]verifyReq, 1+int(size)%len(nb))
			at := int(pos) % len(batch)
			for i := range batch {
				batch[i] = nb[i].req
			}
			batch[at] = reqOf(pub, digest, partsOf(r, s))
			kt.verify(batch)
			for i := range batch {
				if w := i == at && want || i != at && nb[i].want; batch[i].valid != w {
					t.Fatalf("batch of %d, fuzzed tuple at %d: item %d verified %v, crypto/ecdsa says %v", len(batch), at, i, batch[i].valid, w)
				}
			}
		}
		// The same tuple as a client sends it: DER, process-wide engine.
		if r.Sign() > 0 && s.Sign() > 0 {
			der, err := marshalDER(r, s)
			if err != nil {
				t.Fatal(err)
			}
			if got := VerifyDigest(pub, digest, der) == nil; got != want {
				t.Fatalf("VerifyDigest says %v, crypto/ecdsa says %v", got, want)
			}
		}
	})
}

// TestOversizeComponentIsBadSignature: a well-formed DER signature whose r
// or s exceeds 256 bits used to panic in big.Int.FillBytes.
func TestOversizeComponentIsBadSignature(t *testing.T) {
	pub := &testKey(0).PublicKey
	digest := make([]byte, 32)
	huge := new(big.Int).Lsh(big.NewInt(1), 299)
	for _, c := range [][2]*big.Int{{huge, big.NewInt(1)}, {big.NewInt(1), huge}, {new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)}} {
		der, err := marshalDER(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeDERToParts(der); !errors.Is(err, ErrBadSignature) {
			t.Errorf("DecodeDERToParts: err = %v, want ErrBadSignature", err)
		}
		if err := VerifyDigest(pub, digest, der); !errors.Is(err, ErrBadSignature) {
			t.Errorf("VerifyDigest: err = %v, want ErrBadSignature", err)
		}
		if err, _ := NewSigCache(16).VerifyDigest(pub, digest, der); !errors.Is(err, ErrBadSignature) {
			t.Errorf("SigCache.VerifyDigest: err = %v, want ErrBadSignature", err)
		}
	}
}

// TestVerifyEdgeTable walks the inputs where a hand-written verifier goes
// wrong first; every verdict must be crypto/ecdsa's.
func TestVerifyEdgeTable(t *testing.T) {
	priv := testKey(1)
	pub := &priv.PublicKey
	other := &testKey(2).PublicKey
	kt := tablesFor(t, pub, other)
	one := big.NewInt(1)
	digest := sha256.Sum256([]byte("edge"))

	t.Run("range", func(t *testing.T) {
		bounds := []*big.Int{
			big.NewInt(0), one, new(big.Int).Sub(bigN, one), bigN, new(big.Int).Add(bigN, one),
			bigP, new(big.Int).Sub(bigR, one),
		}
		for _, r := range bounds {
			for _, s := range bounds {
				if valid, _ := checkVerdict(t, kt, pub, digest[:], r, s); valid {
					t.Fatalf("r=%x s=%x verified", r, s)
				}
			}
		}
	})

	t.Run("valid, high-S twin, wrong key, tampered", func(t *testing.T) {
		r, s := signWith(priv, digest[:], big.NewInt(12345))
		highS := new(big.Int).Sub(bigN, s)
		if valid, onTable := checkVerdict(t, kt, pub, digest[:], r, s); !valid || !onTable {
			t.Fatalf("valid signature: valid=%v onTable=%v", valid, onTable)
		}
		if valid, _ := checkVerdict(t, kt, pub, digest[:], r, highS); !valid {
			t.Fatal("high-S twin rejected: crypto/ecdsa accepts it, and so must the engine")
		}
		if valid, onTable := checkVerdict(t, kt, other, digest[:], r, s); valid || !onTable {
			t.Fatalf("wrong key: valid=%v onTable=%v", valid, onTable)
		}
		flipped := digest
		flipped[7] ^= 0x10
		if valid, _ := checkVerdict(t, kt, pub, flipped[:], r, s); valid {
			t.Fatal("tampered digest verified")
		}
		if valid, _ := checkVerdict(t, kt, pub, digest[:], new(big.Int).Add(r, one), s); valid {
			t.Fatal("r+1 verified")
		}
	})

	t.Run("digests 0, 0xff.., n (u1 = 0)", func(t *testing.T) {
		ff := bytes.Repeat([]byte{0xff}, 32)
		for _, d := range [][]byte{make([]byte, 32), ff, bigN.Bytes()} {
			r, s := signWith(priv, d, big.NewInt(777))
			if valid, onTable := checkVerdict(t, kt, pub, d, r, s); !valid || !onTable {
				t.Fatalf("digest %x: valid=%v onTable=%v", d, valid, onTable)
			}
			if valid, _ := checkVerdict(t, kt, other, d, r, s); valid {
				t.Fatalf("digest %x verified under the wrong key", d)
			}
		}
	})

	t.Run("R.x >= n takes the r+n comparison", func(t *testing.T) {
		// No nonce with x(kG) ≥ n can be found by search (one x in 2¹²⁸), so
		// forge the other way round: pick R with x ∈ [n, p), pick e and s, and
		// solve for the key Q = u2⁻¹·(R − u1·G).
		c := elliptic.P256()
		x, y := new(big.Int).Set(bigN), (*big.Int)(nil)
		for ; y == nil; x.Add(x, one) {
			rhs := new(big.Int).Exp(x, big.NewInt(3), bigP)
			rhs.Sub(rhs, new(big.Int).Mul(x, big.NewInt(3))).Add(rhs, c.Params().B).Mod(rhs, bigP)
			if y = new(big.Int).ModSqrt(rhs, bigP); y != nil {
				break
			}
		}
		r := new(big.Int).Sub(x, bigN)
		e, s := sha256.Sum256([]byte("forged")), big.NewInt(0xabcdef)
		w := new(big.Int).ModInverse(s, bigN)
		u1 := new(big.Int).Mul(new(big.Int).SetBytes(e[:]), w)
		u1.Mod(u1, bigN)
		u2 := new(big.Int).Mul(r, w)
		u2.Mod(u2, bigN)
		gx, gy := c.ScalarBaseMult(u1.Bytes())
		dx, dy := c.Add(x, y, gx, new(big.Int).Sub(bigP, gy))
		qx, qy := c.ScalarMult(dx, dy, new(big.Int).ModInverse(u2, bigN).Bytes())
		forged := &ecdsa.PublicKey{Curve: c, X: qx, Y: qy}
		fkt := tablesFor(t, forged)
		if valid, onTable := checkVerdict(t, fkt, forged, e[:], r, s); !valid || !onTable {
			t.Fatalf("forged R.x = r+n signature: valid=%v onTable=%v", valid, onTable)
		}
		// r + n ≥ p: the second comparison must not be made with a wrapped value.
		if valid, _ := checkVerdict(t, fkt, forged, e[:], new(big.Int).Sub(bigP, bigN), s); valid {
			t.Fatal("r = p−n verified")
		}
	})

	t.Run("exceptional addition falls back", func(t *testing.T) {
		// Key = ±G, s = 1, e = r = 5: the sum is 5G after G's table, and the
		// first point from the key's table is ±5G — a doubling, then ∞.
		c := elliptic.P256().Params()
		for _, y := range []*big.Int{c.Gy, new(big.Int).Sub(bigP, c.Gy)} {
			gpub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: c.Gx, Y: y}
			gkt := tablesFor(t, gpub)
			five := big.NewInt(5)
			d := make([]byte, 32)
			five.FillBytes(d)
			if _, onTable := checkVerdict(t, gkt, gpub, d, five, one); onTable {
				t.Fatal("exceptional addition decided on the table path")
			}
			if st := gkt.stats(); st.Fallbacks != 1 || st.StdlibVerifies != 1 {
				t.Fatalf("stats after fallback: %+v", st)
			}
		}
	})

	t.Run("keys the engine must leave to crypto/ecdsa", func(t *testing.T) {
		r, s := signWith(priv, digest[:], big.NewInt(99))
		offCurve := &ecdsa.PublicKey{Curve: elliptic.P256(), X: pub.X, Y: new(big.Int).Add(pub.Y, one)}
		bigCoord := &ecdsa.PublicKey{Curve: elliptic.P256(), X: new(big.Int).Add(pub.X, bigP), Y: pub.Y}
		p224 := &ecdsa.PublicKey{Curve: elliptic.P224(), X: pub.X, Y: pub.Y}
		for _, k := range []*ecdsa.PublicKey{offCurve, bigCoord, p224} {
			fresh := new(keyTables)
			for i := 0; i < PromoteAfter+2; i++ {
				if valid, onTable := checkVerdict(t, fresh, k, digest[:], r, s); valid || onTable {
					t.Fatalf("invalid key: valid=%v onTable=%v", valid, onTable)
				}
			}
			if st := fresh.stats(); st.TablesBuilt != 0 || st.ResidentBytes != 0 {
				t.Fatalf("table built for an invalid key: %+v", st)
			}
		}
	})
}

// TestVerifyRandomMatchesStdlib: valid signatures and their mutations over
// several keys agree with crypto/ecdsa.
func TestVerifyRandomMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pubs []*ecdsa.PublicKey
	var privs []*ecdsa.PrivateKey
	for i := 0; i < 3; i++ {
		privs = append(privs, testKey(byte(10+i)))
		pubs = append(pubs, &privs[i].PublicKey)
	}
	kt := tablesFor(t, pubs...)
	n := 400
	if testing.Short() {
		n = 60
	}
	valid := 0
	for i := 0; i < n; i++ {
		priv := privs[i%len(privs)]
		digest := make([]byte, 32)
		rng.Read(digest)
		k := new(big.Int).Rand(rng, bigN)
		k.Add(k, big.NewInt(1)).Mod(k, bigN)
		r, s := signWith(priv, digest, k)
		switch i % 4 {
		case 1:
			digest[rng.Intn(32)] ^= 1 << rng.Intn(8)
		case 2:
			s = new(big.Int).Sub(bigN, s)
		case 3:
			r = new(big.Int).Xor(r, new(big.Int).Lsh(big.NewInt(1), uint(rng.Intn(255))))
		}
		if ok, _ := checkVerdict(t, kt, &priv.PublicKey, digest, r, s); ok {
			valid++
		}
	}
	if valid != n/2 {
		t.Fatalf("%d of %d verified, want exactly the untouched and the high-S half (%d)", valid, n, n/2)
	}
}

func validTuple(seed byte) (*ecdsa.PublicKey, []byte, SignatureParts) {
	priv := testKey(seed)
	digest := sha256.Sum256([]byte{seed})
	r, s := signWith(priv, digest[:], big.NewInt(4242))
	return &priv.PublicKey, digest[:], partsOf(r, s)
}

// TestSumListsExceptionalBesideOrdinary drives the summation routine
// (reduceLevels, then sum) on hand-made point lists: lists whose pairwise
// sums meet P + P, P − P or end on ∞, and an empty one, sit in one batch
// with ordinary lists long enough for two affine levels. The exceptional
// ones come back undecided; the ordinary ones exact, which they could not be
// had a zero denominator reached the product their chords share.
func TestSumListsExceptionalBesideOrdinary(t *testing.T) {
	c := elliptic.P256()
	rng := rand.New(rand.NewSource(11))
	point := func() (affinePoint, *big.Int, *big.Int) {
		k := make([]byte, 32)
		rng.Read(k)
		x, y := c.ScalarBaseMult(k)
		return affineOf(x, y), x, y
	}
	neg := func(p affinePoint) affinePoint {
		feNeg(&p.y, &p.y)
		return p
	}
	p, px, py := point()
	q, qx, qy := point()
	sx, sy := c.Add(px, py, qx, qy)
	type list struct {
		pts          []affinePoint
		wantX, wantY *big.Int // nil: undecided
	}
	lists := []list{
		{pts: []affinePoint{p, p}},
		{pts: []affinePoint{p, neg(p)}},
		{pts: []affinePoint{p, q, neg(affineOf(sx, sy))}},
		{pts: nil},
		{pts: []affinePoint{p}, wantX: px, wantY: py},
		{pts: []affinePoint{p, q}, wantX: sx, wantY: sy},
	}
	for i := 0; i < 8; i++ { // 8 × 20 pairs, then 8 × 10: two levels ≥ affineLevelMin
		var l list
		for k := 0; k < 40; k++ {
			a, ax, ay := point()
			l.pts = append(l.pts, a)
			if l.wantX == nil {
				l.wantX, l.wantY = ax, ay
			} else {
				l.wantX, l.wantY = c.Add(l.wantX, l.wantY, ax, ay)
			}
		}
		// Exceptional lists between ordinary ones, not only in front.
		at := min(2*i+1, len(lists))
		lists = append(lists[:at], append([]list{l}, lists[at:]...)...)
	}
	sc := new(batchScratch)
	for _, l := range lists {
		sc.sigs = append(sc.sigs, batchSig{off: len(sc.pts), n: len(l.pts)})
		sc.pts = append(sc.pts, l.pts...)
	}
	sc.reduceLevels()
	if sc.sigs[1].n >= 20 || len(sc.den) == 0 {
		t.Fatalf("no affine level ran: the lists are too short for affineLevelMin = %d", affineLevelMin)
	}
	for i, l := range lists {
		sum, ok := sc.sum(&sc.sigs[i])
		if ok != (l.wantX != nil) {
			t.Fatalf("list %d (%d points): decided = %v", i, len(l.pts), ok)
		}
		if ok {
			var out [1]affinePoint
			toAffine(out[:], []jacobianPoint{sum})
			checkAffine(t, fmt.Sprintf("sum of list %d", i), out[0], l.wantX, l.wantY)
		}
	}
}

// TestBatchScratchRace: 8 goroutines run batches through one SigCache and
// the pooled scratch, valid and corrupt signatures overlapping between them.
// Runs under -race in CI and is deliberately not shortened by -short.
func TestBatchScratchRace(t *testing.T) {
	nb, ders := neighbours(), warmPoolKeys(t)
	cache := NewSigCache(64) // smaller than the working set: hits, misses and evictions interleave
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b Batch
			for it := 0; it < 12; it++ {
				b.Reset(cache)
				n := 1 + (7*g+5*it)%len(nb)
				for i := 0; i < n; i++ {
					b.Add(nb[(g+i)%len(nb)].req.pub, nb[(g+i)%len(nb)].req.digest, ders[(g+i)%len(nb)])
				}
				b.Run()
				for i := 0; i < n; i++ {
					if got := b.Err(i) == nil; got != nb[(g+i)%len(nb)].want {
						t.Errorf("goroutine %d, batch of %d, item %d: verified %v", g, n, i, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// What the two table geometries come to: 26 windows × 512 multiples for G
// (w = 10), 37 × 64 for a key (w = 7), 64 B a point.
const (
	gTableBytes   = 26 * 512 * 64
	keyTableBytes = 37 * 64 * 64
)

// TestRentOrBuy: a key seen once never costs a table; a recurring key gets
// exactly one, with its PromoteAfter-th verification.
func TestRentOrBuy(t *testing.T) {
	kt := new(keyTables)
	for i := 0; i < 40; i++ {
		pub, digest, parts := validTuple(byte(i))
		if !verifyOne(kt, pub, digest, parts) {
			t.Fatal("valid signature rejected")
		}
	}
	if st := kt.stats(); st.TablesBuilt != 0 || st.TableVerifies != 0 || st.StdlibVerifies != 40 || st.ResidentBytes != 0 {
		t.Fatalf("single-use keys: %+v", st)
	}

	pub, digest, parts := validTuple(200)
	for i := 0; i < PromoteAfter; i++ {
		if st := kt.stats(); st.TablesBuilt != 0 {
			t.Fatalf("table built after %d uses, threshold is %d", i, PromoteAfter)
		}
		if !verifyOne(kt, pub, digest, parts) {
			t.Fatal("valid signature rejected")
		}
	}
	if st := kt.stats(); st.TablesBuilt != 1 || st.TableVerifies != 0 || st.ResidentBytes != gTableBytes+keyTableBytes {
		t.Fatalf("at the threshold: %+v", st)
	}
	if !verifyOne(kt, pub, digest, parts) {
		t.Fatal("valid signature rejected on the table path")
	}
	if st := kt.stats(); st.TableVerifies != 1 || st.StdlibVerifies != 40+PromoteAfter {
		t.Fatalf("first call after the threshold not on the table path: %+v", st)
	}
}

// TestStoreBounded: ten times the cap in distinct recurring keys never
// holds more than the cap, evicts the least recently used, and keeps a key
// that stays in use. One key in eight is a real point (a table is built);
// the rest are off the curve, which costs an entry but no build.
func TestStoreBounded(t *testing.T) {
	kt := new(keyTables)
	keepPub, keepDigest, keepParts := validTuple(0)
	keep := resolveKey(keepPub).pt
	kt.promote(keep)
	for i := 0; i < 10*maxKeyTables; i++ {
		var k pointKey
		if i%8 == 0 {
			k = resolveKey(&keyOf(big.NewInt(int64(i + 2))).PublicKey).pt
		} else {
			k[0], k[1], k[2] = 0x7f, byte(i>>8), byte(i)
		}
		kt.promote(k)
		if !verifyOne(kt, keepPub, keepDigest, keepParts) {
			t.Fatal("valid signature rejected")
		}
		hot := *kt.hot.Load()
		if len(hot) > maxKeyTables {
			t.Fatalf("%d entries, cap %d", len(hot), maxKeyTables)
		}
		if hot[k] == nil {
			t.Fatal("the newest key was evicted")
		}
		if st := kt.stats(); st.ResidentBytes > gTableBytes+maxKeyTables*keyTableBytes {
			t.Fatalf("resident %d bytes", st.ResidentBytes)
		}
	}
	st := kt.stats()
	if st.TablesEvicted != 10*maxKeyTables+1-maxKeyTables {
		t.Fatalf("evictions: %+v", st)
	}
	if st.StdlibVerifies != 0 {
		t.Fatalf("the key in use lost its table: %+v", st)
	}

	// The use counters of keys below the threshold are bounded too.
	for i := 0; i < 10*maxColdKeys; i++ {
		var k pointKey
		k[0], k[1], k[2] = byte(i>>16), byte(i>>8), byte(i)
		kt.countUse(k)
	}
	kt.mu.Lock()
	defer kt.mu.Unlock()
	if len(kt.cold) > maxColdKeys {
		t.Fatalf("%d use counters, cap %d", len(kt.cold), maxColdKeys)
	}
}

// TestColdKeyRace: goroutines racing on one cold key build exactly one
// table, and every verdict is right before, during and after the build.
// Runs under -race in CI and is deliberately not shortened by -short.
func TestColdKeyRace(t *testing.T) {
	kt := new(keyTables)
	pub, digest, parts := validTuple(77)
	bad := parts
	bad.S[31] ^= 1
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*PromoteAfter; i++ {
				p, q := parts, bad
				if !verifyOne(kt, pub, digest, p) {
					t.Error("valid signature rejected")
				}
				if verifyOne(kt, pub, digest, q) {
					t.Error("invalid signature accepted")
				}
			}
		}()
	}
	wg.Wait()
	st := kt.stats()
	if st.TablesBuilt != 1 || len(*kt.hot.Load()) != 1 {
		t.Fatalf("tables built: %+v", st)
	}
	if st.TableVerifies == 0 || st.TableVerifies+st.StdlibVerifies != 8*3*PromoteAfter*2 {
		t.Fatalf("verifications: %+v", st)
	}
}

var sinkBool bool

const batchBenchRange = 39

// BenchmarkVerify puts the engine's three cases next to crypto/ecdsa on the
// same tuples, in one process: the ratios are what experiments/hotpath gates.
func BenchmarkVerify(b *testing.B) {
	pub, digest, parts := validTuple(1)
	r, s := new(big.Int).SetBytes(parts.R[:]), new(big.Int).SetBytes(parts.S[:])
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBool = ecdsa.Verify(pub, digest, r, s)
		}
	})
	b.Run("table", func(b *testing.B) {
		kt := tablesFor(b, pub)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkBool = verifyOne(kt, pub, digest, parts)
		}
	})
	b.Run("batch", func(b *testing.B) {
		// The 300 signatures of a 100-tx 2-of-2 block under 4 keys, in
		// ranges of 39 (the validator's largest): ns/op is per signature.
		var pubs []*ecdsa.PublicKey
		reqs := make([]verifyReq, 300)
		for i := range reqs {
			priv := testKey(byte(i % 4))
			digest := sha256.Sum256([]byte{byte(i), byte(i >> 8)})
			r, s := signWith(priv, digest[:], big.NewInt(int64(5000+i)))
			reqs[i] = reqOf(&priv.PublicKey, digest[:], partsOf(r, s))
			pubs = append(pubs, &priv.PublicKey)
		}
		kt := tablesFor(b, pubs[:4]...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += len(reqs) {
			for lo := 0; lo < len(reqs); lo += batchBenchRange {
				kt.verify(reqs[lo:min(lo+batchBenchRange, len(reqs))])
			}
		}
		b.StopTimer()
		for i := range reqs {
			if !reqs[i].valid {
				b.Fatalf("signature %d rejected", i)
			}
		}
	})
	b.Run("single_use_key", func(b *testing.B) {
		// Every key is new to the engine: the cost of looking, counting and
		// not building.
		type tuple struct {
			pub    *ecdsa.PublicKey
			digest []byte
			parts  SignatureParts
		}
		tuples := make([]tuple, 256)
		for i := range tuples {
			tuples[i].pub, tuples[i].digest, tuples[i].parts = validTuple(byte(i))
		}
		kt := new(keyTables)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(tuples) == 0 {
				kt = new(keyTables)
			}
			tp := &tuples[i%len(tuples)]
			sinkBool = verifyOne(kt, tp.pub, tp.digest, tp.parts)
		}
		if st := kt.stats(); st.TablesBuilt != 0 {
			b.Fatalf("single-use keys got tables: %+v", st)
		}
	})
	b.Run("table_build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBool = BuildKeyTable(pub)
		}
	})
}
