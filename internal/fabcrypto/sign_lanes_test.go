package fabcrypto

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
	"unsafe"
)

// basePaths lists the paths the signer's k·G can take on this CPU: the
// lanes' comb where there is one (true), and crypto/ecdh.
func basePaths() []bool {
	if haveLanes {
		return []bool{true, false}
	}
	return []bool{false}
}

// onEachBasePath runs f once per path of basePaths, named "lanes" or "ecdh",
// through ecdhBase, which it restores.
func onEachBasePath(f func(path string)) {
	defer func(old bool) { ecdhBase = old }(ecdhBase)
	for _, lanes := range basePaths() {
		ecdhBase = !lanes
		if lanes {
			f("lanes")
		} else {
			f("ecdh")
		}
	}
}

// TestLaneCombLayout: laneComb's fields sit where p256_lanes_gen.go's
// offsets (cDigit … cSize) put them.
func TestLaneCombLayout(t *testing.T) {
	var c laneComb
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"digit", unsafe.Offsetof(c.digit), 0},
		{"sign", unsafe.Offsetof(c.sign), 384},
		{"sel", unsafe.Offsetof(c.sel), 768},
		{"acc", unsafe.Offsetof(c.acc), 4608},
		{"q", unsafe.Offsetof(c.q), 5568},
		{"t", unsafe.Offsetof(c.t), 6528},
		{"size", unsafe.Sizeof(c), 9088},
	} {
		if f.got != f.want {
			t.Errorf("laneComb.%s at %d, the kernel expects %d", f.name, f.got, f.want)
		}
	}
}

// randomFieldBlind is a random field element in [1, p), as newBlinding's.
func randomFieldBlind(rng *rand.Rand) fe {
	for {
		v := [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		if v != ([4]uint64{}) && lessThan(&v, &pLimbs) {
			return fe(v)
		}
	}
}

// combDigit is the signed digit recode gives window w of k.
func combDigit(c *laneComb, w int) int {
	d := int(c.digit[w])
	if c.sign[w] != 0 {
		d = -d
	}
	return d
}

// TestScalarBaseCombMatchesECDH: the lanes' comb gives crypto/ecdh's x mod
// n for k = 1, 2, n − 1 and n − 2 (whose top window's digit is 16), for
// scalars whose digits are +32 and −32 in each pair of neighbouring windows
// and zero elsewhere, for scalars with one nonzero digit, in each window
// (the top one included), and for 10 000 random scalars. The recoding is
// checked to reproduce k, and the digits 0, ±32 and a nonzero top window to
// occur.
func TestScalarBaseCombMatchesECDH(t *testing.T) {
	requireLanes(t)
	rng := rand.New(rand.NewSource(61))
	var ks []*big.Int
	for _, v := range []int64{1, 2, -1, -2} {
		ks = append(ks, new(big.Int).Mod(big.NewInt(v), bigN))
	}
	for w := 0; w < combWindows; w++ {
		one := new(big.Int).Lsh(big.NewInt(1), uint(6*w))
		for _, k := range []*big.Int{one, new(big.Int).Mul(one, big.NewInt(31)), new(big.Int).Rsh(new(big.Int).Mul(one, big.NewInt(63)), 1)} {
			if k.Sign() > 0 && k.Cmp(bigN) < 0 { // 63·2^(6w−1): +32 at w, −32 at w − 1
				ks = append(ks, k)
			}
		}
	}
	random := 10000
	if testing.Short() {
		random = 1000
	}
	for range random {
		ks = append(ks, new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(bigN, big.NewInt(1))), big.NewInt(1)))
	}
	seen := map[int]bool{}
	for _, k := range ks {
		if k.Sign() <= 0 || k.Cmp(bigN) >= 0 {
			t.Fatalf("test scalar %x outside [1, n)", k)
		}
		var kb [ScalarSize]byte
		k.FillBytes(kb[:])
		kl := limbsFromBytes(&kb)

		var c laneComb
		c.recode(&kl)
		sum := new(big.Int)
		for w := combRounds*8 - 1; w >= 0; w-- {
			d := combDigit(&c, w)
			if d < -32 || d > 32 || w >= combWindows && d != 0 {
				t.Fatalf("k = %x: window %d's digit is %d", k, w, d)
			}
			switch {
			case d == 32 || d == -32 || d == 0:
				seen[d] = true
			case w == combWindows-1:
				seen[100] = true
			}
			sum.Lsh(sum, 6).Add(sum, big.NewInt(int64(d)))
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("k = %x: the digits sum to %x", k, sum)
		}

		want, err := scalarBaseXECDH(&kl)
		if err != nil {
			t.Fatal(err)
		}
		beta := randomFieldBlind(rng)
		if got := scalarBaseXLanes(&kl, &beta); got != want {
			t.Fatalf("k = %x: the comb's x mod n = %x, crypto/ecdh's %x", k, got, want)
		}
	}
	for _, d := range []int{0, 32, -32, 100} {
		if !seen[d] {
			t.Errorf("no test scalar has the digit %d (100: a nonzero top window)", d)
		}
	}
}

// projective returns p as (x·z : y·z : z), every coordinate in the lanes'
// form, for a random z ≠ 0.
func projective(p affinePoint, rng *rand.Rand) [3]fe {
	z := feOf(new(big.Int).Add(new(big.Int).Rand(rng, new(big.Int).Sub(bigP, big.NewInt(1))), big.NewInt(1)))
	var x, y fe
	feMul(&x, &p.x, &z)
	feMul(&y, &p.y, &z)
	return [3]fe{laneForm(&x), laneForm(&y), laneForm(&z)}
}

// laneIdentity is (0 : 1 : 0) in the lanes' form.
var laneIdentity = [3]fe{{}, laneForm(&feOne), {}}

func setProj(v *laneProj, l int, p [3]fe) {
	v.x.set(l, &p[0])
	v.y.set(l, &p[1])
	v.z.set(l, &p[2])
}

// affineOfLane returns lane l of v as an affine point, and false for the
// identity (Z = 0), whose X must be 0 and Y not.
func affineOfLane(t *testing.T, v *laneProj, l int) (affinePoint, bool) {
	t.Helper()
	X, Y, Z := v.x.get(l), v.y.get(l), v.z.get(l)
	if Z == (fe{}) {
		if X != (fe{}) || Y == (fe{}) {
			t.Fatalf("lane %d: (%x : %x : 0) is not the identity", l, X, Y)
		}
		return affinePoint{}, false
	}
	var inv fe
	var p affinePoint
	feInvVar(&inv, &Z) // 2⁴ of each coordinate cancels
	feMul(&p.x, &X, &inv)
	feMul(&p.y, &Y, &inv)
	return p, true
}

// scalarSum is p + q by the scalar Jacobian arithmetic, and false for the
// identity. nil stands for the identity.
func scalarSum(p, q *affinePoint) (affinePoint, bool) {
	switch {
	case p == nil && q == nil:
		return affinePoint{}, false
	case p == nil:
		return *q, true
	case q == nil:
		return *p, true
	}
	j := jacobianPoint{x: p.x, y: p.y, z: feOne}
	if !j.addMixed(q) {
		if p.y != q.y {
			return affinePoint{}, false // p = −q
		}
		j.double()
	}
	out := make([]affinePoint, 1)
	toAffine(out, []jacobianPoint{j})
	return out[0], true
}

// TestCompleteAddLanes holds the lanes' complete additions to the scalar
// jacobianPoint arithmetic in every lane: lanesCombAdd on P + P, P + (−P),
// O + P, P + Q and a zero digit (the sum is kept), and lanesCombine on
// P + P, P + (−P), P + O, O + O and P + Q.
func TestCompleteAddLanes(t *testing.T) {
	requireLanes(t)
	rng := rand.New(rand.NewSource(7))
	c := elliptic.P256()
	pool := make([]affinePoint, 32)
	for i := range pool {
		k := make([]byte, 32)
		rng.Read(k)
		x, y := c.ScalarBaseMult(k)
		pool[i] = affineOf(x, y)
	}
	neg := func(p affinePoint) affinePoint {
		feNeg(&p.y, &p.y)
		return p
	}
	check := func(what string, l int, v *laneProj, want *affinePoint) {
		t.Helper()
		got, finite := affineOfLane(t, v, l)
		switch {
		case want == nil && finite:
			t.Fatalf("%s, lane %d: got (%x, %x), want the identity", what, l, got.x, got.y)
		case want != nil && !finite:
			t.Fatalf("%s, lane %d: got the identity, want (%x, %x)", what, l, want.x, want.y)
		case want != nil && got != *want:
			t.Fatalf("%s, lane %d: got (%x, %x), want (%x, %x)", what, l, got.x, got.y, want.x, want.y)
		}
	}

	// lanesCombAdd: case (l + shift) mod 5 in lane l, so that every lane
	// takes every case.
	for shift := range 5 {
		for round := range 20 {
			var cb laneComb
			var want [8]*affinePoint
			const r = 3
			for l := range 8 {
				p, q := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				acc, add := &p, &q
				switch (l + shift) % 5 {
				case 0: // P + P
					q = p
				case 1: // P + (−P)
					q = neg(p)
				case 2: // O + Q
					acc = nil
				case 3: // a zero digit: P stays
					add = nil
				}
				if acc == nil {
					setProj(&cb.acc, l, laneIdentity)
				} else {
					setProj(&cb.acc, l, projective(*acc, rng))
				}
				if add != nil {
					// The selected entry is |q|; the digit's sign negates it.
					e := q
					if rng.Intn(2) == 0 {
						e = neg(q)
						cb.sign[8*r+l] = ^uint64(0)
					}
					x, y := laneForm(&e.x), laneForm(&e.y)
					cb.sel[r].x.set(l, &x)
					cb.sel[r].y.set(l, &y)
					cb.digit[8*r+l] = uint64(1 + rng.Intn(32))
				}
				if s, ok := scalarSum(acc, add); ok {
					want[l] = &s
				} else if acc == nil && add == nil {
					t.Fatal("unreachable")
				}
			}
			lanesCombAdd(&cb, r)
			for l := range 8 {
				check("lanesCombAdd", l, &cb.acc, want[l])
			}
			_ = round
		}
	}

	// lanesCombine: lane l adds lane (l + s) mod 8.
	type setup struct {
		name string
		s    int
		make func(l int) *affinePoint // nil: the identity
	}
	fixed := make([]affinePoint, 8)
	for l := range fixed {
		fixed[l] = pool[rng.Intn(len(pool))]
	}
	for _, su := range []setup{
		{"P + P", 0, func(l int) *affinePoint { return &fixed[l] }},
		{"P + (−P)", 4, func(l int) *affinePoint {
			if l < 4 {
				return &fixed[l]
			}
			p := neg(fixed[l-4])
			return &p
		}},
		{"P + O (low lanes), O + P (high)", 4, func(l int) *affinePoint {
			if l < 4 {
				return &fixed[l]
			}
			return nil
		}},
		{"O + P (low lanes), P + O (high)", 4, func(l int) *affinePoint {
			if l < 4 {
				return nil
			}
			return &fixed[l]
		}},
		{"O + O", 2, func(int) *affinePoint { return nil }},
		{"P + Q", 1, func(l int) *affinePoint { return &fixed[l] }},
		{"P + Q", 3, func(l int) *affinePoint { return &fixed[l] }},
	} {
		var cb laneComb
		pts := make([]*affinePoint, 8)
		for l := range 8 {
			if pts[l] = su.make(l); pts[l] == nil {
				setProj(&cb.acc, l, laneIdentity)
			} else {
				setProj(&cb.acc, l, projective(*pts[l], rng))
			}
		}
		lanesCombine(&cb, su.s)
		for l := range 8 {
			var want *affinePoint
			if s, ok := scalarSum(pts[l], pts[(l+su.s)%8]); ok {
				want = &s
			}
			check("lanesCombine "+su.name, l, &cb.acc, want)
		}
	}
}

// BenchmarkScalarBaseX is the signer's k·G, x mod n, on each path: the lanes'
// comb with its blinded inversion, and crypto/ecdh.
func BenchmarkScalarBaseX(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	k := randomFieldBlind(rng) // any value below p is below n here with overwhelming probability
	kl, beta := [4]uint64(k), randomFieldBlind(rng)
	onEachBasePath(func(path string) {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := scalarBaseX(&kl, &beta, combBase()); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}
