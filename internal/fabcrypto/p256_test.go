package fabcrypto

import (
	"crypto/elliptic"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	bigP = elliptic.P256().Params().P
	bigN = elliptic.P256().Params().N
	bigR = new(big.Int).Lsh(big.NewInt(1), 256)
)

func limbsToBig(l [4]uint64) *big.Int {
	z := new(big.Int)
	for i := 3; i >= 0; i-- {
		z.Lsh(z, 64).Or(z, new(big.Int).SetUint64(l[i]))
	}
	return z
}

// feOf converts an integer < p to Montgomery form through math/big only,
// so the tests do not trust feFromLimbs.
func feOf(v *big.Int) fe {
	return fe(limbsOfBig(new(big.Int).Mod(new(big.Int).Mul(v, bigR), bigP)))
}

// bigOf converts out of Montgomery form through math/big only.
func bigOf(x fe) *big.Int {
	rinv := new(big.Int).ModInverse(bigR, bigP)
	return new(big.Int).Mod(new(big.Int).Mul(limbsToBig(x), rinv), bigP)
}

// fieldSamples mixes boundary values — every limb all-ones or zero, p−1,
// values that carry out of each limb — with seeded random ones.
func fieldSamples(rng *rand.Rand, n int) []*big.Int {
	one := big.NewInt(1)
	out := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2),
		new(big.Int).Sub(bigP, one), new(big.Int).Sub(bigP, big.NewInt(2)),
		new(big.Int).Rsh(bigP, 1),
		new(big.Int).Mod(new(big.Int).Sub(bigR, one), bigP), // 2²⁵⁶−1 reduced
		new(big.Int).Sub(bigR, bigP),                        // 2²⁵⁶ mod p
	}
	for i := 0; i < 4; i++ { // one limb all ones, and its successor (carry into the next limb)
		l := new(big.Int).Lsh(new(big.Int).SetUint64(^uint64(0)), uint(64*i))
		out = append(out, new(big.Int).Mod(l, bigP), new(big.Int).Mod(new(big.Int).Add(l, one), bigP))
	}
	for i := 0; i < n; i++ {
		b := make([]byte, 32)
		rng.Read(b)
		out = append(out, new(big.Int).Mod(new(big.Int).SetBytes(b), bigP))
	}
	return out
}

func TestFieldConstants(t *testing.T) {
	if got := limbsToBig(pLimbs); got.Cmp(bigP) != 0 {
		t.Fatalf("p limbs = %x", got)
	}
	if got, want := limbsToBig(feOne), new(big.Int).Mod(bigR, bigP); got.Cmp(want) != 0 {
		t.Fatalf("feOne = %x, want %x", got, want)
	}
	if got, want := limbsToBig(feRR), new(big.Int).Mod(new(big.Int).Mul(bigR, bigR), bigP); got.Cmp(want) != 0 {
		t.Fatalf("feRR = %x, want %x", got, want)
	}
	if got := limbsToBig(nLimbs); got.Cmp(bigN) != 0 {
		t.Fatalf("n limbs = %x", got)
	}
	if got, want := limbsToBig(nHalfLimbs), new(big.Int).Rsh(bigN, 1); got.Cmp(want) != 0 {
		t.Fatalf("n/2 limbs = %x, want %x", got, want)
	}
	if got, want := limbsToBig(ordRR), new(big.Int).Mod(new(big.Int).Mul(bigR, bigR), bigN); got.Cmp(want) != 0 {
		t.Fatalf("ordRR = %x, want %x", got, want)
	}
	if lo, k := nLimbs[0], uint64(nNegInv); lo*k != ^uint64(0) {
		t.Fatalf("n · nNegInv = %x mod 2⁶⁴, want −1", lo*k)
	}
}

// TestOrdMulMatchesBig: ordMul(x, y) = x·y·2⁻²⁵⁶ mod n whenever one factor
// is below n, the other being any 256-bit value — boundary values first,
// then testing/quick's.
func TestOrdMulMatchesBig(t *testing.T) {
	rinv := new(big.Int).ModInverse(bigR, bigN)
	check := func(x, y [4]uint64) bool {
		bx := limbsToBig(x)
		bx.Mod(bx, bigN)
		x = limbsOfBig(bx)
		want := new(big.Int).Mul(bx, limbsToBig(y))
		want.Mul(want, rinv).Mod(want, bigN)
		var z, zy [4]uint64
		ordMul(&z, &x, &y)
		ordMul(&zy, &y, &x) // the 256-bit factor on either side
		ax, ay := x, y
		ordMul(&ax, &ax, &y)
		ordMul(&ay, &x, &ay)
		return limbsToBig(z).Cmp(want) == 0 && zy == z && ax == z && ay == z
	}
	ones := ^uint64(0)
	bounds := [][4]uint64{
		{}, {1}, {ones}, {0, 1}, {ones, ones, ones, ones}, nLimbs, ordRR,
		limbsOfBig(new(big.Int).Sub(bigN, big.NewInt(1))), limbsOfBig(new(big.Int).Add(bigN, big.NewInt(1))), pLimbs,
	}
	for _, x := range bounds {
		for _, y := range bounds {
			if !check(x, y) {
				t.Fatalf("ordMul(%x mod n, %x) wrong", x, y)
			}
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
	// Into and out of Montgomery form: what invertScalars relies on.
	s := limbsOfBig(big.NewInt(0xabcdef))
	sm, back := s, [4]uint64{}
	ordMul(&sm, &sm, &ordRR)
	ordMul(&back, &sm, &[4]uint64{1})
	if back != s {
		t.Fatalf("Montgomery round trip of %x = %x", s, back)
	}
}

func TestFieldMatchesBig(t *testing.T) {
	vals := fieldSamples(rand.New(rand.NewSource(1)), 40)
	for _, a := range vals {
		fa := feOf(a)
		if got, ok := feFromLimbs(limbsOfBig(a)); !ok || got != fa {
			t.Fatalf("feFromLimbs(%x) = %x, %v", a, got, ok)
		}
		var plain fe // multiplying by the integer 1 leaves Montgomery form
		if feMul(&plain, &fa, &fe{1}); limbsToBig(plain).Cmp(a) != 0 {
			t.Fatalf("round trip of %x = %x", a, limbsToBig(plain))
		}
		var z fe
		feNeg(&z, &fa)
		if want := new(big.Int).Mod(new(big.Int).Neg(a), bigP); bigOf(z).Cmp(want) != 0 {
			t.Fatalf("neg %x", a)
		}
		if a.Sign() != 0 {
			feInv(&z, &fa)
			if want := new(big.Int).ModInverse(a, bigP); bigOf(z).Cmp(want) != 0 {
				t.Fatalf("inv %x = %x, want %x", a, bigOf(z), want)
			}
		}
		for _, n := range []int{1, 2, 7} {
			var g fe
			feSqrN(&z, &fa, n)
			feSqrNGeneric(&g, &fa, n)
			want := new(big.Int).Exp(a, new(big.Int).Lsh(big.NewInt(1), uint(n)), bigP)
			if bigOf(z).Cmp(want) != 0 || g != z || limbsToBig(z).Cmp(bigP) >= 0 {
				t.Fatalf("%x^(2^%d) = %x (generic %x), want %x", a, n, bigOf(z), bigOf(g), want)
			}
		}
		for _, b := range vals {
			fb := feOf(b)
			feMul(&z, &fa, &fb)
			if want := new(big.Int).Mod(new(big.Int).Mul(a, b), bigP); bigOf(z).Cmp(want) != 0 || limbsToBig(z).Cmp(bigP) >= 0 {
				t.Fatalf("%x · %x = %x, want %x", a, b, bigOf(z), want)
			}
			var g fe
			if feMulGeneric(&g, &fa, &fb); g != z {
				t.Fatalf("%x · %x: kernel %x, generic %x", a, b, z, g)
			}
			feAdd(&z, &fa, &fb)
			if want := new(big.Int).Mod(new(big.Int).Add(a, b), bigP); bigOf(z).Cmp(want) != 0 {
				t.Fatalf("%x + %x = %x, want %x", a, b, bigOf(z), want)
			}
			feSub(&z, &fa, &fb)
			if want := new(big.Int).Mod(new(big.Int).Sub(a, b), bigP); bigOf(z).Cmp(want) != 0 {
				t.Fatalf("%x − %x = %x, want %x", a, b, bigOf(z), want)
			}
			if limbsToBig(z).Cmp(bigP) >= 0 {
				t.Fatalf("%x − %x not reduced", a, b)
			}
		}
		// Aliased destination.
		z = fa
		feMul(&z, &z, &z)
		if want := new(big.Int).Mod(new(big.Int).Mul(a, a), bigP); bigOf(z).Cmp(want) != 0 {
			t.Fatalf("aliased square of %x", a)
		}
	}
	// Non-canonical encodings are refused, not reduced.
	for _, v := range []*big.Int{bigP, new(big.Int).Add(bigP, big.NewInt(1)), new(big.Int).Sub(bigR, big.NewInt(1))} {
		if _, ok := feFromLimbs(limbsOfBig(v)); ok {
			t.Fatalf("feFromLimbs accepted %x ≥ p", v)
		}
	}
}

// FuzzFieldMatchesBig: on any two field elements, given as limbs (reduced
// mod p first), feMul, feSqrN and feInv compute what math/big does, fully
// reduced, and feMul and feSqrN agree bit for bit with the generic code that
// other architectures run — in place as well as into a fresh destination.
func FuzzFieldMatchesBig(f *testing.F) {
	edges := [][4]uint64{
		{}, {1},
		limbsOfBig(new(big.Int).Sub(bigP, big.NewInt(1))),
		limbsOfBig(new(big.Int).Sub(bigP, big.NewInt(2))),
		{3: 1 << 63}, // 2²⁵⁵
		feOne,        // R mod p
		feRR,
	}
	for _, a := range edges {
		for _, b := range edges {
			f.Add(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
		}
	}
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, b0, b1, b2, b3 uint64) {
		field := func(l [4]uint64) (fe, *big.Int) {
			v := fe(limbsOfBig(new(big.Int).Mod(limbsToBig(l), bigP)))
			return v, bigOf(v)
		}
		x, bx := field([4]uint64{a0, a1, a2, a3})
		y, by := field([4]uint64{b0, b1, b2, b3})
		check := func(what string, got fe, want *big.Int) {
			t.Helper()
			if limbsToBig(got).Cmp(bigP) >= 0 || bigOf(got).Cmp(want) != 0 {
				t.Fatalf("%s of %x, %x = %x, want %x", what, bx, by, bigOf(got), want)
			}
		}
		var z, g fe
		feMul(&z, &x, &y)
		feMulGeneric(&g, &x, &y)
		check("x·y", z, new(big.Int).Mod(new(big.Int).Mul(bx, by), bigP))
		if g != z {
			t.Fatalf("x·y of %x, %x: kernel %x, generic %x", bx, by, z, g)
		}
		z = x
		if feMul(&z, &z, &y); z != g {
			t.Fatalf("x·y in place of %x, %x = %x, want %x", bx, by, z, g)
		}
		for _, n := range []int{1, 2, 7} {
			feSqrN(&z, &x, n)
			feSqrNGeneric(&g, &x, n)
			check("x^(2^n)", z, new(big.Int).Exp(bx, new(big.Int).Lsh(big.NewInt(1), uint(n)), bigP))
			if g != z {
				t.Fatalf("x^(2^%d) of %x: kernel %x, generic %x", n, bx, z, g)
			}
			z = x
			if feSqrN(&z, &z, n); z != g {
				t.Fatalf("x^(2^%d) in place of %x = %x, want %x", n, bx, z, g)
			}
		}
		if bx.Sign() != 0 {
			feInv(&z, &x)
			check("1/x", z, new(big.Int).ModInverse(bx, bigP))
			g = x
			if feInv(&g, &g); g != z {
				t.Fatalf("1/x in place of %x = %x, want %x", bx, g, z)
			}
		}
	})
}

func affineOf(x, y *big.Int) affinePoint { return affinePoint{x: feOf(x), y: feOf(y)} }

func checkAffine(t *testing.T, what string, got affinePoint, x, y *big.Int) {
	t.Helper()
	if bigOf(got.x).Cmp(x) != 0 || bigOf(got.y).Cmp(y) != 0 {
		t.Fatalf("%s = (%x, %x), want (%x, %x)", what, bigOf(got.x), bigOf(got.y), x, y)
	}
}

func TestPointOpsMatchElliptic(t *testing.T) {
	c := elliptic.P256()
	rng := rand.New(rand.NewSource(2))
	scalar := func() []byte {
		b := make([]byte, 32)
		rng.Read(b)
		return b
	}
	var jac []jacobianPoint
	var wantX, wantY []*big.Int
	for i := 0; i < 24; i++ {
		ax, ay := c.ScalarBaseMult(scalar())
		bx, by := c.ScalarBaseMult(scalar())
		a, b := affineOf(ax, ay), affineOf(bx, by)

		p := jacobianPoint{x: a.x, y: a.y, z: feOne}
		p.double()
		dx, dy := c.Double(ax, ay)
		jac, wantX, wantY = append(jac, p), append(wantX, dx), append(wantY, dy)

		// Z ≠ 1 on the left: (2a) + b, then + a again.
		if !p.addMixed(&b) {
			t.Fatal("addMixed refused distinct points")
		}
		sx, sy := c.Add(dx, dy, bx, by)
		jac, wantX, wantY = append(jac, p), append(wantX, sx), append(wantY, sy)
		p.double()
		sx, sy = c.Double(sx, sy)
		jac, wantX, wantY = append(jac, p), append(wantX, sx), append(wantY, sy)

		// The exceptional cases are refused and leave p alone.
		q := jacobianPoint{x: a.x, y: a.y, z: feOne}
		q.double()
		q.addMixed(&b) // q = 2a + b, Z ≠ 1
		var one [1]affinePoint
		toAffine(one[:], []jacobianPoint{q})
		before := q
		if q.addMixed(&one[0]) || q != before {
			t.Fatal("addMixed accepted p + p")
		}
		feNeg(&one[0].y, &one[0].y)
		if q.addMixed(&one[0]) || q != before {
			t.Fatal("addMixed accepted p + (−p)")
		}
	}
	out := make([]affinePoint, len(jac))
	toAffine(out, jac)
	for i := range out {
		checkAffine(t, "point", out[i], wantX[i], wantY[i])
	}
}

// TestAddAffineMatchesElliptic: the chord addition given its inverted
// denominator, the denominators inverted together, against crypto/elliptic;
// destination aliasing either operand.
func TestAddAffineMatchesElliptic(t *testing.T) {
	c := elliptic.P256()
	rng := rand.New(rand.NewSource(4))
	const n = 33
	ps, qs := make([]affinePoint, n), make([]affinePoint, n)
	den, prefix := make([]fe, n), make([]fe, n)
	var wantX, wantY []*big.Int
	for i := 0; i < n; i++ {
		a, b := make([]byte, 32), make([]byte, 32)
		rng.Read(a)
		rng.Read(b)
		ax, ay := c.ScalarBaseMult(a)
		bx, by := c.ScalarBaseMult(b)
		ps[i], qs[i] = affineOf(ax, ay), affineOf(bx, by)
		feSub(&den[i], &qs[i].x, &ps[i].x)
		sx, sy := c.Add(ax, ay, bx, by)
		wantX, wantY = append(wantX, sx), append(wantY, sy)
	}
	plain := append([]fe(nil), den...)
	invertAll(den, prefix)
	invertAll(nil, nil) // the empty level
	for i := 0; i < n; i++ {
		if want := new(big.Int).ModInverse(bigOf(plain[i]), bigP); bigOf(den[i]).Cmp(want) != 0 {
			t.Fatalf("invertAll[%d] = %x, want %x", i, bigOf(den[i]), want)
		}
		var r affinePoint
		addAffine(&r, &ps[i], &qs[i], &den[i])
		checkAffine(t, "p + q", r, wantX[i], wantY[i])
		r = ps[i]
		addAffine(&r, &r, &qs[i], &den[i])
		checkAffine(t, "p += q", r, wantX[i], wantY[i])
		r = qs[i]
		addAffine(&r, &ps[i], &r, &den[i])
		checkAffine(t, "q = p + q", r, wantX[i], wantY[i])
	}
}

var sinkFE fe

func BenchmarkFeMul(b *testing.B) {
	x, y := feOf(big.NewInt(0).Rsh(bigP, 1)), feOf(big.NewInt(0).Rsh(bigP, 3))
	for i := 0; i < b.N; i++ {
		feMul(&x, &x, &y)
	}
	sinkFE = x
}

func BenchmarkFeMulGeneric(b *testing.B) {
	x, y := feOf(big.NewInt(0).Rsh(bigP, 1)), feOf(big.NewInt(0).Rsh(bigP, 3))
	for i := 0; i < b.N; i++ {
		feMulGeneric(&x, &x, &y)
	}
	sinkFE = x
}

// BenchmarkFeInv, BenchmarkAddMixed and BenchmarkAddAffine (which includes an
// addition's 3 M share of a shared inversion) are what affineLevelMin is
// derived from.
func BenchmarkFeInv(b *testing.B) {
	x := feOf(big.NewInt(0).Rsh(bigP, 1))
	for i := 0; i < b.N; i++ {
		feInv(&x, &x)
	}
	sinkFE = x
}

func BenchmarkAddAffine(b *testing.B) {
	c := elliptic.P256().Params()
	g := affineOf(c.Gx, c.Gy)
	p := jacobianPoint{x: g.x, y: g.y, z: feOne}
	p.double()
	var two [1]affinePoint
	toAffine(two[:], []jacobianPoint{p})
	acc, inv := two[0], feOf(big.NewInt(7))
	for i := 0; i < b.N; i++ {
		var d, pre fe
		feSub(&d, &g.x, &acc.x)
		feMul(&pre, &inv, &d) // the three multiplications of invertAll
		feMul(&inv, &pre, &d)
		feMul(&pre, &inv, &d)
		addAffine(&acc, &acc, &g, &inv) // not a point sum: inv is not 1/d, the cost is the same
	}
	sinkFE = acc.x
}

func BenchmarkAddMixed(b *testing.B) {
	c := elliptic.P256().Params()
	g := affineOf(c.Gx, c.Gy)
	p := jacobianPoint{x: g.x, y: g.y, z: feOne}
	p.double()
	for i := 0; i < b.N; i++ {
		p.addMixed(&g)
	}
	sinkFE = p.x
}
