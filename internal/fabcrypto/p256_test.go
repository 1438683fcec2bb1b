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
		var z, zy, g [4]uint64
		ordMul(&z, &x, &y)
		ordMul(&zy, &y, &x) // the 256-bit factor on either side
		ordMulGeneric(&g, &x, &y)
		ax, ay := x, y
		ordMul(&ax, &ax, &y)
		ordMul(&ay, &x, &ay)
		return limbsToBig(z).Cmp(want) == 0 && zy == z && g == z && ax == z && ay == z
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
	// ordInv of every value below n among the bounds and some random ones.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := bounds[i%len(bounds)]
		if i >= len(bounds) {
			x = [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		}
		if !lessThan(&x, &nLimbs) || x == ([4]uint64{}) {
			continue
		}
		checkOrdInv(t, x)
	}
}

// checkOrdInv: ordInv(x) is x⁻¹ in Montgomery form, (x·R⁻¹)⁻¹·R = x⁻¹·R² mod
// n, in place as well as into a fresh destination.
func checkOrdInv(t *testing.T, x [4]uint64) {
	t.Helper()
	want := new(big.Int).ModInverse(limbsToBig(x), bigN)
	want.Mul(want, bigR).Mul(want, bigR).Mod(want, bigN)
	var z [4]uint64
	ordInv(&z, &x)
	if limbsToBig(z).Cmp(want) != 0 {
		t.Fatalf("ordInv(%x) = %x, want %x", x, z, want)
	}
	var zv [4]uint64
	if ordInvVar(&zv, &x); zv != z {
		t.Fatalf("ordInvVar(%x) = %x, ordInv %x", x, zv, z)
	}
	if ordInv(&x, &x); x != z {
		t.Fatalf("ordInv in place = %x, want %x", x, z)
	}
}

// checkInvVar: feInvVar and ordInvVar of x (Montgomery form) equal math/big's
// inverse and the Fermat chains feInv and ordInv, in place as well; x = 0
// gives 0, as the chains do. x is reduced mod p and mod n first.
func checkInvVar(t *testing.T, x [4]uint64) {
	t.Helper()
	fx := fe(limbsOfBig(new(big.Int).Mod(limbsToBig(x), bigP)))
	var z, chain fe
	feInvVar(&z, &fx)
	feInv(&chain, &fx)
	want := new(big.Int)
	if v := bigOf(fx); v.Sign() != 0 {
		want.ModInverse(v, bigP)
	}
	if z != chain || bigOf(z).Cmp(want) != 0 || limbsToBig(z).Cmp(bigP) >= 0 {
		t.Fatalf("feInvVar(%x) = %x, feInv %x, want %x", fx, z, chain, want)
	}
	if feInvVar(&fx, &fx); fx != z {
		t.Fatalf("feInvVar in place = %x, want %x", fx, z)
	}

	ox := limbsOfBig(new(big.Int).Mod(limbsToBig(x), bigN))
	var oz, ochain [4]uint64
	ordInvVar(&oz, &ox)
	ordInv(&ochain, &ox)
	owant := new(big.Int) // (x·R⁻¹)⁻¹·R = x⁻¹·R² mod n
	if bx := limbsToBig(ox); bx.Sign() != 0 {
		owant.ModInverse(bx, bigN).Mul(owant, bigR).Mul(owant, bigR).Mod(owant, bigN)
	}
	if oz != ochain || limbsToBig(oz).Cmp(owant) != 0 {
		t.Fatalf("ordInvVar(%x) = %x, ordInv %x, want %x", ox, oz, ochain, owant)
	}
	if ordInvVar(&ox, &ox); ox != oz {
		t.Fatalf("ordInvVar in place = %x, want %x", ox, oz)
	}
}

// TestInvVarMatchesBig: both variable-time inversions on boundary values,
// on values with long runs of zero or one bits (the divsteps' shortcuts
// skip such runs) and on seeded random ones.
func TestInvVarMatchesBig(t *testing.T) {
	ones := ^uint64(0)
	xs := [][4]uint64{
		{}, {1}, {2}, {3}, {ones, ones, ones, ones}, pLimbs, nLimbs, feOne, feRR, ordRR,
		limbsOfBig(new(big.Int).Sub(bigP, big.NewInt(1))),
		limbsOfBig(new(big.Int).Sub(bigN, big.NewInt(1))),
		limbsOfBig(new(big.Int).Rsh(bigN, 1)),
	}
	for k := 0; k < 256; k += 7 {
		pow := new(big.Int).Lsh(big.NewInt(1), uint(k))
		xs = append(xs, limbsOfBig(pow), limbsOfBig(new(big.Int).Sub(pow, big.NewInt(1))),
			limbsOfBig(new(big.Int).Sub(bigN, pow)), limbsOfBig(new(big.Int).Sub(bigP, pow)))
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		xs = append(xs, [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()})
	}
	for _, x := range xs {
		checkInvVar(t, x)
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
			var zv fe
			if feInvVar(&zv, &fa); zv != z {
				t.Fatalf("feInvVar(%x) = %x, feInv %x", a, bigOf(zv), bigOf(z))
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
// other architectures run — in place as well as into a fresh destination. So
// do the kernel's composite routines: addAffine (into either operand too)
// and invertAll on elements derived from the two, and, mod n, ordMul of the
// first limbs reduced mod n by the second taken as they are, and ordInv. The
// variable-time inversions feInvVar and ordInvVar of the first equal
// math/big's and the Fermat chains'. Where the CPU has the 8-lane kernel,
// its product and difference of the two and of their twins p above agree
// with math/big and with feMul and feSub (checkLaneArith).
func FuzzFieldMatchesBig(f *testing.F) {
	ones := ^uint64(0)
	edges := [][4]uint64{
		{}, {1},
		limbsOfBig(new(big.Int).Sub(bigP, big.NewInt(1))),
		limbsOfBig(new(big.Int).Sub(bigP, big.NewInt(2))),
		{3: 1 << 63}, // 2²⁵⁵
		feOne,        // R mod p
		feRR,
		limbsOfBig(new(big.Int).Sub(bigN, big.NewInt(1))),
		{ones, ones, ones, ones}, // 2²⁵⁶ − 1
		{0, 0, 1 << 8},           // 2¹³⁶: long zero runs for the divsteps
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

		// Bit for bit with the generic code, on operands that need not be
		// points: the formula is field arithmetic either way.
		var xy fe
		feMulGeneric(&xy, &x, &y)
		p, q := affinePoint{x: x, y: y}, affinePoint{x: xy, y: x}
		var want, got affinePoint
		addAffineGeneric(&want, &p, &q, &y)
		if addAffine(&got, &p, &q, &y); got != want {
			t.Fatalf("addAffine of %x, %x: kernel %x, generic %x", bx, by, got, want)
		}
		got = p
		if addAffine(&got, &got, &q, &y); got != want {
			t.Fatalf("addAffine into p of %x, %x = %x, want %x", bx, by, got, want)
		}
		got = q
		if addAffine(&got, &p, &got, &y); got != want {
			t.Fatalf("addAffine into q of %x, %x = %x, want %x", bx, by, got, want)
		}
		xs := make([]fe, 1+int(a0%96)) // y, y + x, y + 2x, …, with 1 for 0
		for i, e := 0, y; i < len(xs); i++ {
			if xs[i] = e; e == (fe{}) {
				xs[i] = feOne
			}
			feAdd(&e, &e, &x)
		}
		checkInvertAll(t, xs)
		if haveLanes { // the 8-lane product and difference, on x, y and their twins p above
			ix, iy := limbsToBig(x), limbsToBig(y)
			tx, ty := new(big.Int).Add(ix, bigP), new(big.Int).Add(iy, bigP)
			checkLaneArith(t, [8]*big.Int{ix, tx, ix, tx, iy, ty, ix, iy}, [8]*big.Int{iy, iy, ty, ty, ix, tx, ix, ty})
		}

		ox := limbsOfBig(new(big.Int).Mod(limbsToBig([4]uint64{a0, a1, a2, a3}), bigN))
		oy := [4]uint64{b0, b1, b2, b3}
		wantOrd := new(big.Int).Mul(limbsToBig(ox), limbsToBig(oy))
		wantOrd.Mul(wantOrd, new(big.Int).ModInverse(bigR, bigN)).Mod(wantOrd, bigN)
		var oz, og [4]uint64
		ordMul(&oz, &ox, &oy)
		ordMulGeneric(&og, &ox, &oy)
		if limbsToBig(oz).Cmp(wantOrd) != 0 || og != oz {
			t.Fatalf("ordMul(%x, %x) = %x (generic %x), want %x", ox, oy, oz, og, wantOrd)
		}
		if ordMul(&oz, &oy, &ox); og != oz {
			t.Fatalf("ordMul(%x, %x) = %x, want %x", oy, ox, oz, og)
		}
		if ox != ([4]uint64{}) {
			checkOrdInv(t, ox)
		}
		checkInvVar(t, [4]uint64{a0, a1, a2, a3})
	})
}

// checkInvertAll: invertAll and invertAllGeneric agree bit for bit on xs,
// none zero, and with math/big.
func checkInvertAll(t *testing.T, xs []fe) {
	t.Helper()
	got, want := append([]fe(nil), xs...), append([]fe(nil), xs...)
	invertAll(got, make([]fe, len(xs)))
	invertAllGeneric(want, make([]fe, len(xs)))
	for i := range xs {
		inv := new(big.Int).ModInverse(bigOf(xs[i]), bigP)
		if got[i] != want[i] || bigOf(got[i]).Cmp(inv) != 0 {
			t.Fatalf("invertAll of %d elements, [%d] = %x (generic %x), want %x",
				len(xs), i, bigOf(got[i]), bigOf(want[i]), inv)
		}
	}
}

// TestInvertAllEveryLength: the kernel's two passes against the generic
// code at every length a level can have, and with a longer scratch.
func TestInvertAllEveryLength(t *testing.T) {
	vals := fieldSamples(rand.New(rand.NewSource(6)), 120)
	var xs []fe
	for _, v := range vals {
		if v.Sign() != 0 {
			xs = append(xs, feOf(v))
		}
	}
	for n := 1; n <= 100; n++ {
		checkInvertAll(t, xs[len(xs)-n:])
	}
	got, want := xs[:5:5], append([]fe(nil), xs[:5]...)
	invertAll(got, make([]fe, 8))
	invertAllGeneric(want, make([]fe, 5))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("invertAll with longer scratch: [%d] = %x, want %x", i, got[i], want[i])
		}
	}
	invertAll(nil, nil) // the empty level
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

// BenchmarkFeInvVar, BenchmarkAddMixed and BenchmarkAddAffine (which
// includes an addition's 3 M share of a shared inversion) are what
// affineLevelMin is derived from; BenchmarkFeInv prices the Fermat chain
// that feInvVar replaced.
func BenchmarkFeInv(b *testing.B) {
	x := feOf(big.NewInt(0).Rsh(bigP, 1))
	for i := 0; i < b.N; i++ {
		feInv(&x, &x)
	}
	sinkFE = x
}

// BenchmarkFeInvVar and BenchmarkOrdInvVar run over 1024 random values: the
// variable-time inversions' cost depends on the value, and inverting one
// value back and forth would let the branch predictor learn its path.
func BenchmarkFeInvVar(b *testing.B) {
	xs := randomLimbs(1024)
	var z fe
	for i := 0; i < b.N; i++ {
		feInvVar(&z, (*fe)(&xs[i%len(xs)]))
	}
	sinkFE = z
}

func BenchmarkOrdInv(b *testing.B) {
	x := limbsOfBig(new(big.Int).Rsh(bigN, 1))
	for i := 0; i < b.N; i++ {
		ordInv(&x, &x)
	}
	sinkFE = fe(x)
}

func BenchmarkOrdInvVar(b *testing.B) {
	xs := randomLimbs(1024)
	var z [4]uint64
	for i := 0; i < b.N; i++ {
		ordInvVar(&z, &xs[i%len(xs)])
	}
	sinkFE = fe(z)
}

// randomLimbs returns n seeded random values below 2²⁵⁵, so below p and n.
func randomLimbs(n int) [][4]uint64 {
	rng := rand.New(rand.NewSource(8))
	xs := make([][4]uint64, n)
	for i := range xs {
		xs[i] = [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64() >> 1}
	}
	return xs
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

// feInv sets z = x⁻¹ (x ≠ 0) by x^(p−2), along the addition chain of Go's
// p256Inverse (crypto/internal/fips140/nistec, derived there with
// github.com/mmcloughlin/addchain): 255 squarings and 12 multiplications,
// where plain square-and-multiply takes 256 and about 128. Constant time, and
// no longer on any path: it is the test oracle of feInvVar, which replaced it
// in invertAll. z may alias x.
//
//	_10     = 2*1
//	_11     = 1 + _10
//	_110    = 2*_11
//	_111    = 1 + _110
//	_111000 = _111 << 3
//	_111111 = _111 + _111000
//	x12     = _111111 << 6 + _111111
//	x15     = x12 << 3 + _111
//	x16     = 2*x15 + 1
//	x32     = x16 << 16 + x16
//	i53     = x32 << 15
//	x47     = x15 + i53
//	i263    = ((i53 << 17 + 1) << 143 + x47) << 47
//	return    (x47 + i263) << 2 + 1
func feInv(z, x *fe) {
	var r, t0, t1 fe
	feSqrN(&r, x, 1)
	feMul(&r, x, &r) // _11
	feSqrN(&r, &r, 1)
	feMul(&r, x, &r) // _111
	feSqrN(&t0, &r, 3)
	feMul(&t0, &r, &t0) // _111111
	feSqrN(&t1, &t0, 6)
	feMul(&t0, &t0, &t1) // x12
	feSqrN(&t0, &t0, 3)
	feMul(&r, &r, &t0) // x15
	feSqrN(&t0, &r, 1)
	feMul(&t0, x, &t0) // x16
	feSqrN(&t1, &t0, 16)
	feMul(&t0, &t0, &t1) // x32
	feSqrN(&t0, &t0, 15) // i53
	feMul(&r, &r, &t0)   // x47
	feSqrN(&t0, &t0, 17)
	feMul(&t0, x, &t0)
	feSqrN(&t0, &t0, 143)
	feMul(&t0, &r, &t0)
	feSqrN(&t0, &t0, 47) // i263
	feMul(&r, &r, &t0)
	feSqrN(&r, &r, 2)
	feMul(z, x, &r)
}

// ordSqrN sets z = x^(2ⁿ) in Montgomery form mod n, for n ≥ 1: ordInv's
// squarings.
func ordSqrN(z, x *[4]uint64, n int) {
	ordMul(z, x, x)
	for i := 1; i < n; i++ {
		ordMul(z, z, z)
	}
}

// ordInv sets z = x⁻¹ mod n for x ≠ 0, both in Montgomery form, by x^(n−2)
// along the addition chain of Go's P256OrdInverse
// (crypto/internal/fips140/nistec/p256_ordinv.go, from
// https://briansmith.org/ecc-inversion-addition-chains-01#p256_scalar_inversion):
// 254 squarings and 38 multiplications, and no allocation. Constant time,
// and no longer on any path: it is the test oracle of ordInvVar, which
// replaced it in invertScalars. z may alias x.
func ordInv(z, x *[4]uint64) {
	var _1, _11, _101, _111, _1111, _10101, _101111, t, r [4]uint64
	_1 = *x
	ordSqrN(&r, &_1, 1)         // _10
	ordMul(&_11, &r, &_1)       // _11
	ordMul(&_101, &r, &_11)     // _101
	ordMul(&_111, &r, &_101)    // _111
	ordSqrN(&r, &_101, 1)       // _1010
	ordMul(&_1111, &_101, &r)   // _1111
	ordSqrN(&t, &r, 1)          // _10100
	ordMul(&_10101, &t, &_1)    // _10101
	ordSqrN(&r, &_10101, 1)     // _101010
	ordMul(&_101111, &_101, &r) // _101111
	ordMul(&r, &_10101, &r)     // _111111 = x6
	ordSqrN(&t, &r, 2)          // _11111100
	ordMul(&t, &t, &_11)        // _11111111 = x8
	ordSqrN(&r, &t, 8)          // _ff00
	ordMul(&r, &r, &t)          // _ffff = x16
	ordSqrN(&t, &r, 16)         // _ffff0000
	ordMul(&t, &t, &r)          // _ffffffff = x32

	ordSqrN(&r, &t, 64)
	ordMul(&r, &r, &t)
	ordSqrN(&r, &r, 32)
	ordMul(&r, &r, &t)

	sqrs := [...]int{
		6, 5, 4, 5, 5,
		4, 3, 3, 5, 9,
		6, 2, 5, 6, 5,
		4, 5, 5, 3, 10,
		2, 5, 5, 3, 7, 6}
	muls := [...]*[4]uint64{
		&_101111, &_111, &_11, &_1111, &_10101,
		&_101, &_101, &_101, &_111, &_101111,
		&_1111, &_1, &_1, &_1111, &_111,
		&_111, &_111, &_101, &_11, &_101111,
		&_11, &_11, &_11, &_1, &_10101, &_1111}
	for i, s := range sqrs {
		ordSqrN(&r, &r, s)
		ordMul(&r, &r, muls[i])
	}
	*z = r
}
