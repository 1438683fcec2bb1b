package fabcrypto

import (
	"crypto/elliptic"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// requireLanes skips a test of the 8-lane kernel where it cannot run.
func requireLanes(t testing.TB) {
	t.Helper()
	if !haveLanes {
		t.Skip("no 8-lane kernel here: missing " + lanesMissing)
	}
}

// levelPaths lists the paths the batch's affine levels can take on this
// CPU: the 8-lane kernel where there is one (true), and the scalar one.
func levelPaths() []bool {
	if haveLanes {
		return []bool{true, false}
	}
	return []bool{false}
}

// onEachLevelPath runs f once per path of levelPaths, through scalarLevels,
// which it restores.
func onEachLevelPath(f func()) {
	defer func(old bool) { scalarLevels = old }(scalarLevels)
	for _, lanes := range levelPaths() {
		scalarLevels = !lanes
		f()
	}
}

// TestLanesReport says which kernels this run tests the affine levels on.
func TestLanesReport(t *testing.T) {
	if haveLanes {
		t.Log("affine levels: the 8-lane AVX-512 IFMA kernel, and the scalar kernel through scalarLevels")
	} else {
		t.Log("affine levels: the scalar kernel only; the 8-lane kernel is missing " + lanesMissing)
	}
}

var (
	bigR260    = new(big.Int).Lsh(big.NewInt(1), 260)
	bigR260Inv = new(big.Int).ModInverse(bigR260, bigP)
)

// laneOf packs eight integers below 2²⁶⁰ into a laneFE.
func laneOf(vs [8]*big.Int) *laneFE {
	var z laneFE
	mask := big.NewInt(1<<52 - 1)
	for l, v := range vs {
		t := new(big.Int).Set(v)
		for j := range z {
			z[j][l] = new(big.Int).And(t, mask).Uint64()
			t.Rsh(t, 52)
		}
	}
	return &z
}

// laneBig unpacks lane l, failing on a limb of more than 52 bits.
func laneBig(t testing.TB, z *laneFE, l int) *big.Int {
	t.Helper()
	v := new(big.Int)
	for j := len(z) - 1; j >= 0; j-- {
		if z[j][l] >= 1<<52 {
			t.Fatalf("lane %d: limb %d = %x is not below 2⁵²", l, j, z[j][l])
		}
		v.Lsh(v, 52).Add(v, new(big.Int).SetUint64(z[j][l]))
	}
	return v
}

// checkLaneArith: lane by lane, laneMul(x, y) is x·y·2⁻²⁶⁰ mod p below 2p
// and, made canonical and times 2⁴, feMul's Montgomery product; laneSub(x,
// y) is x − y mod p, canonical, and feSub's. Every x and y is below 2p.
func checkLaneArith(t testing.TB, xs, ys [8]*big.Int) {
	t.Helper()
	var mz, sz laneFE
	laneMul(&mz, laneOf(xs), laneOf(ys))
	laneSub(&sz, laneOf(xs), laneOf(ys))
	sixteen, _ := feFromLimbs([4]uint64{16})
	for l := range xs {
		x, y := xs[l], ys[l]
		got := laneBig(t, &mz, l)
		want := new(big.Int).Mul(x, y)
		want.Mul(want, bigR260Inv).Mod(want, bigP)
		if got.Cmp(new(big.Int).Lsh(bigP, 1)) >= 0 || new(big.Int).Mod(got, bigP).Cmp(want) != 0 {
			t.Fatalf("laneMul lane %d: %x · %x = %x, want %x (mod p) below 2p", l, x, y, got, want)
		}
		fx := fe(limbsOfBig(new(big.Int).Mod(x, bigP)))
		fy := fe(limbsOfBig(new(big.Int).Mod(y, bigP)))
		var fz, lz fe
		feMul(&fz, &fx, &fy)
		lz = mz.get(l)
		if feMul(&lz, &lz, &sixteen); lz != fz {
			t.Fatalf("laneMul lane %d: %x · %x times 2⁴ = %x, feMul %x", l, x, y, lz, fz)
		}

		got = laneBig(t, &sz, l)
		want = new(big.Int).Sub(x, y)
		if want.Mod(want, bigP); got.Cmp(want) != 0 {
			t.Fatalf("laneSub lane %d: %x − %x = %x, want %x", l, x, y, got, want)
		}
		if feSub(&fz, &fx, &fy); sz.get(l) != fz {
			t.Fatalf("laneSub lane %d: %x − %x = %x, feSub %x", l, x, y, sz.get(l), fz)
		}
	}
}

// TestLaneArithMatchesBig: the 8-lane multiplication and subtraction on
// 32 000 lane operands: the edges p − 1 … p − 8 and their twins p above,
// boundary values below p and below 2p, and seeded random ones of both.
func TestLaneArithMatchesBig(t *testing.T) {
	requireLanes(t)
	rng := rand.New(rand.NewSource(9))
	var vals []*big.Int
	for k := int64(1); k <= 8; k++ {
		e := new(big.Int).Sub(bigP, big.NewInt(k))
		vals = append(vals, e, new(big.Int).Add(e, bigP))
	}
	for _, v := range fieldSamples(rng, 0) {
		vals = append(vals, v, new(big.Int).Add(v, bigP))
	}
	pick := func(i int) *big.Int {
		if i < 2*len(vals) {
			return vals[i%len(vals)]
		}
		v := new(big.Int).Rand(rng, bigP)
		if rng.Intn(2) == 1 {
			v.Add(v, bigP)
		}
		return v
	}
	n := 4000
	if testing.Short() {
		n = 500
	}
	for i := 0; i < n; i++ {
		var xs, ys [8]*big.Int
		for l := range xs {
			xs[l], ys[l] = pick(8*i+l), pick(8*i+l+3*i)
		}
		checkLaneArith(t, xs, ys)
	}
}

// TestLaneLevelMatchesScalar: two affine levels on the lanes and on the
// scalar kernel leave the same points and list lengths for every
// signature, bit for bit, over random lists of odd and even lengths, with
// exceptional pairs (P + P and P − P) among them, and totals of every
// remainder mod 8 (the padded tail group).
func TestLaneLevelMatchesScalar(t *testing.T) {
	requireLanes(t)
	c := elliptic.P256()
	rng := rand.New(rand.NewSource(12))
	pool := make([]affinePoint, 96)
	for i := range pool {
		k := make([]byte, 32)
		rng.Read(k)
		x, y := c.ScalarBaseMult(k)
		pool[i] = affineOf(x, y)
	}
	for round := 0; round < 300; round++ {
		var lane, scalar batchScratch
		sigs := 1 + rng.Intn(12)
		for j := 0; j < sigs; j++ {
			n := rng.Intn(2 + round%32)
			lane.sigs = append(lane.sigs, batchSig{off: len(lane.pts), n: n})
			for k := 0; k < n; k++ {
				p := pool[rng.Intn(len(pool))]
				if k%2 == 1 && rng.Intn(40) == 0 { // an exceptional pair: P + P or P − P
					p = lane.pts[len(lane.pts)-1]
					if rng.Intn(2) == 0 {
						feNeg(&p.y, &p.y)
					}
				}
				lane.pts = append(lane.pts, p)
			}
		}
		scalar.sigs = append(scalar.sigs, lane.sigs...)
		scalar.pts = append(scalar.pts, lane.pts...)
		// Two levels: the second takes its pairs at stride 2.
		for _, stride := range []int{1, 2} {
			lane.stride, scalar.stride = stride, stride
			lane.level(true)
			scalar.level(false)
			for j := range lane.sigs {
				if ls, ss := lane.sigs[j], scalar.sigs[j]; ls.n != ss.n {
					t.Fatalf("round %d, stride %d, signature %d: lanes leave %d points, scalar %d", round, stride, j, ls.n, ss.n)
				}
			}
			for k := range lane.pts {
				if lane.pts[k] != scalar.pts[k] {
					t.Fatalf("round %d, stride %d, point %d: lanes %x, scalar %x", round, stride, k, lane.pts[k], scalar.pts[k])
				}
			}
		}
	}
}

// TestLaneLevelNoAllocs: a level on the lanes allocates nothing once the
// scratch has grown.
func TestLaneLevelNoAllocs(t *testing.T) {
	requireLanes(t)
	var sc batchScratch
	pts := make([]affinePoint, 0, 64)
	c := elliptic.P256()
	for i := 0; i < 64; i++ {
		x, y := c.ScalarBaseMult([]byte{byte(i + 1)})
		pts = append(pts, affineOf(x, y))
	}
	run := func() {
		sc.sigs = append(sc.sigs[:0], batchSig{off: 0, n: 64})
		sc.pts = append(sc.pts[:0], pts...)
		sc.reduceLevels(true)
	}
	run()
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("%v allocations per batch on the lanes", a)
	}
}

var sinkLane laneFE

// BenchmarkLaneMul is one call of eight independent products.
func BenchmarkLaneMul(b *testing.B) {
	requireLanes(b)
	var xs [8]*big.Int
	for l := range xs {
		xs[l] = new(big.Int).Rsh(bigP, uint(l+1))
	}
	x := laneOf(xs)
	for i := 0; i < b.N; i++ {
		laneMul(&sinkLane, x, x)
	}
}

// BenchmarkAddAffineLanes prices one affine addition on the lanes in a
// level of the given number of pairs, everything the level does included:
// the pairing, both passes, the eight lanes' joint feInvVar, the padded
// tail group. Set beside BenchmarkAddMixed, it is what laneLevelMin is
// derived from: the smallest level whose additions cost less than the
// mixed additions they save.
func BenchmarkAddAffineLanes(b *testing.B) {
	requireLanes(b)
	c := elliptic.P256()
	var pts []affinePoint
	for i := 0; i < 512; i++ {
		x, y := c.ScalarBaseMult([]byte{byte(i), byte(i >> 8), 1})
		pts = append(pts, affineOf(x, y))
	}
	for _, pairs := range []int{8, 12, 16, 20, 24, 256} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			var sc batchScratch
			for i := 0; i < b.N; i += pairs {
				sc.sigs = append(sc.sigs[:0], batchSig{off: 0, n: 2 * pairs})
				sc.pts = append(sc.pts[:0], pts[:2*pairs]...)
				sc.stride = 1
				sc.level(true)
			}
		})
	}
}
