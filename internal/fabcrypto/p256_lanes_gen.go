//go:build ignore

// This program writes p256_lanes_amd64.s, the 8-lane field kernel of the
// batch verifier's affine levels and of the signer's fixed-base comb
// (AVX-512F, AVX-512DQ and AVX-512 IFMA):
//
//	go run p256_lanes_gen.go > p256_lanes_amd64.s
//
// (go generate in this directory runs it.) It uses the standard library
// only. Every constant it writes is derived here from p with math/big and
// checked before it is written.
//
// An 8-lane field element is a laneFE, [5][8]uint64: limb j of lane l at
// [j][l], radix 2⁵², so one zmm register holds one limb of eight elements.
// The multiplication is almost-Montgomery with R′ = 2²⁶⁰: for inputs below
// 2²⁵⁸ it returns a·b·2⁻²⁶⁰ mod p below 2²⁵⁷ (below 2p when both inputs are),
// every limb below 2⁵², without a final subtraction. −p⁻¹ mod 2⁵² is 1, so a
// round's reduction multiplier is the low limb itself.
//
// The comb's routines (combKernels) compute on elems, laneFEs whose bounds
// the generator tracks: it picks each difference's multiple of p, folds
// where a value would outgrow what the multiplication takes, and panics
// rather than write code whose limbs could overflow or go negative.
package main

import (
	"fmt"
	"math/big"
	"os"
	"strings"
)

var (
	out strings.Builder

	bigP   = mustBig("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")
	bigB   = mustBig("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b")
	bigC   = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), bigP) // 2²⁵⁶ − p
	mask52 = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 52), big.NewInt(1))
)

func mustBig(hex string) *big.Int {
	v, ok := new(big.Int).SetString(hex, 16)
	if !ok {
		panic(hex)
	}
	return v
}

// limbs52 splits v into five 52-bit limbs; v must be below 2²⁶⁰.
func limbs52(v *big.Int) [5]uint64 {
	if v.Sign() < 0 || v.BitLen() > 260 {
		panic("limbs52: out of range")
	}
	var l [5]uint64
	t := new(big.Int).Set(v)
	for i := range l {
		l[i] = new(big.Int).And(t, mask52).Uint64()
		t.Rsh(t, 52)
	}
	return l
}

// redundant returns k·p as five limbs whose low four are at least minLimb
// (a limb of minLimb or less can be subtracted from each without a borrow)
// and whose top one is at least minTop: 2^shift is added to each of the low
// four limbs and taken back from the next.
func redundant(k int64, shift uint, minLimb, minTop uint64) [5]uint64 {
	v := new(big.Int).Mul(bigP, big.NewInt(k))
	l := limbs52(v)
	for i := 0; i < 4; i++ {
		l[i] += 1 << shift
		l[i+1] -= 1 << (shift - 52)
	}
	sum := new(big.Int)
	for i := 4; i >= 0; i-- {
		sum.Lsh(sum, 52).Add(sum, new(big.Int).SetUint64(l[i]))
		if i < 4 && l[i] < minLimb || i == 4 && l[i] < minTop {
			panic(fmt.Sprintf("redundant(%d): limb %d = %x too small", k, i, l[i]))
		}
	}
	if sum.Cmp(v) != 0 {
		panic("redundant: wrong value")
	}
	return l
}

func emit(format string, args ...any) { fmt.Fprintf(&out, "\t"+format+"\n", args...) }
func label(name string)               { fmt.Fprintf(&out, "%s:\n", name) }
func comment(format string, args ...any) {
	fmt.Fprintf(&out, "\t// "+format+"\n", args...)
}

// A vec is the five limbs of one 8-lane element: registers or memory
// operands.
type vec [5]string

func regs(first int) vec {
	var v vec
	for i := range v {
		v[i] = fmt.Sprintf("Z%d", first+i)
	}
	return v
}

// mem is the laneFE at off(base).
func mem(base string, off int) vec {
	var v vec
	for i := range v {
		v[i] = fmt.Sprintf("%d(%s)", off+64*i, base)
	}
	return v
}

func isMem(op string) bool { return strings.Contains(op, "(") }

// Fixed registers: the 52-bit mask and the nonzero limbs of p (limb 2 of p
// is zero) stay loaded; the multiplication owns Z15–Z26.
const (
	rMask = "Z31"
	rTmp  = "Z26" // scratch: a carry, fold's q
	rIdx  = "Z14" // the group's eight point offsets
)

var pLimbReg = [5]string{"Z30", "Z29", "", "Z28", "Z27"}

var (
	aRegs   = regs(15)                                            // the first factor
	accRegs = [6]string{"Z20", "Z21", "Z22", "Z23", "Z24", "Z25"} // the running sum
)

// move copies src to dst; either may be memory, not both.
func move(dst, src vec) {
	for i := range dst {
		if dst[i] == src[i] {
			continue
		}
		switch {
		case isMem(dst[i]):
			emit("VMOVDQU64 %s, %s", src[i], dst[i])
		case isMem(src[i]):
			emit("VMOVDQU64 %s, %s", src[i], dst[i])
		default:
			emit("VMOVDQA64 %s, %s", src[i], dst[i])
		}
	}
}

// normalize carries every limb of v (registers) above 52 bits into the next;
// the top limb keeps its excess.
func normalize(v vec, tmp string) {
	for i := 0; i < 4; i++ {
		emit("VPSRLQ $52, %s, %s", v[i], tmp)
		emit("VPADDQ %s, %s, %s", tmp, v[i+1], v[i+1])
		emit("VPANDQ %s, %s, %s", rMask, v[i], v[i])
	}
}

// mul writes a·b·2⁻²⁶⁰ mod p, normalized, to the registers it returns
// (four of Z20–Z25). a may be memory (it is loaded into Z15–Z19) or
// registers; b may be memory or registers. Inputs below 2²⁵⁸ give a result
// below 2²⁵⁷.
func mul(a, b vec) vec {
	for i := range a {
		if isMem(a[i]) {
			move(aRegs, a)
			a = aRegs
			break
		}
	}
	acc := accRegs[:]
	for _, r := range acc {
		emit("VPXORQ %s, %s, %s", r, r, r)
	}
	for i := 0; i < 5; i++ {
		comment("round %d: acc += a[%d]·b, then cancel limb 0 with m·p, m = acc[0] mod 2⁵²", i, i)
		for j := 0; j < 5; j++ {
			emit("VPMADD52LUQ %s, %s, %s", b[j], a[i], acc[j])
		}
		for j := 0; j < 5; j++ {
			emit("VPMADD52HUQ %s, %s, %s", b[j], a[i], acc[j+1])
		}
		// m is acc[0] itself: the multiplications read only its low 52
		// bits. m·(p0 + 2⁵²·p1) = m·2⁹⁶ − m: the −m clears acc[0]'s low
		// 52 bits, which leaves its carry, and m·2⁴⁴ goes in at limb 1.
		emit("VPMADD52LUQ.BCST two44<>+0(SB), %s, %s", acc[0], acc[1])
		emit("VPMADD52HUQ.BCST two44<>+0(SB), %s, %s", acc[0], acc[2])
		for j := 3; j < 5; j++ {
			emit("VPMADD52LUQ %s, %s, %s", pLimbReg[j], acc[0], acc[j])
			emit("VPMADD52HUQ %s, %s, %s", pLimbReg[j], acc[0], acc[j+1])
		}
		emit("VPSRLQ $52, %s, %s", acc[0], acc[0])
		emit("VPADDQ %s, %s, %s", acc[0], acc[1], acc[1])
		// Shift down one limb: the cleared limb's register becomes the top.
		acc = append(acc[1:], acc[0])
		if i < 4 {
			emit("VPXORQ %s, %s, %s", acc[5], acc[5], acc[5])
		}
	}
	var r vec
	copy(r[:], acc[:5])
	normalize(r, rTmp)
	return r
}

// lazySub sets dst = a + k − b for registers dst, with k a redundant
// multiple of p large enough that no limb goes negative, and normalizes it.
// a and b may be memory or registers.
func lazySub(dst, a vec, k string, b vec) {
	for i := range dst {
		if isMem(a[i]) {
			emit("VMOVDQU64 %s, %s", a[i], dst[i])
			emit("VPADDQ.BCST %s<>+%d(SB), %s, %s", k, 8*i, dst[i], dst[i])
		} else {
			emit("VPADDQ.BCST %s<>+%d(SB), %s, %s", k, 8*i, a[i], dst[i])
		}
		emit("VPSUBQ %s, %s, %s", b[i], dst[i], dst[i])
	}
	normalize(dst, rTmp)
}

// canonical reduces v (registers, nonnegative, below 2²⁶⁰, limbs below 2⁶³)
// to [0, p) in dst (registers), every limb below 2⁵². q = ⌊v/2²⁵⁶⌋ is
// folded back as q·(2²⁵⁶ − p), which leaves less than 2p, and p is
// subtracted where that does not borrow. Uses K2.
func canonical(dst, v vec, tmp string) {
	normalize(v, tmp)
	fold(v, tmp, dst[0])
	comment("subtract p where that does not borrow")
	for j := 0; j < 5; j++ {
		switch {
		case pLimbReg[j] == "":
			emit("VMOVDQA64 %s, %s", v[j], dst[j])
		default:
			emit("VPSUBQ %s, %s, %s", pLimbReg[j], v[j], dst[j])
		}
		if j > 0 {
			emit("VPADDQ %s, %s, %s", tmp, dst[j], dst[j])
		}
		if j < 4 {
			emit("VPSRAQ $52, %s, %s", dst[j], tmp)
			emit("VPANDQ %s, %s, %s", rMask, dst[j], dst[j])
		}
	}
	emit("VPMOVQ2M %s, K2", dst[4])
	for j := 0; j < 5; j++ {
		emit("VMOVDQA64 %s, K2, %s", v[j], dst[j])
	}
}

// fold folds the bits of v (registers, normalized, below 2²⁶⁰) above 2²⁵⁶
// back as q·(2²⁵⁶ − p), q = ⌊v/2²⁵⁶⌋, and normalizes it: the value stays
// the same mod p and drops below 2²⁵⁶ + q·(2²⁵⁶ − p) (foldBound). 2²⁵⁶ − p
// is 2²²⁴ − 2¹⁹² − 2⁹⁶ + 1, so q goes in by shifts at limbs 0, 1, 3 and 4,
// two of them subtracted: the carries are signed. q and t are scratch.
func fold(v vec, q, t string) {
	comment("fold the bits above 2²⁵⁶ back as q·(2²²⁴ − 2¹⁹² − 2⁹⁶ + 1)")
	emit("VPSRLQ $48, %s, %s", v[4], q)
	emit("VPANDQ.BCST mask48<>+0(SB), %s, %s", v[4], v[4])
	emit("VPADDQ %s, %s, %s", q, v[0], v[0])
	for _, s := range []struct {
		limb  int
		shift uint
		op    string
	}{{1, 96 - 52, "VPSUBQ"}, {3, 192 - 156, "VPSUBQ"}, {4, 224 - 208, "VPADDQ"}} {
		emit("VPSLLQ $%d, %s, %s", s.shift, q, t)
		emit("%s %s, %s, %s", s.op, t, v[s.limb], v[s.limb])
	}
	for i := 0; i < 4; i++ {
		emit("VPSRAQ $52, %s, %s", v[i], t)
		emit("VPADDQ %s, %s, %s", t, v[i+1], v[i+1])
		emit("VPANDQ %s, %s, %s", rMask, v[i], v[i])
	}
}

// gather loads one coordinate of the eight points at rIdx plus off from
// base (4×64-bit limbs) into dst (registers, radix 2⁵²), with q (four
// registers) as scratch.
func gather(dst vec, base string, off int, q [4]string) {
	for i := range q {
		emit("KXNORW K1, K1, K1")
		emit("VPGATHERQQ %d(%s)(%s*1), K1, %s", off+8*i, base, rIdx, q[i])
	}
	emit("VPANDQ %s, %s, %s", rMask, q[0], dst[0])
	for i := 1; i < 4; i++ {
		emit("VPSRLQ $%d, %s, %s", 64-12*i, q[i-1], dst[i])
		emit("VPSLLQ $%d, %s, %s", 12*i, q[i], rTmp)
		emit("VPORQ %s, %s, %s", rTmp, dst[i], dst[i])
		emit("VPANDQ %s, %s, %s", rMask, dst[i], dst[i])
	}
	emit("VPSRLQ $16, %s, %s", q[3], dst[4])
}

// scatter stores v (registers, canonical, radix 2⁵²) as 4×64-bit limbs to
// the points at rIdx plus off from base, in the lanes of the mask in AX,
// with q (four registers) as scratch.
func scatter(v vec, base string, off int, q [4]string) {
	for i := 0; i < 4; i++ {
		emit("VPSRLQ $%d, %s, %s", 12*i, v[i], q[i])
		emit("VPSLLQ $%d, %s, %s", 52-12*i, v[i+1], rTmp)
		emit("VPORQ %s, %s, %s", rTmp, q[i], q[i])
	}
	for i := range q {
		emit("KMOVW AX, K1")
		emit("VPSCATTERQQ %s, K1, %d(%s)(%s*1)", q[i], off+8*i, base, rIdx)
	}
}

// loadConstants puts the mask and p's limbs in their registers.
func loadConstants() {
	emit("VPBROADCASTQ mask52<>+0(SB), %s", rMask)
	for j, r := range pLimbReg {
		if r != "" {
			emit("VPBROADCASTQ plimbs<>+%d(SB), %s", 8*j, r)
		}
	}
}

// loadIndex loads the eight int32 point indices at (SI) as byte offsets.
func loadIndex() {
	emit("VPMOVZXDQ (SI), %s", rIdx)
	emit("VPSLLQ $6, %s, %s", rIdx, rIdx)
}

func header(name, args string, frame int) {
	fmt.Fprintf(&out, "\n// func %s\n", args)
	fmt.Fprintf(&out, "// Requires: AVX512F, AVX512DQ, AVX512IFMA\n")
	fmt.Fprintf(&out, "TEXT ·%s(SB), NOSPLIT, $0-%d\n", name, frame)
}

func data(name string, vals ...uint64) {
	fmt.Fprintln(&out)
	for i, v := range vals {
		fmt.Fprintf(&out, "DATA %s<>+%d(SB)/8, $0x%016x\n", name, 8*i, v)
	}
	fmt.Fprintf(&out, "GLOBL %s<>(SB), RODATA|NOPTR, $%d\n", name, 8*len(vals))
}

// Offsets of the slots of a laneTemps (keytable.go), in the order of its
// fields.
const (
	tX1 = iota * 320
	tY1
	tX2
	tY2
	tD
	tDY
	tI
	tInv
	tL
	tX3
)

var q4 = [4]string{"Z0", "Z1", "Z2", "Z3"}

// The signer's comb (sign_lanes.go): R = k·G as eight running sums, one per
// lane, of the table entries that k's signed 6-bit digits select. Every
// routine below runs the same instructions on the same addresses whatever
// the digits are.

// Offsets of the fields of a laneComb (sign_lanes.go), in their order.
const (
	combRounds  = 6  // windows 8r + l, lane l, round r: 43 padded to 48
	combEntries = 32 // the multiples 1..32 of a window's base
	laneAffSize = 2 * 320
	laneProjSz  = 3 * 320

	cDigit = 0
	cSign  = cDigit + combRounds*64
	cSel   = cSign + combRounds*64
	cAcc   = cSel + combRounds*laneAffSize
	cQ     = cAcc + laneProjSz
	cT     = cQ + laneProjSz
	cSize  = cT + 8*320
)

// An elem is a laneFE the comb computes with, and a bound: every lane's
// value is below b, in normalized limbs.
type elem struct {
	at vec
	b  *big.Int
}

var (
	two256 = new(big.Int).Lsh(big.NewInt(1), 256)
	two258 = new(big.Int).Lsh(big.NewInt(1), 258)
	two260 = new(big.Int).Lsh(big.NewInt(1), 260)

	// maxStored bounds every value the comb keeps between operations: a
	// sum or difference above it is folded. The multiplication takes
	// anything below 2²⁶⁰ (five 52-bit limbs); 2²⁵⁷ here doubles the
	// folds, 2²⁵⁹ saves none.
	maxStored = two258

	// subtrahends are the redundant multiples of p a difference adds, by
	// the largest value each can take away (k·p).
	subtrahends = []struct {
		name string
		k    int64
	}{{"k1p", 1}, {"k2p", 2}, {"k4p", 4}, {"k8p", 8}}
)

func slotAt(base string, off int) *elem { return &elem{at: mem(base, off)} }

func (e *elem) withBound(b *big.Int) *elem { e.b = b; return e }

// mulBound is the product's bound for factors below a and b:
// (x·y + m·p)/2²⁶⁰ with m < 2²⁶⁰.
func mulBound(a, b *big.Int) *big.Int {
	v := new(big.Int).Mul(new(big.Int).Sub(a, big.NewInt(1)), new(big.Int).Sub(b, big.NewInt(1)))
	v.Rsh(v, 260)
	return v.Add(v, bigP).Add(v, big.NewInt(1))
}

// foldBound is fold's bound for values below b.
func foldBound(b *big.Int) *big.Int {
	if b.Cmp(two260) > 0 {
		panic("fold: value not below 2²⁶⁰")
	}
	q := new(big.Int).Rsh(new(big.Int).Sub(b, big.NewInt(1)), 256)
	return q.Mul(q, bigC).Add(q, two256)
}

// store normalizes v (registers, nonnegative limbs, below b) and writes it
// to dst, folded first if b exceeds maxStored.
func store(dst *elem, v vec, b *big.Int) {
	normalize(v, rTmp)
	if b.Cmp(maxStored) > 0 {
		fold(v, rTmp, "Z14")
		b = foldBound(b)
	}
	move(dst.at, v)
	dst.b = b
}

// fmul sets dst = x·y·2⁻²⁶⁰ mod p.
func fmul(dst, x, y *elem) {
	if x.b.Cmp(two260) > 0 || y.b.Cmp(two260) > 0 {
		panic("fmul: a factor's limbs leave 52 bits")
	}
	b := mulBound(x.b, y.b)
	move(dst.at, mul(x.at, y.at))
	dst.b = b
}

// fmulB sets dst = b·x, b the curve's constant.
func fmulB(dst, x *elem) {
	cb := regs(5)
	for i := range cb {
		emit("VPBROADCASTQ lb<>+%d(SB), %s", 8*i, cb[i])
	}
	fmul(dst, x, &elem{at: cb, b: bigP})
}

// fadd sets dst = x + y.
func fadd(dst, x, y *elem) {
	v := regs(0)
	move(v, x.at)
	for i := range v {
		emit("VPADDQ %s, %s, %s", y.at[i], v[i], v[i])
	}
	store(dst, v, new(big.Int).Add(x.b, y.b))
}

// subtrahend returns the smallest redundant multiple of p that y, below b,
// can be taken from, and its value.
func subtrahend(b *big.Int) (string, *big.Int) {
	for _, s := range subtrahends {
		if kp := new(big.Int).Mul(bigP, big.NewInt(s.k)); kp.Cmp(b) >= 0 {
			return s.name, kp
		}
	}
	panic("subtrahend: no multiple of p large enough")
}

// fsub sets dst = x + k·p − y.
func fsub(dst, x, y *elem) {
	k, kp := subtrahend(y.b)
	v := regs(0)
	move(v, x.at)
	for i := range v {
		emit("VPADDQ.BCST %s<>+%d(SB), %s, %s", k, 8*i, v[i], v[i])
		emit("VPSUBQ %s, %s, %s", y.at[i], v[i], v[i])
	}
	store(dst, v, new(big.Int).Add(x.b, kp))
}

// signedY loads y (below p) into Z0–Z4, negated (p − y) in the lanes of K4.
func signedY(y *elem) *big.Int {
	if y.b.Cmp(bigP) > 0 {
		panic("signedY: y not below p")
	}
	v, n := regs(0), regs(5)
	move(v, y.at)
	for i := range n {
		emit("VPBROADCASTQ k1p<>+%d(SB), %s", 8*i, n[i])
		emit("VPSUBQ %s, %s, %s", v[i], n[i], n[i])
	}
	normalize(n, rTmp)
	for i := range v {
		emit("VMOVDQA64 %s, K4, %s", n[i], v[i])
	}
	return new(big.Int).Add(bigP, big.NewInt(1))
}

// accBound bounds the running sums between calls.
var accBound = maxStored

type point struct{ x, y, z *elem }

func proj(base string, off int, b *big.Int) point {
	p := point{slotAt(base, off), slotAt(base, off+320), slotAt(base, off+640)}
	p.x.b, p.y.b, p.z.b = b, b, b
	return p
}

// temps are the comb's working laneFEs t0–t4 and the sum's X3, Y3, Z3.
func temps() ([5]*elem, point) {
	var t [5]*elem
	for i := range t {
		t[i] = slotAt("DI", cT+320*i)
	}
	return t, point{slotAt("DI", cT+320*5), slotAt("DI", cT+320*6), slotAt("DI", cT+320*7)}
}

// addMixed emits the complete mixed addition of Renes, Costello and Batina
// (EUROCRYPT 2016, algorithm 5, a = −3): r = p + (x2, y2), for any p,
// identity included, and an affine point (x2, y2) — 11 M, 2 m_b.
func addMixed(r, p point, x2, y2 *elem) {
	t, _ := temps()
	X1, Y1, Z1, X3, Y3, Z3 := p.x, p.y, p.z, r.x, r.y, r.z
	fmul(t[0], X1, x2)
	fmul(t[1], Y1, y2)
	fadd(t[3], x2, y2)
	fadd(t[4], X1, Y1)
	fmul(t[3], t[3], t[4])
	fadd(t[4], t[0], t[1])
	fsub(t[3], t[3], t[4])
	fmul(t[4], y2, Z1)
	fadd(t[4], t[4], Y1)
	fmul(Y3, x2, Z1)
	fadd(Y3, Y3, X1)
	fmulB(Z3, Z1)
	fsub(X3, Y3, Z3)
	fadd(Z3, X3, X3)
	fadd(X3, X3, Z3)
	fsub(Z3, t[1], X3)
	fadd(X3, t[1], X3)
	fmulB(Y3, Y3)
	fadd(t[1], Z1, Z1)
	fadd(t[2], t[1], Z1)
	addTail(r, t)
}

// addFull emits the complete projective addition of the same paper
// (algorithm 4, a = −3): r = p + q for any p and q — 12 M, 2 m_b.
func addFull(r, p, q point) {
	t, _ := temps()
	X1, Y1, Z1, X2, Y2, Z2, X3, Y3, Z3 := p.x, p.y, p.z, q.x, q.y, q.z, r.x, r.y, r.z
	fmul(t[0], X1, X2)
	fmul(t[1], Y1, Y2)
	fmul(t[2], Z1, Z2)
	fadd(t[3], X1, Y1)
	fadd(t[4], X2, Y2)
	fmul(t[3], t[3], t[4])
	fadd(t[4], t[0], t[1])
	fsub(t[3], t[3], t[4])
	fadd(t[4], Y1, Z1)
	fadd(X3, Y2, Z2)
	fmul(t[4], t[4], X3)
	fadd(X3, t[1], t[2])
	fsub(t[4], t[4], X3)
	fadd(X3, X1, Z1)
	fadd(Y3, X2, Z2)
	fmul(X3, X3, Y3)
	fadd(Y3, t[0], t[2])
	fsub(Y3, X3, Y3)
	fmulB(Z3, t[2])
	fsub(X3, Y3, Z3)
	fadd(Z3, X3, X3)
	fadd(X3, X3, Z3)
	fsub(Z3, t[1], X3)
	fadd(X3, t[1], X3)
	fmulB(Y3, Y3)
	fadd(t[1], t[2], t[2])
	fadd(t[2], t[1], t[2])
	addTail(r, t)
}

// addTail is the part both additions share, from Y3 = Y3 − t2 on.
func addTail(r point, t [5]*elem) {
	X3, Y3, Z3 := r.x, r.y, r.z
	fsub(Y3, Y3, t[2])
	fsub(Y3, Y3, t[0])
	fadd(t[1], Y3, Y3)
	fadd(Y3, t[1], Y3)
	fadd(t[1], t[0], t[0])
	fadd(t[0], t[1], t[0])
	fsub(t[0], t[0], t[2])
	fmul(t[1], t[4], Y3)
	fmul(t[2], t[0], Y3)
	fmul(Y3, X3, Z3)
	fadd(Y3, Y3, t[2])
	fmul(X3, t[3], X3)
	fsub(X3, X3, t[1])
	fmul(Z3, t[4], Z3)
	fmul(t[1], t[3], t[0])
	fadd(Z3, Z3, t[1])
}

// keepIn writes the sum r over the running sums acc in the lanes of mask
// (all lanes for ""), and checks that the sums stay within accBound.
func keepIn(acc, r point, mask string) {
	for _, c := range [][2]*elem{{acc.x, r.x}, {acc.y, r.y}, {acc.z, r.z}} {
		if c[1].b.Cmp(accBound) > 0 {
			panic("the running sums outgrow accBound")
		}
		for i := range c[0].at {
			if mask == "" {
				emit("VMOVDQU64 %s, Z0", c[1].at[i])
			} else {
				emit("VMOVDQU64 %s, Z0", c[0].at[i])
				emit("VMOVDQU64 %s, Z1", c[1].at[i])
				emit("VMOVDQA64 Z1, %s, Z0", mask)
			}
			emit("VMOVDQU64 Z0, %s", c[0].at[i])
		}
	}
}

// digitMasks sets K3 to the lanes whose digit (at SI) is not zero and K4 to
// those whose digit is negative (sign at DX).
func digitMasks() {
	emit("VMOVDQU64 (SI), Z10")
	emit("VPTESTMQ Z10, Z10, K3")
	emit("VMOVDQU64 (DX), Z10")
	emit("VPTESTMQ Z10, Z10, K4")
}

// roundPointers points SI, DX and R9 at round AX's digits, signs and
// selected entries in the laneComb at DI.
func roundPointers() {
	emit("MOVQ AX, BX")
	emit("SHLQ $6, BX")
	emit("LEAQ %d(DI)(BX*1), SI", cDigit)
	emit("LEAQ %d(DI)(BX*1), DX", cSign)
	emit("IMUL3Q $%d, AX, BX", laneAffSize)
	emit("LEAQ %d(DI)(BX*1), R9", cSel)
}

func combKernels() {
	// lanesCombSelect: every round's table entries, by a full scan.
	header("lanesCombSelect", "lanesCombSelect(c *laneComb, tab *[combRounds][combEntries]laneAffine)", 16)
	emit("MOVQ c+0(FP), DI")
	emit("MOVQ tab+8(FP), SI")
	emit("LEAQ %d(DI), R9", cSel)
	comment("Z30 = 1 in every lane")
	emit("VPTERNLOGQ $0xff, Z30, Z30, Z30")
	emit("VPSRLQ $63, Z30, Z30")
	emit("MOVQ $%d, BX", combRounds)
	label("selectRound")
	emit("VMOVDQU64 %d(DI), Z31", cDigit)
	for i := 0; i < 10; i++ {
		emit("VPXORQ Z%d, Z%d, Z%d", i, i, i)
	}
	emit("VMOVDQA64 Z30, Z29")
	emit("MOVQ $%d, CX", combEntries)
	label("selectEntry")
	comment("Z28 = all ones in the lanes whose digit is this entry's")
	emit("VPCMPEQQ Z29, Z31, K1")
	emit("VPMOVM2Q K1, Z28")
	for i := 0; i < 10; i++ {
		emit("VPTERNLOGQ $0xf8, %d(SI), Z28, Z%d", 64*i, i) // Zi |= entry ∧ Z28
	}
	emit("VPADDQ Z30, Z29, Z29")
	emit("ADDQ $%d, SI", laneAffSize)
	emit("DECQ CX")
	emit("JNZ selectEntry")
	for i := 0; i < 10; i++ {
		emit("VMOVDQU64 Z%d, %d(R9)", i, 64*i)
	}
	emit("ADDQ $64, DI")
	emit("ADDQ $%d, R9", laneAffSize)
	emit("DECQ BX")
	emit("JNZ selectRound")
	emit("VZEROUPPER")
	emit("RET")

	// lanesCombStart: the running sums are round 0's entries, negated where
	// the digit is, or the identity (0 : 1 : 0) where it is zero.
	header("lanesCombStart", "lanesCombStart(c *laneComb)", 8)
	emit("MOVQ c+0(FP), DI")
	loadConstants()
	emit("LEAQ %d(DI), SI", cDigit)
	emit("LEAQ %d(DI), DX", cSign)
	digitMasks()
	acc := proj("DI", cAcc, accBound)
	sel := proj("DI", cSel, bigP)
	signedY(sel.y)
	one := regs(5)
	for i := range one {
		emit("VPBROADCASTQ lone<>+%d(SB), %s", 8*i, one[i])
		emit("VMOVDQA64 Z%d, K3, %s", i, one[i])
	}
	move(acc.y.at, one)
	for i := range one {
		emit("VMOVDQU64 %s, Z%d", sel.x.at[i], i)
		emit("VPXORQ %s, %s, %s", one[i], one[i], one[i])
		emit("VMOVDQA64 Z%d, K3, %s", i, one[i])
	}
	move(acc.x.at, one)
	for i := range one {
		emit("VPBROADCASTQ lone<>+%d(SB), Z%d", 8*i, i)
		emit("VPXORQ %s, %s, %s", one[i], one[i], one[i])
		emit("VMOVDQA64 Z%d, K3, %s", i, one[i])
	}
	move(acc.z.at, one)
	emit("VZEROUPPER")
	emit("RET")

	// lanesCombAdd: round r's entries added into the running sums in the
	// lanes whose digit is not zero.
	header("lanesCombAdd", "lanesCombAdd(c *laneComb, r int)", 16)
	emit("MOVQ c+0(FP), DI")
	emit("MOVQ r+8(FP), AX")
	loadConstants()
	roundPointers()
	digitMasks()
	x2 := slotAt("R9", 0).withBound(bigP)
	y2 := slotAt("DI", cQ+320).withBound(signedY(slotAt("R9", 320).withBound(bigP)))
	move(y2.at, regs(0))
	_, r := temps()
	addMixed(r, acc, x2, y2)
	keepIn(acc, r, "K3")
	emit("VZEROUPPER")
	emit("RET")

	// lanesCombine: lane l's sum plus lane l + s's (mod 8), in every lane.
	header("lanesCombine", "lanesCombine(c *laneComb, s int)", 16)
	emit("MOVQ c+0(FP), DI")
	emit("MOVQ s+8(FP), AX")
	loadConstants()
	emit("VPBROADCASTQ AX, Z10")
	emit("VPADDQ iota<>+0(SB), Z10, Z10")
	emit("VPANDQ.BCST seven<>+0(SB), Z10, Z10")
	q := proj("DI", cQ, accBound)
	for _, c := range [][2]*elem{{q.x, acc.x}, {q.y, acc.y}, {q.z, acc.z}} {
		for i := range c[0].at {
			emit("VPERMQ %s, Z10, Z0", c[1].at[i])
			emit("VMOVDQU64 Z0, %s", c[0].at[i])
		}
	}
	addFull(r, acc, q)
	keepIn(acc, r, "")
	emit("VZEROUPPER")
	emit("RET")

	// lanesCanonical: z = x mod p, canonical, for lanes of x below 2²⁶⁰.
	header("lanesCanonical", "lanesCanonical(z, x *laneFE)", 16)
	emit("MOVQ z+0(FP), DI")
	emit("MOVQ x+8(FP), SI")
	loadConstants()
	move(regs(5), mem("SI", 0))
	canonical(regs(0), regs(5), rTmp)
	move(mem("DI", 0), regs(0))
	emit("VZEROUPPER")
	emit("RET")
}

func main() {
	fmt.Fprintln(&out, "// Code generated by p256_lanes_gen.go; DO NOT EDIT.")
	fmt.Fprintln(&out, `
// The 8-lane field kernel of the batch verifier's affine levels
// (keytable.go, laneLevel) and of the signer's fixed-base comb
// (sign_lanes.go): eight field elements per zmm register, radix 2⁵² in
// five limbs, almost-Montgomery multiplication with R′ = 2²⁶⁰ on AVX-512
// IFMA (Gueron and Krasnov, ARITH 2016). Declarations and the CPU check:
// p256_amd64.go. Every routine that touches a vector register ends with
// VZEROUPPER; cpuid and xgetbv, which run on any CPU, touch none. The
// comb's routines run the same instructions on the same addresses for any
// digits.

#include "textflag.h"`)
	pl := limbs52(bigP)
	if pl[0] != 1<<52-1 || pl[1] != 1<<44-1 || pl[2] != 0 || new(big.Int).Mod(new(big.Int).Neg(new(big.Int).ModInverse(bigP, new(big.Int).Lsh(big.NewInt(1), 52))), new(big.Int).Lsh(big.NewInt(1), 52)).Cmp(big.NewInt(1)) != 0 {
		panic("p: limbs 0–2 are not 2⁵² − 1, 2⁴⁴ − 1 and 0, or −p⁻¹ mod 2⁵² is not 1")
	}
	data("mask52", mask52.Uint64())
	data("mask48", 1<<48-1)
	data("two44", 1<<44)
	data("plimbs", pl[:]...)
	if c := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 224), new(big.Int).Lsh(big.NewInt(1), 192)); c.Sub(c, new(big.Int).Lsh(big.NewInt(1), 96)).Add(c, big.NewInt(1)).Cmp(bigC) != 0 {
		panic("2²⁵⁶ − p is not 2²²⁴ − 2¹⁹² − 2⁹⁶ + 1")
	}
	// 2p and 4p with every limb large enough that one normalized value
	// (k2p) or two (k4p) can be subtracted limb by limb without a borrow.
	k2 := redundant(2, 52, 1<<52-1, 1<<48)
	data("k2p", k2[:]...)
	k4 := redundant(4, 53, 1<<53-2, 1<<49)
	data("k4p", k4[:]...)
	// The comb's constants: p to take one normalized value below p from,
	// 1 and b times 2²⁶⁰ mod p (the multiplication's form), and the lane
	// numbers its rotation adds to.
	k1 := redundant(1, 52, 1<<52-1, 0)
	data("k1p", k1[:]...)
	k8 := redundant(8, 52, 1<<52-1, 0)
	data("k8p", k8[:]...)
	gx := mustBig("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296")
	gy := mustBig("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
	rhs := new(big.Int).Exp(gx, big.NewInt(3), bigP)
	rhs.Sub(rhs, new(big.Int).Mul(gx, big.NewInt(3))).Add(rhs, bigB).Mod(rhs, bigP)
	if rhs.Cmp(new(big.Int).Exp(gy, big.NewInt(2), bigP)) != 0 {
		panic("b: G is not on y² = x³ − 3x + b")
	}
	lone := limbs52(new(big.Int).Mod(two260, bigP))
	data("lone", lone[:]...)
	lb := limbs52(new(big.Int).Mod(new(big.Int).Mul(bigB, two260), bigP))
	data("lb", lb[:]...)
	data("iota", 0, 1, 2, 3, 4, 5, 6, 7)
	data("seven", 7)

	// laneMul: one multiplication, for the tests.
	header("laneMul", "laneMul(z, x, y *laneFE)", 24)
	emit("MOVQ z+0(FP), DI")
	emit("MOVQ x+8(FP), SI")
	emit("MOVQ y+16(FP), DX")
	loadConstants()
	move(mem("DI", 0), mul(mem("SI", 0), mem("DX", 0)))
	emit("VZEROUPPER")
	emit("RET")

	// laneSub: x − y mod p, canonical, for the tests: the chord's
	// subtraction and reduction.
	header("laneSub", "laneSub(z, x, y *laneFE)", 24)
	emit("MOVQ z+0(FP), DI")
	emit("MOVQ x+8(FP), SI")
	emit("MOVQ y+16(FP), DX")
	loadConstants()
	v := regs(5)
	for i := range v {
		emit("VMOVDQU64 %d(SI), %s", 64*i, v[i])
		emit("VPADDQ.BCST k4p<>+%d(SB), %s, %s", 8*i, v[i], v[i])
		emit("VPSUBQ %d(DX), %s, %s", 64*i, v[i], v[i])
	}
	canonical(regs(0), v, "Z10")
	move(mem("DI", 0), regs(0))
	emit("VZEROUPPER")
	emit("RET")

	// lanesPrefix: pass one of a level. Lane l of group c holds pair
	// 8c + l, whose points are pts[idx[8c+l]] and next[idx[8c+l]]; pre[c]
	// gets, per lane, the product of the lane's denominators x2 − x1 of
	// groups 0..c. The multiplication drops a factor 2⁴ at every step.
	header("lanesPrefix", "lanesPrefix(pts, next *affinePoint, idx *int32, pre *laneFE, groups int)", 40)
	emit("MOVQ pts+0(FP), DI")
	emit("MOVQ next+8(FP), R10")
	emit("MOVQ idx+16(FP), SI")
	emit("MOVQ pre+24(FP), R9")
	emit("MOVQ groups+32(FP), BX")
	loadConstants()
	den := func() vec {
		loadIndex()
		x1, x2 := regs(4), regs(9)
		gather(x1, "DI", 0, q4)
		gather(x2, "R10", 0, q4)
		lazySub(x2, x2, "k2p", x1)
		return x2
	}
	comment("group 0: the product is the denominator")
	move(aRegs, den())
	move(mem("R9", 0), aRegs)
	emit("DECQ BX")
	emit("JZ prefixDone")
	label("prefixLoop")
	emit("ADDQ $32, SI")
	emit("ADDQ $320, R9")
	move(aRegs, mul(aRegs, den()))
	move(mem("R9", 0), aRegs)
	emit("DECQ BX")
	emit("JNZ prefixLoop")
	label("prefixDone")
	emit("VZEROUPPER")
	emit("RET")

	// lanesChord: pass two, from the last group to the first. tmp.i holds
	// the inverse of pre[groups−1] per lane, scaled as laneLevel explains;
	// each step takes the inverse of a group's denominators
	// from it and pre of the group before, moves it one group down, and
	// adds the group's pairs: λ = (y2 − y1)/(x2 − x1), x3 = λ² − x1 − x2,
	// y3 = λ(x1 − x3) − y1, written over the pair's first point. Only the
	// first tail lanes of the last group are written.
	header("lanesChord", "lanesChord(pts, next *affinePoint, idx *int32, pre *laneFE, tmp *laneTemps, groups, tail int)", 56)
	emit("MOVQ pts+0(FP), DI")
	emit("MOVQ next+8(FP), R10")
	emit("MOVQ idx+16(FP), SI")
	emit("MOVQ pre+24(FP), R9")
	emit("MOVQ tmp+32(FP), R8")
	emit("MOVQ groups+40(FP), BX")
	emit("MOVQ tail+48(FP), CX")
	loadConstants()
	emit("MOVQ $1, AX")
	emit("SHLQ CX, AX")
	emit("DECQ AX") // the tail's lane mask
	emit("DECQ BX") // g = groups − 1
	emit("MOVQ BX, DX")
	emit("SHLQ $5, DX")
	emit("ADDQ DX, SI") // idx of group g
	emit("IMUL3Q $320, BX, DX")
	emit("ADDQ DX, R9") // pre of group g
	label("chordLoop")
	loadIndex()
	t := func(off int) vec { return mem("R8", off) }
	for _, c := range []struct {
		base     string
		off, tmp int
	}{{"DI", 0, tX1}, {"DI", 32, tY1}, {"R10", 0, tX2}, {"R10", 32, tY2}} {
		gather(regs(4), c.base, c.off, q4)
		move(t(c.tmp), regs(4))
	}
	d := regs(4)
	lazySub(d, t(tX2), "k2p", t(tX1))
	move(t(tD), d)
	lazySub(d, t(tY2), "k2p", t(tY1))
	move(t(tDY), d)
	emit("TESTQ BX, BX")
	emit("JZ chordFirst")
	comment("the inverse of this group's denominators, and the running inverse one group down")
	move(t(tInv), mul(t(tI), mem("R9", -320)))
	move(t(tI), mul(t(tI), t(tD)))
	emit("JMP chordAdd")
	label("chordFirst")
	move(regs(4), t(tI))
	move(t(tInv), regs(4))
	label("chordAdd")
	comment("λ = (y2 − y1)·inv, λ² − x1 − x2")
	move(t(tL), mul(t(tDY), t(tInv)))
	l2 := mul(t(tL), t(tL))
	v = regs(4)
	for i := range v {
		emit("VPADDQ.BCST k4p<>+%d(SB), %s, %s", 8*i, l2[i], v[i])
		emit("VPSUBQ %s, %s, %s", t(tX1)[i], v[i], v[i])
		emit("VPSUBQ %s, %s, %s", t(tX2)[i], v[i], v[i])
	}
	x3 := regs(9)
	canonical(x3, v, rTmp)
	move(t(tX3), x3)
	scatter(x3, "DI", 0, q4)
	comment("λ·(x1 − x3)·2², less y1: λ is 2² short for this product")
	lazySub(regs(4), t(tX1), "k2p", t(tX3))
	u := mul(t(tL), regs(4))
	for i := range v {
		emit("VPSLLQ $2, %s, %s", u[i], v[i])
		emit("VPADDQ.BCST k4p<>+%d(SB), %s, %s", 8*i, v[i], v[i])
		emit("VPSUBQ %s, %s, %s", t(tY1)[i], v[i], v[i])
	}
	canonical(x3, v, rTmp)
	scatter(x3, "DI", 32, q4)
	emit("MOVQ $0xff, AX")
	emit("SUBQ $32, SI")
	emit("SUBQ $320, R9")
	emit("DECQ BX")
	emit("JGE chordLoop")
	emit("VZEROUPPER")
	emit("RET")

	combKernels()

	// The CPU check.
	fmt.Fprint(&out, `
// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
	RET
`)
	if _, err := os.Stdout.WriteString(out.String()); err != nil {
		panic(err)
	}
}
