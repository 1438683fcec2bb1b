//go:build ignore

// This program writes p256_lanes_amd64.s, the 8-lane field kernel of the
// batch verifier's affine levels (AVX-512F, AVX-512DQ and AVX-512 IFMA):
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
	rTmp  = "Z26" // the reduction multiplier, then the carry
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
		emit("VPANDQ %s, %s, %s", rMask, acc[0], rTmp)
		for j := 0; j < 5; j++ {
			if pLimbReg[j] == "" {
				continue
			}
			emit("VPMADD52LUQ %s, %s, %s", pLimbReg[j], rTmp, acc[j])
			emit("VPMADD52HUQ %s, %s, %s", pLimbReg[j], rTmp, acc[j+1])
		}
		emit("VPSRLQ $52, %s, %s", acc[0], rTmp)
		emit("VPADDQ %s, %s, %s", rTmp, acc[1], acc[1])
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
	comment("fold the bits above 2²⁵⁶ back as q·(2²⁵⁶ − p)")
	emit("VPSRLQ $48, %s, %s", v[4], tmp)
	emit("VPANDQ.BCST mask48<>+0(SB), %s, %s", v[4], v[4])
	c := limbs52(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), bigP))
	for j := 0; j < 5; j++ {
		if c[j] == 0 {
			continue
		}
		emit("VPMADD52LUQ.BCST fold<>+%d(SB), %s, %s", 8*j, tmp, v[j])
		if j < 4 {
			emit("VPMADD52HUQ.BCST fold<>+%d(SB), %s, %s", 8*j, tmp, v[j+1])
		} else if c[j] >= 1<<(52-4) {
			panic("fold: top limb times q leaves 52 bits")
		}
	}
	normalize(v, tmp)
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

func main() {
	fmt.Fprintln(&out, "// Code generated by p256_lanes_gen.go; DO NOT EDIT.")
	fmt.Fprintln(&out, `
// The 8-lane field kernel of the batch verifier's affine levels
// (keytable.go, laneLevel): eight field elements per zmm register, radix
// 2⁵² in five limbs, almost-Montgomery multiplication with R′ = 2²⁶⁰ on
// AVX-512 IFMA (Gueron and Krasnov, ARITH 2016). Declarations and the CPU
// check: p256_amd64.go. Every routine that touches a vector register ends
// with VZEROUPPER; cpuid and xgetbv, which run on any CPU, touch none.

#include "textflag.h"`)
	pl := limbs52(bigP)
	if pl[2] != 0 || new(big.Int).Mod(new(big.Int).Neg(new(big.Int).ModInverse(bigP, new(big.Int).Lsh(big.NewInt(1), 52))), new(big.Int).Lsh(big.NewInt(1), 52)).Cmp(big.NewInt(1)) != 0 {
		panic("p: limb 2 is not zero, or −p⁻¹ mod 2⁵² is not 1")
	}
	data("mask52", mask52.Uint64())
	data("mask48", 1<<48-1)
	data("plimbs", pl[:]...)
	fold := limbs52(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), bigP))
	data("fold", fold[:]...)
	// 2p and 4p with every limb large enough that one normalized value
	// (k2p) or two (k4p) can be subtracted limb by limb without a borrow.
	k2 := redundant(2, 52, 1<<52-1, 1<<48)
	data("k2p", k2[:]...)
	k4 := redundant(4, 53, 1<<53-2, 1<<49)
	data("k4p", k4[:]...)

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
