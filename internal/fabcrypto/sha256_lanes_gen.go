//go:build ignore

// This program writes sha256_lanes_amd64.s, the 16-lane SHA-256 kernel of
// HashBatch (AVX-512F and AVX-512BW):
//
//	go run sha256_lanes_gen.go > sha256_lanes_amd64.s
//
// (go generate in this directory runs it.) It uses the standard library
// only; the round constants are derived here from the cube roots of the
// first 64 primes (FIPS 180-4, 4.2.2) and checked against the standard's
// first and last before they are written. The initial state is the Go
// side's (hashIV).
//
// A lane is one message: word i of the hash state of lane l is at
// [i][l] of the state, one zmm register per word, and the kernel hashes
// block j of lane l from p[l] + 64·j. Each step loads the sixteen lanes'
// blocks as rows, swaps their bytes to big endian and transposes them, so
// that message word t of every lane is one register; the 64 rounds then
// run on sixteen lanes at once, with the rotations on VPRORD and Σ, Ch
// and Maj on VPTERNLOGD.
package main

import (
	"fmt"
	"math/big"
	"os"
	"strings"
)

var out strings.Builder

func emit(format string, args ...any) { fmt.Fprintf(&out, "\t"+format+"\n", args...) }
func label(name string)               { fmt.Fprintf(&out, "%s:\n", name) }
func comment(format string, args ...any) {
	fmt.Fprintf(&out, "\t// "+format+"\n", args...)
}

func z(i int) string { return fmt.Sprintf("Z%d", i) }

// Registers: message word t of the block in Z(t mod 16), the working
// variables a…h in Z16–Z23 (renamed, never moved, from round to round) and
// temporaries in Z24–Z31. The transposition uses Z16–Z31 before the state
// is loaded.
var (
	state = [8]string{"Z16", "Z17", "Z18", "Z19", "Z20", "Z21", "Z22", "Z23"}
	tmp   = [8]string{"Z24", "Z25", "Z26", "Z27", "Z28", "Z29", "Z30", "Z31"}
)

// VPTERNLOGD truth tables, for the operands (dst, second, third) of
// "VPTERNLOGD $imm, third, second, dst".
const (
	xor3   = 0x96 // dst ^ second ^ third
	choose = 0xca // dst ? second : third
	major  = 0xe8 // the majority of the three
)

// cubeFrac32 returns the first 32 bits of the fractional part of ∛p, the
// low 32 bits of ⌊∛(p·2⁹⁶)⌋.
func cubeFrac32(p int64) uint32 {
	return uint32(cubeRoot(new(big.Int).Lsh(big.NewInt(p), 96)).Uint64())
}

// cubeRoot returns ⌊∛v⌋ by Newton's method from above.
func cubeRoot(v *big.Int) *big.Int {
	x := new(big.Int).Lsh(big.NewInt(1), uint(v.BitLen()/3+1))
	for {
		// y = (2x + v/x²)/3
		y := new(big.Int).Quo(v, new(big.Int).Mul(x, x))
		y.Add(y, new(big.Int).Lsh(x, 1))
		y.Quo(y, big.NewInt(3))
		if y.Cmp(x) >= 0 {
			return x
		}
		x = y
	}
}

func primes(n int) []int64 {
	var ps []int64
	for c := int64(2); len(ps) < n; c++ {
		prime := true
		for _, p := range ps {
			if c%p == 0 {
				prime = false
				break
			}
		}
		if prime {
			ps = append(ps, c)
		}
	}
	return ps
}

func data32(name string, vals []uint32) {
	fmt.Fprintln(&out)
	for i := 0; i < len(vals); i += 2 {
		fmt.Fprintf(&out, "DATA %s<>+%d(SB)/8, $0x%08x%08x\n", name, 4*i, vals[i+1], vals[i])
	}
	fmt.Fprintf(&out, "GLOBL %s<>(SB), RODATA|NOPTR, $%d\n", name, 4*len(vals))
}

// transpose turns the rows Z0–Z15 (row l: the sixteen words of lane l)
// into columns Z0–Z15 (column t: word t of every lane), through Z16–Z31.
func transpose() {
	comment("transpose the 16×16 words: dwords, then qwords within each 128-bit lane")
	for i := 0; i < 16; i += 2 {
		emit("VPUNPCKLDQ %s, %s, %s", z(i+1), z(i), z(16+i))
		emit("VPUNPCKHDQ %s, %s, %s", z(i+1), z(i), z(17+i))
	}
	// Z16+4g+m, m < 2: the low/high dwords of rows 4g, 4g+1 and
	// Z18+4g+m those of rows 4g+2, 4g+3.
	for g := 0; g < 4; g++ {
		lo, hi := 16+4*g, 18+4*g
		emit("VPUNPCKLQDQ %s, %s, %s", z(hi), z(lo), z(4*g))
		emit("VPUNPCKHQDQ %s, %s, %s", z(hi), z(lo), z(4*g+1))
		emit("VPUNPCKLQDQ %s, %s, %s", z(hi+1), z(lo+1), z(4*g+2))
		emit("VPUNPCKHQDQ %s, %s, %s", z(hi+1), z(lo+1), z(4*g+3))
	}
	// Z(4g+m), 128-bit lane k, holds word 4k+m of rows 4g…4g+3: a 4×4
	// transposition of 128-bit lanes for each m.
	comment("then the 128-bit lanes")
	for m := 0; m < 4; m++ {
		a, b, c, d := z(m), z(4+m), z(8+m), z(12+m)
		p, q, r, s := z(16+4*m), z(17+4*m), z(18+4*m), z(19+4*m)
		emit("VSHUFI32X4 $0x44, %s, %s, %s", b, a, p) // a0 a1 b0 b1
		emit("VSHUFI32X4 $0xee, %s, %s, %s", b, a, q) // a2 a3 b2 b3
		emit("VSHUFI32X4 $0x44, %s, %s, %s", d, c, r) // c0 c1 d0 d1
		emit("VSHUFI32X4 $0xee, %s, %s, %s", d, c, s) // c2 c3 d2 d3
	}
	for m := 0; m < 4; m++ {
		p, q, r, s := z(16+4*m), z(17+4*m), z(18+4*m), z(19+4*m)
		emit("VSHUFI32X4 $0x88, %s, %s, %s", r, p, z(m))    // a0 b0 c0 d0
		emit("VSHUFI32X4 $0xdd, %s, %s, %s", r, p, z(4+m))  // a1 b1 c1 d1
		emit("VSHUFI32X4 $0x88, %s, %s, %s", s, q, z(8+m))  // a2 b2 c2 d2
		emit("VSHUFI32X4 $0xdd, %s, %s, %s", s, q, z(12+m)) // a3 b3 c3 d3
	}
}

// schedule replaces W[t−16] in Z(t mod 16) by
// W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16].
func schedule(t int) {
	w, w2, w7, w15 := z(t%16), z((t-2)%16), z((t-7)%16), z((t-15)%16)
	emit("VPRORD $7, %s, %s", w15, tmp[0])
	emit("VPRORD $18, %s, %s", w15, tmp[1])
	emit("VPSRLD $3, %s, %s", w15, tmp[2])
	emit("VPTERNLOGD $0x%02x, %s, %s, %s", xor3, tmp[2], tmp[1], tmp[0])
	emit("VPADDD %s, %s, %s", tmp[0], w, w)
	emit("VPADDD %s, %s, %s", w7, w, w)
	emit("VPRORD $17, %s, %s", w2, tmp[0])
	emit("VPRORD $19, %s, %s", w2, tmp[1])
	emit("VPSRLD $10, %s, %s", w2, tmp[2])
	emit("VPTERNLOGD $0x%02x, %s, %s, %s", xor3, tmp[2], tmp[1], tmp[0])
	emit("VPADDD %s, %s, %s", tmp[0], w, w)
}

// round runs round t on the working variables s = a…h and returns them
// renamed for the next round: h turns into the new a, d into the new e.
func round(t int, s [8]string) [8]string {
	a, b, c, d, e, f, g, h := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	comment("round %d", t)
	emit("VPADDD.BCST k256<>+%d(SB), %s, %s", 4*t, h, h)
	emit("VPADDD %s, %s, %s", z(t%16), h, h)
	emit("VPRORD $6, %s, %s", e, tmp[3])
	emit("VPRORD $11, %s, %s", e, tmp[4])
	emit("VPRORD $25, %s, %s", e, tmp[5])
	emit("VPTERNLOGD $0x%02x, %s, %s, %s", xor3, tmp[5], tmp[4], tmp[3])
	emit("VPADDD %s, %s, %s", tmp[3], h, h)
	emit("VMOVDQA32 %s, %s", e, tmp[6])
	emit("VPTERNLOGD $0x%02x, %s, %s, %s", choose, g, f, tmp[6])
	emit("VPADDD %s, %s, %s", tmp[6], h, h) // T1
	emit("VPADDD %s, %s, %s", h, d, d)
	emit("VPRORD $2, %s, %s", a, tmp[3])
	emit("VPRORD $13, %s, %s", a, tmp[4])
	emit("VPRORD $22, %s, %s", a, tmp[5])
	emit("VPTERNLOGD $0x%02x, %s, %s, %s", xor3, tmp[5], tmp[4], tmp[3])
	emit("VPADDD %s, %s, %s", tmp[3], h, h)
	emit("VMOVDQA32 %s, %s", a, tmp[7])
	emit("VPTERNLOGD $0x%02x, %s, %s, %s", major, c, b, tmp[7])
	emit("VPADDD %s, %s, %s", tmp[7], h, h) // T1 + T2
	return [8]string{h, a, b, c, d, e, f, g}
}

func main() {
	ps := primes(64)
	var k [64]uint32
	for i, p := range ps {
		k[i] = cubeFrac32(p)
	}
	if k[0] != 0x428a2f98 || k[63] != 0xc67178f2 {
		panic("round constants do not match FIPS 180-4")
	}

	fmt.Fprintln(&out, "// Code generated by sha256_lanes_gen.go; DO NOT EDIT.")
	fmt.Fprintln(&out, `
// The 16-lane SHA-256 kernel of HashBatch (sha256_lanes.go): one message
// per 32-bit lane of a zmm register (Gueron and Krasnov, "Simultaneous
// Hashing of Multiple Messages", JIS 2012). Declarations and the CPU
// check: sha256_lanes_amd64.go.

#include "textflag.h"`)
	data32("k256", k[:])
	// VPSHUFB indices that reverse the bytes of every dword.
	var bswap [16]uint32
	for i := range bswap {
		j := uint32(4 * (i % 4)) // the dword's first byte in its 128-bit lane
		bswap[i] = (j + 3) | (j+2)<<8 | (j+1)<<16 | j<<24
	}
	data32("bswap", bswap[:])

	fmt.Fprint(&out, `
// func sha256Lanes(h *hashState, p *[16]*byte, n int)
// Requires: AVX512F, AVX512BW
TEXT ·sha256Lanes(SB), NOSPLIT, $0-24
`)
	emit("MOVQ h+0(FP), DI")
	emit("MOVQ p+8(FP), SI")
	emit("MOVQ n+16(FP), CX")
	emit("XORQ AX, AX") // the offset of this step's blocks
	emit("TESTQ CX, CX")
	emit("JZ done")
	label("block")
	comment("the sixteen blocks as rows, big endian")
	for l := 0; l < 16; l++ {
		emit("MOVQ %d(SI), R8", 8*l)
		emit("VMOVDQU32 (R8)(AX*1), %s", z(l))
		emit("VPSHUFB bswap<>+0(SB), %s, %s", z(l), z(l))
	}
	transpose()
	for i, r := range state {
		emit("VMOVDQU32 %d(DI), %s", 64*i, r)
	}
	s := state
	for t := 0; t < 64; t++ {
		if t >= 16 {
			schedule(t)
		}
		s = round(t, s)
	}
	if s != state {
		panic("64 rounds do not rename the state back")
	}
	comment("add the block's result to the state")
	for i, r := range state {
		emit("VPADDD %d(DI), %s, %s", 64*i, r, r)
		emit("VMOVDQU32 %s, %d(DI)", r, 64*i)
	}
	emit("ADDQ $64, AX")
	emit("DECQ CX")
	emit("JNZ block")
	label("done")
	emit("VZEROUPPER")
	emit("RET")
	if _, err := os.Stdout.WriteString(out.String()); err != nil {
		panic(err)
	}
}
