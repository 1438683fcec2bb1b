// The field kernel of the verification engine: P-256 arithmetic mod p and
// mod n on 4×64-bit little-endian limbs in Montgomery form (R = 2²⁵⁶), every
// operand and result fully reduced. Declarations: p256_amd64.go.
//
// All but the last three routines are copied from Go 1.24.0's
// crypto/internal/fips140/nistec/p256_asm_amd64.s (generated by that
// package's _asm/p256_asm.go); only the symbol and argument names differ:
//
//	feSqrN               p256Sqr
//	feMul                p256Mul
//	ordMul               p256OrdMul
//	p256SubInternal<>    p256SubInternal
//	p256MulInternal<>    p256MulInternal
//	p256SqrInternal<>    p256SqrInternal
//
// with their constants p256const0, p256const1, p256ordK0 and p256ord. The
// three internal routines keep their operands in registers — acc in R10–R13,
// t in R14, R15, DI, SI — and compute acc = acc − t, acc·t and acc²; they are
// file-local here because their original names are global link symbols.
// The last three, addAffine, prefixProducts and backSubstitute, are written
// for this package on top of those three: each is one of keytable.go's inner
// loops in one call, with no operand loaded or stored between the steps.
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//    * Redistributions of source code must retain the above copyright
// notice, this list of conditions and the following disclaimer.
//    * Redistributions in binary form must reproduce the above
// copyright notice, this list of conditions and the following disclaimer
// in the documentation and/or other materials provided with the
// distribution.
//    * Neither the name of Google LLC nor the names of its
// contributors may be used to endorse or promote products derived from
// this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

#include "textflag.h"

DATA p256const0<>+0(SB)/8, $0x00000000ffffffff
GLOBL p256const0<>(SB), RODATA, $8

DATA p256const1<>+0(SB)/8, $0xffffffff00000001
GLOBL p256const1<>(SB), RODATA, $8

// func feSqrN(z, x *fe, n int)
// Requires: CMOV
TEXT ·feSqrN(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX

sqrLoop:
	// y[1:] * y[0]
	MOVQ (SI), R14
	MOVQ 8(SI), AX
	MULQ R14
	MOVQ AX, R9
	MOVQ DX, R10
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R11
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R12

	// y[2:] * y[1]
	MOVQ 8(SI), R14
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R13

	// y[3] * y[2]
	MOVQ 16(SI), R14
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ AX, R13
	ADCQ $0x00, DX
	MOVQ DX, CX
	XORQ R15, R15

	// *2
	ADDQ R9, R9
	ADCQ R10, R10
	ADCQ R11, R11
	ADCQ R12, R12
	ADCQ R13, R13
	ADCQ CX, CX
	ADCQ $0x00, R15

	// Missing products
	MOVQ (SI), AX
	MULQ AX
	MOVQ AX, R8
	MOVQ DX, R14
	MOVQ 8(SI), AX
	MULQ AX
	ADDQ R14, R9
	ADCQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R14
	MOVQ 16(SI), AX
	MULQ AX
	ADDQ R14, R11
	ADCQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R14
	MOVQ 24(SI), AX
	MULQ AX
	ADDQ R14, R13
	ADCQ AX, CX
	ADCQ DX, R15
	MOVQ R15, SI

	// First reduction step
	MOVQ R8, AX
	MOVQ R8, R15
	SHLQ $0x20, R8
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R8, R9
	ADCQ R15, R10
	ADCQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R8

	// Second reduction step
	MOVQ R9, AX
	MOVQ R9, R15
	SHLQ $0x20, R9
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R9, R10
	ADCQ R15, R11
	ADCQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R9

	// Third reduction step
	MOVQ R10, AX
	MOVQ R10, R15
	SHLQ $0x20, R10
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R10, R11
	ADCQ R15, R8
	ADCQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R10

	// Last reduction step
	XORQ R14, R14
	MOVQ R11, AX
	MOVQ R11, R15
	SHLQ $0x20, R11
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R11, R8
	ADCQ R15, R9
	ADCQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R11

	// Add bits [511:256] of the sqr result
	ADCQ R12, R8
	ADCQ R13, R9
	ADCQ CX, R10
	ADCQ SI, R11
	ADCQ $0x00, R14
	MOVQ R8, R12
	MOVQ R9, R13
	MOVQ R10, CX
	MOVQ R11, R15

	// Subtract p256
	SUBQ    $-1, R8
	SBBQ    p256const0<>+0(SB), R9
	SBBQ    $0x00, R10
	SBBQ    p256const1<>+0(SB), R11
	SBBQ    $0x00, R14
	CMOVQCS R12, R8
	CMOVQCS R13, R9
	CMOVQCS CX, R10
	CMOVQCS R15, R11
	MOVQ    R8, (DI)
	MOVQ    R9, 8(DI)
	MOVQ    R10, 16(DI)
	MOVQ    R11, 24(DI)
	MOVQ    DI, SI
	DECQ    BX
	JNE     sqrLoop
	RET

// func feMul(z, x, y *fe)
// Requires: CMOV
TEXT ·feMul(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), CX

	// x * y[0]
	MOVQ (CX), R14
	MOVQ (SI), AX
	MULQ R14
	MOVQ AX, R8
	MOVQ DX, R9
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R10
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R11
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R12
	XORQ R13, R13

	// First reduction step
	MOVQ R8, AX
	MOVQ R8, R15
	SHLQ $0x20, R8
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R8, R9
	ADCQ R15, R10
	ADCQ AX, R11
	ADCQ DX, R12
	ADCQ $0x00, R13
	XORQ R8, R8

	// x * y[1]
	MOVQ 8(CX), R14
	MOVQ (SI), AX
	MULQ R14
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ R15, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ DX, R13
	ADCQ $0x00, R8

	// Second reduction step
	MOVQ R9, AX
	MOVQ R9, R15
	SHLQ $0x20, R9
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R9, R10
	ADCQ R15, R11
	ADCQ AX, R12
	ADCQ DX, R13
	ADCQ $0x00, R8
	XORQ R9, R9

	// x * y[2]
	MOVQ 16(CX), R14
	MOVQ (SI), AX
	MULQ R14
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R13
	ADCQ $0x00, DX
	ADDQ AX, R13
	ADCQ DX, R8
	ADCQ $0x00, R9

	// Third reduction step
	MOVQ R10, AX
	MOVQ R10, R15
	SHLQ $0x20, R10
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R10, R11
	ADCQ R15, R12
	ADCQ AX, R13
	ADCQ DX, R8
	ADCQ $0x00, R9
	XORQ R10, R10

	// x * y[3]
	MOVQ 24(CX), R14
	MOVQ (SI), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ R15, R13
	ADCQ $0x00, DX
	ADDQ AX, R13
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R8
	ADCQ $0x00, DX
	ADDQ AX, R8
	ADCQ DX, R9
	ADCQ $0x00, R10

	// Last reduction step
	MOVQ R11, AX
	MOVQ R11, R15
	SHLQ $0x20, R11
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, R15
	ADDQ R11, R12
	ADCQ R15, R13
	ADCQ AX, R8
	ADCQ DX, R9
	ADCQ $0x00, R10

	// Copy result [255:0]
	MOVQ R12, SI
	MOVQ R13, R11
	MOVQ R8, R14
	MOVQ R9, R15

	// Subtract p256
	SUBQ    $-1, R12
	SBBQ    p256const0<>+0(SB), R13
	SBBQ    $0x00, R8
	SBBQ    p256const1<>+0(SB), R9
	SBBQ    $0x00, R10
	CMOVQCS SI, R12
	CMOVQCS R11, R13
	CMOVQCS R14, R8
	CMOVQCS R15, R9
	MOVQ    R12, (DI)
	MOVQ    R13, 8(DI)
	MOVQ    R8, 16(DI)
	MOVQ    R9, 24(DI)
	RET

// func ordMul(z, x, y *[4]uint64)
// Requires: CMOV
TEXT ·ordMul(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), CX

	// x * y[0]
	MOVQ (CX), R14
	MOVQ (SI), AX
	MULQ R14
	MOVQ AX, R8
	MOVQ DX, R9
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R10
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R11
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R12
	XORQ R13, R13

	// First reduction step
	MOVQ R8, AX
	MULQ p256ordK0<>+0(SB)
	MOVQ AX, R14
	MOVQ p256ord<>+0(SB), AX
	MULQ R14
	ADDQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+8(SB), AX
	MULQ R14
	ADDQ R15, R9
	ADCQ $0x00, DX
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+16(SB), AX
	MULQ R14
	ADDQ R15, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+24(SB), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ DX, R12
	ADCQ $0x00, R13

	// x * y[1]
	MOVQ 8(CX), R14
	MOVQ (SI), AX
	MULQ R14
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ R15, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ DX, R13
	ADCQ $0x00, R8

	// Second reduction step
	MOVQ R9, AX
	MULQ p256ordK0<>+0(SB)
	MOVQ AX, R14
	MOVQ p256ord<>+0(SB), AX
	MULQ R14
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+8(SB), AX
	MULQ R14
	ADDQ R15, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+16(SB), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+24(SB), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ DX, R13
	ADCQ $0x00, R8

	// x * y[2]
	MOVQ 16(CX), R14
	MOVQ (SI), AX
	MULQ R14
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R13
	ADCQ $0x00, DX
	ADDQ AX, R13
	ADCQ DX, R8
	ADCQ $0x00, R9

	// Third reduction step
	MOVQ R10, AX
	MULQ p256ordK0<>+0(SB)
	MOVQ AX, R14
	MOVQ p256ord<>+0(SB), AX
	MULQ R14
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+8(SB), AX
	MULQ R14
	ADDQ R15, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+16(SB), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+24(SB), AX
	MULQ R14
	ADDQ R15, R13
	ADCQ $0x00, DX
	ADDQ AX, R13
	ADCQ DX, R8
	ADCQ $0x00, R9

	// x * y[3]
	MOVQ 24(CX), R14
	MOVQ (SI), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 8(SI), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 16(SI), AX
	MULQ R14
	ADDQ R15, R13
	ADCQ $0x00, DX
	ADDQ AX, R13
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ 24(SI), AX
	MULQ R14
	ADDQ R15, R8
	ADCQ $0x00, DX
	ADDQ AX, R8
	ADCQ DX, R9
	ADCQ $0x00, R10

	// Last reduction step
	MOVQ R11, AX
	MULQ p256ordK0<>+0(SB)
	MOVQ AX, R14
	MOVQ p256ord<>+0(SB), AX
	MULQ R14
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+8(SB), AX
	MULQ R14
	ADDQ R15, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+16(SB), AX
	MULQ R14
	ADDQ R15, R13
	ADCQ $0x00, DX
	ADDQ AX, R13
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ p256ord<>+24(SB), AX
	MULQ R14
	ADDQ R15, R8
	ADCQ $0x00, DX
	ADDQ AX, R8
	ADCQ DX, R9
	ADCQ $0x00, R10

	// Copy result [255:0]
	MOVQ R12, SI
	MOVQ R13, R11
	MOVQ R8, R14
	MOVQ R9, R15

	// Subtract p256
	SUBQ    p256ord<>+0(SB), R12
	SBBQ    p256ord<>+8(SB), R13
	SBBQ    p256ord<>+16(SB), R8
	SBBQ    p256ord<>+24(SB), R9
	SBBQ    $0x00, R10
	CMOVQCS SI, R12
	CMOVQCS R11, R13
	CMOVQCS R14, R8
	CMOVQCS R15, R9
	MOVQ    R12, (DI)
	MOVQ    R13, 8(DI)
	MOVQ    R8, 16(DI)
	MOVQ    R9, 24(DI)
	RET

DATA p256ordK0<>+0(SB)/8, $0xccd1c8aaee00bc4f
GLOBL p256ordK0<>(SB), RODATA, $8

DATA p256ord<>+0(SB)/8, $0xf3b9cac2fc632551
DATA p256ord<>+8(SB)/8, $0xbce6faada7179e84
DATA p256ord<>+16(SB)/8, $0xffffffffffffffff
DATA p256ord<>+24(SB)/8, $0xffffffff00000000
GLOBL p256ord<>(SB), RODATA, $32

// func p256SubInternal<>()
// Requires: CMOV
TEXT p256SubInternal<>(SB), NOSPLIT, $0
	XORQ    AX, AX
	SUBQ    R14, R10
	SBBQ    R15, R11
	SBBQ    DI, R12
	SBBQ    SI, R13
	SBBQ    $0x00, AX
	MOVQ    R10, BX
	MOVQ    R11, CX
	MOVQ    R12, R8
	MOVQ    R13, R9
	ADDQ    $-1, R10
	ADCQ    p256const0<>+0(SB), R11
	ADCQ    $0x00, R12
	ADCQ    p256const1<>+0(SB), R13
	ANDQ    $0x01, AX
	CMOVQEQ BX, R10
	CMOVQEQ CX, R11
	CMOVQEQ R8, R12
	CMOVQEQ R9, R13
	RET

// func p256MulInternal<>()
// Requires: CMOV
TEXT p256MulInternal<>(SB), NOSPLIT, $8
	MOVQ R10, AX
	MULQ R14
	MOVQ AX, BX
	MOVQ DX, CX
	MOVQ R10, AX
	MULQ R15
	ADDQ AX, CX
	ADCQ $0x00, DX
	MOVQ DX, R8
	MOVQ R10, AX
	MULQ DI
	ADDQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R9
	MOVQ R10, AX
	MULQ SI
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R10
	MOVQ R11, AX
	MULQ R14
	ADDQ AX, CX
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R11, AX
	MULQ R15
	ADDQ BP, R8
	ADCQ $0x00, DX
	ADDQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R11, AX
	MULQ DI
	ADDQ BP, R9
	ADCQ $0x00, DX
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R11, AX
	MULQ SI
	ADDQ BP, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, R11
	MOVQ R12, AX
	MULQ R14
	ADDQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R12, AX
	MULQ R15
	ADDQ BP, R9
	ADCQ $0x00, DX
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R12, AX
	MULQ DI
	ADDQ BP, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R12, AX
	MULQ SI
	ADDQ BP, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, R12
	MOVQ R13, AX
	MULQ R14
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R13, AX
	MULQ R15
	ADDQ BP, R10
	ADCQ $0x00, DX
	ADDQ AX, R10
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R13, AX
	MULQ DI
	ADDQ BP, R11
	ADCQ $0x00, DX
	ADDQ AX, R11
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R13, AX
	MULQ SI
	ADDQ BP, R12
	ADCQ $0x00, DX
	ADDQ AX, R12
	ADCQ $0x00, DX
	MOVQ DX, R13

	// First reduction step
	MOVQ BX, AX
	MOVQ BX, BP
	SHLQ $0x20, BX
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ BX, CX
	ADCQ BP, R8
	ADCQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, BX

	// Second reduction step
	MOVQ CX, AX
	MOVQ CX, BP
	SHLQ $0x20, CX
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ CX, R8
	ADCQ BP, R9
	ADCQ AX, BX
	ADCQ $0x00, DX
	MOVQ DX, CX

	// Third reduction step
	MOVQ R8, AX
	MOVQ R8, BP
	SHLQ $0x20, R8
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ R8, R9
	ADCQ BP, BX
	ADCQ AX, CX
	ADCQ $0x00, DX
	MOVQ DX, R8

	// Last reduction step
	MOVQ R9, AX
	MOVQ R9, BP
	SHLQ $0x20, R9
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ R9, BX
	ADCQ BP, CX
	ADCQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R9
	MOVQ $0x00000000, BP

	// Add bits [511:256] of the result
	ADCQ BX, R10
	ADCQ CX, R11
	ADCQ R8, R12
	ADCQ R9, R13
	ADCQ $0x00, BP

	// Copy result
	MOVQ R10, BX
	MOVQ R11, CX
	MOVQ R12, R8
	MOVQ R13, R9

	// Subtract p256
	SUBQ $-1, R10
	SBBQ p256const0<>+0(SB), R11
	SBBQ $0x00, R12
	SBBQ p256const1<>+0(SB), R13
	SBBQ $0x00, BP

	// If the result of the subtraction is negative, restore the previous result
	CMOVQCS BX, R10
	CMOVQCS CX, R11
	CMOVQCS R8, R12
	CMOVQCS R9, R13
	RET

// func p256SqrInternal<>()
// Requires: CMOV
TEXT p256SqrInternal<>(SB), NOSPLIT, $8
	MOVQ R10, AX
	MULQ R11
	MOVQ AX, CX
	MOVQ DX, R8
	MOVQ R10, AX
	MULQ R12
	ADDQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R9
	MOVQ R10, AX
	MULQ R13
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, R14
	MOVQ R11, AX
	MULQ R12
	ADDQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, BP
	MOVQ R11, AX
	MULQ R13
	ADDQ BP, R14
	ADCQ $0x00, DX
	ADDQ AX, R14
	ADCQ $0x00, DX
	MOVQ DX, R15
	MOVQ R12, AX
	MULQ R13
	ADDQ AX, R15
	ADCQ $0x00, DX
	MOVQ DX, DI
	XORQ SI, SI

	// *2
	ADDQ CX, CX
	ADCQ R8, R8
	ADCQ R9, R9
	ADCQ R14, R14
	ADCQ R15, R15
	ADCQ DI, DI
	ADCQ $0x00, SI

	// Missing products
	MOVQ R10, AX
	MULQ AX
	MOVQ AX, BX
	MOVQ DX, R10
	MOVQ R11, AX
	MULQ AX
	ADDQ R10, CX
	ADCQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R10
	MOVQ R12, AX
	MULQ AX
	ADDQ R10, R9
	ADCQ AX, R14
	ADCQ $0x00, DX
	MOVQ DX, R10
	MOVQ R13, AX
	MULQ AX
	ADDQ R10, R15
	ADCQ AX, DI
	ADCQ DX, SI

	// First reduction step
	MOVQ BX, AX
	MOVQ BX, BP
	SHLQ $0x20, BX
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ BX, CX
	ADCQ BP, R8
	ADCQ AX, R9
	ADCQ $0x00, DX
	MOVQ DX, BX

	// Second reduction step
	MOVQ CX, AX
	MOVQ CX, BP
	SHLQ $0x20, CX
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ CX, R8
	ADCQ BP, R9
	ADCQ AX, BX
	ADCQ $0x00, DX
	MOVQ DX, CX

	// Third reduction step
	MOVQ R8, AX
	MOVQ R8, BP
	SHLQ $0x20, R8
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ R8, R9
	ADCQ BP, BX
	ADCQ AX, CX
	ADCQ $0x00, DX
	MOVQ DX, R8

	// Last reduction step
	MOVQ R9, AX
	MOVQ R9, BP
	SHLQ $0x20, R9
	MULQ p256const1<>+0(SB)
	SHRQ $0x20, BP
	ADDQ R9, BX
	ADCQ BP, CX
	ADCQ AX, R8
	ADCQ $0x00, DX
	MOVQ DX, R9
	MOVQ $0x00000000, BP

	// Add bits [511:256] of the result
	ADCQ BX, R14
	ADCQ CX, R15
	ADCQ R8, DI
	ADCQ R9, SI
	ADCQ $0x00, BP

	// Copy result
	MOVQ R14, R10
	MOVQ R15, R11
	MOVQ DI, R12
	MOVQ SI, R13

	// Subtract p256
	SUBQ $-1, R10
	SBBQ p256const0<>+0(SB), R11
	SBBQ $0x00, R12
	SBBQ p256const1<>+0(SB), R13
	SBBQ $0x00, BP

	// If the result of the subtraction is negative, restore the previous result
	CMOVQCS R14, R10
	CMOVQCS R15, R11
	CMOVQCS DI, R12
	CMOVQCS SI, R13
	RET

// The routines below are this package's own. Each calls the internal
// routines above, which clobber every general register but SP and BP
// (p256SqrInternal<> clobbers t as well), so pointers and counters live in
// the frame and are reloaded after each call.

// func addAffine(r, p, q *affinePoint, inv *fe)
// λ at 0(SP), x3 at 32(SP). r is written last, so it may alias p or q.
// Requires: CMOV
TEXT ·addAffine(SB), NOSPLIT, $64-32
	// λ = (q.y − p.y)·inv
	MOVQ q+16(FP), AX
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ p+8(FP), AX
	MOVQ 32(AX), R14
	MOVQ 40(AX), R15
	MOVQ 48(AX), DI
	MOVQ 56(AX), SI
	CALL p256SubInternal<>(SB)
	MOVQ inv+24(FP), AX
	MOVQ (AX), R14
	MOVQ 8(AX), R15
	MOVQ 16(AX), DI
	MOVQ 24(AX), SI
	CALL p256MulInternal<>(SB)
	MOVQ R10, (SP)
	MOVQ R11, 8(SP)
	MOVQ R12, 16(SP)
	MOVQ R13, 24(SP)

	// x3 = λ² − p.x − q.x
	CALL p256SqrInternal<>(SB)
	MOVQ p+8(FP), AX
	MOVQ (AX), R14
	MOVQ 8(AX), R15
	MOVQ 16(AX), DI
	MOVQ 24(AX), SI
	CALL p256SubInternal<>(SB)
	MOVQ q+16(FP), AX
	MOVQ (AX), R14
	MOVQ 8(AX), R15
	MOVQ 16(AX), DI
	MOVQ 24(AX), SI
	CALL p256SubInternal<>(SB)
	MOVQ R10, 32(SP)
	MOVQ R11, 40(SP)
	MOVQ R12, 48(SP)
	MOVQ R13, 56(SP)

	// y3 = (p.x − x3)·λ − p.y
	MOVQ R10, R14
	MOVQ R11, R15
	MOVQ R12, DI
	MOVQ R13, SI
	MOVQ p+8(FP), AX
	MOVQ (AX), R10
	MOVQ 8(AX), R11
	MOVQ 16(AX), R12
	MOVQ 24(AX), R13
	CALL p256SubInternal<>(SB)
	MOVQ (SP), R14
	MOVQ 8(SP), R15
	MOVQ 16(SP), DI
	MOVQ 24(SP), SI
	CALL p256MulInternal<>(SB)
	MOVQ p+8(FP), AX
	MOVQ 32(AX), R14
	MOVQ 40(AX), R15
	MOVQ 48(AX), DI
	MOVQ 56(AX), SI
	CALL p256SubInternal<>(SB)

	// Store r = (x3, y3)
	MOVQ r+0(FP), AX
	MOVQ R10, 32(AX)
	MOVQ R11, 40(AX)
	MOVQ R12, 48(AX)
	MOVQ R13, 56(AX)
	MOVQ 32(SP), R10
	MOVQ 40(SP), R11
	MOVQ 48(SP), R12
	MOVQ 56(SP), R13
	MOVQ R10, (AX)
	MOVQ R11, 8(AX)
	MOVQ R12, 16(AX)
	MOVQ R13, 24(AX)
	RET

// func prefixProducts(prefix, xs []fe)
// prefix[i] = xs[0]·…·xs[i] for len(xs) ≥ 1 ≤ len(prefix). The running
// product stays in acc; the next prefix and xs pointers and the count of
// products left are at 0, 8 and 16(SP).
// Requires: CMOV
TEXT ·prefixProducts(SB), NOSPLIT, $24-48
	MOVQ prefix_base+0(FP), AX
	MOVQ xs_base+24(FP), BX
	MOVQ xs_len+32(FP), CX
	MOVQ (BX), R10
	MOVQ 8(BX), R11
	MOVQ 16(BX), R12
	MOVQ 24(BX), R13
	MOVQ R10, (AX)
	MOVQ R11, 8(AX)
	MOVQ R12, 16(AX)
	MOVQ R13, 24(AX)
	DECQ CX
	JZ   prefixDone

prefixLoop:
	ADDQ $0x20, AX
	ADDQ $0x20, BX
	MOVQ AX, (SP)
	MOVQ BX, 8(SP)
	MOVQ CX, 16(SP)
	MOVQ (BX), R14
	MOVQ 8(BX), R15
	MOVQ 16(BX), DI
	MOVQ 24(BX), SI
	CALL p256MulInternal<>(SB)
	MOVQ (SP), AX
	MOVQ 8(SP), BX
	MOVQ 16(SP), CX
	MOVQ R10, (AX)
	MOVQ R11, 8(AX)
	MOVQ R12, 16(AX)
	MOVQ R13, 24(AX)
	DECQ CX
	JNZ  prefixLoop

prefixDone:
	RET

// func backSubstitute(xs, prefix []fe, inv *fe)
// Given inv = 1/(xs[0]·…·xs[n−1]) and prefixProducts' prefix, replaces each
// xs[i] by its inverse, i = n−1 down to 0, for n = len(xs) ≥ 1 ≤
// len(prefix). The running inverse stays in t; the next one is at 0(SP),
// and the xs and prefix pointers and the count left at 32, 40 and 48(SP).
// Requires: CMOV
TEXT ·backSubstitute(SB), NOSPLIT, $56-56
	MOVQ inv+48(FP), AX
	MOVQ (AX), R14
	MOVQ 8(AX), R15
	MOVQ 16(AX), DI
	MOVQ 24(AX), SI
	MOVQ xs_base+0(FP), AX
	MOVQ xs_len+8(FP), CX
	MOVQ prefix_base+24(FP), BX
	DECQ CX
	JZ   backLast
	MOVQ CX, DX
	SHLQ $0x05, DX
	ADDQ DX, AX
	LEAQ -32(BX)(DX*1), BX

backLoop:
	// Next inverse inv·xs[i], then xs[i] = inv·prefix[i−1]
	MOVQ AX, 32(SP)
	MOVQ BX, 40(SP)
	MOVQ CX, 48(SP)
	MOVQ (AX), R10
	MOVQ 8(AX), R11
	MOVQ 16(AX), R12
	MOVQ 24(AX), R13
	CALL p256MulInternal<>(SB)
	MOVQ R10, (SP)
	MOVQ R11, 8(SP)
	MOVQ R12, 16(SP)
	MOVQ R13, 24(SP)
	MOVQ 40(SP), BX
	MOVQ (BX), R10
	MOVQ 8(BX), R11
	MOVQ 16(BX), R12
	MOVQ 24(BX), R13
	CALL p256MulInternal<>(SB)
	MOVQ 32(SP), AX
	MOVQ R10, (AX)
	MOVQ R11, 8(AX)
	MOVQ R12, 16(AX)
	MOVQ R13, 24(AX)
	MOVQ (SP), R14
	MOVQ 8(SP), R15
	MOVQ 16(SP), DI
	MOVQ 24(SP), SI
	MOVQ 40(SP), BX
	MOVQ 48(SP), CX
	SUBQ $0x20, AX
	SUBQ $0x20, BX
	DECQ CX
	JNZ  backLoop

backLast:
	MOVQ xs_base+0(FP), AX
	MOVQ R14, (AX)
	MOVQ R15, 8(AX)
	MOVQ DI, 16(AX)
	MOVQ SI, 24(AX)
	RET
