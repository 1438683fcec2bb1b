// P-256 base-field multiplication and repeated squaring: p256Mul and
// p256Sqr of Go 1.24.0's crypto/internal/fips140/nistec/p256_asm_amd64.s
// (generated by that package's _asm/p256_asm.go), with their two constants.
// Only the symbol and argument names differ from the original. Operands are
// 4×64-bit little-endian limbs in Montgomery form (R = 2²⁵⁶), fully reduced
// to [0, p); so are the results. Declarations: p256_amd64.go.
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
