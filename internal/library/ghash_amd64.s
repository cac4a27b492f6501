// The reduction (gcmPoly, two folds) and the byte-reflected, pre-doubled
// key form are ported from the Go standard library's
// crypto/internal/fips140/aes/gcm/gcm_amd64.s, which carries this notice:
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

DATA bswapMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+8(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

DATA gcmPoly<>+0(SB)/8, $0x0000000000000001
DATA gcmPoly<>+8(SB)/8, $0xc200000000000000
GLOBL gcmPoly<>(SB), RODATA|NOPTR, $16

// MUL2 multiplies two groups of four byte-swapped blocks, D0 and D1,
// by the powers in P0 and P1, lane by lane (schoolbook: lo·lo, hi·hi
// and the two cross products), and adds the 256-bit products, still
// unreduced, to the sums: low halves in Z24, high halves in Z25, cross
// products in Z26. It overwrites D0, D1 and Z27-Z31, Z9.
#define MUL2(P0, D0, P1, D1) \
	VPCLMULQDQ $0x00, P0, D0, Z27; \
	VPCLMULQDQ $0x11, P0, D0, Z28; \
	VPCLMULQDQ $0x01, P0, D0, Z29; \
	VPCLMULQDQ $0x10, P0, D0, D0; \
	VPCLMULQDQ $0x00, P1, D1, Z30; \
	VPCLMULQDQ $0x11, P1, D1, Z31; \
	VPCLMULQDQ $0x01, P1, D1, Z9; \
	VPCLMULQDQ $0x10, P1, D1, D1; \
	VPTERNLOGQ $0x96, Z30, Z27, Z24; \
	VPTERNLOGQ $0x96, Z31, Z28, Z25; \
	VPTERNLOGQ $0x96, Z29, D0, Z26; \
	VPTERNLOGQ $0x96, Z9, D1, Z26

// SWAP4 byte-swaps every block of Z0-Z3 and adds the accumulator X8 to
// block 0; ZERO clears the sums.
#define SWAP4 \
	VPSHUFB Z15, Z0, Z0; \
	VPSHUFB Z15, Z1, Z1; \
	VPSHUFB Z15, Z2, Z2; \
	VPSHUFB Z15, Z3, Z3; \
	VPXORQ  Z8, Z0, Z0

#define ZERO \
	VPXORQ Z24, Z24, Z24; \
	VPXORQ Z25, Z25, Z25; \
	VPXORQ Z26, Z26, Z26

// REDUCE folds the sums into the new accumulator X8: the cross
// products split across the low and high halves, the standard
// library's two gcmPoly folds in every lane (the reduction is linear,
// so the lanes may be summed after it), then the four lanes summed.
// X8 is written by an EVEX.128 instruction, so Z8's upper lanes are
// zero and the next VPXORQ Z8 touches block 0 only.
#define REDUCE \
	VPSLLDQ       $8, Z26, Z27; \
	VPSRLDQ       $8, Z26, Z26; \
	VPXORQ        Z27, Z24, Z24; \
	VPXORQ        Z26, Z25, Z25; \
	VPCLMULQDQ    $0x01, Z24, Z14, Z27; \
	VPSHUFD       $0x4e, Z24, Z24; \
	VPXORQ        Z27, Z24, Z24; \
	VPCLMULQDQ    $0x01, Z24, Z14, Z27; \
	VPSHUFD       $0x4e, Z24, Z24; \
	VPTERNLOGQ    $0x96, Z27, Z25, Z24; \
	VEXTRACTI64X4 $1, Z24, Y25; \
	VPXORQ        Y25, Y24, Y24; \
	VEXTRACTI32X4 $1, Y24, X25; \
	VPXORQ        X25, X24, X8

// func ghashTag(key *ghashKey, data []byte, tag *rawTag)
//
// tag = bswap(GHASH(data, zero-padded, ‖ BE64(8·len) ‖ 0⁶⁴)) ⊕ mask,
// 32 blocks per reduction. key.powers[i] is H^(32-i) for i < 32, zero
// after; key.mask follows the 48 entries.
TEXT ·ghashTag(SB), NOSPLIT, $0-40
	MOVQ key+0(FP), DI
	MOVQ data_base+8(FP), SI
	MOVQ data_len+16(FP), DX
	MOVQ tag+32(FP), CX
	MOVQ DX, R8
	SHLQ $3, R8

	VBROADCASTI32X4 bswapMask<>+0(SB), Z15
	VBROADCASTI32X4 gcmPoly<>+0(SB), Z14
	VPXORQ          X8, X8, X8

	// H^32 … H^17 and H^16 … H^1.
	VMOVDQU64 (DI), Z20
	VMOVDQU64 64(DI), Z21
	VMOVDQU64 128(DI), Z22
	VMOVDQU64 192(DI), Z23
	VMOVDQU64 256(DI), Z16
	VMOVDQU64 320(DI), Z17
	VMOVDQU64 384(DI), Z18
	VMOVDQU64 448(DI), Z19

loop512:
	CMPQ      DX, $512
	JB        last256
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VMOVDQU64 320(SI), Z5
	VMOVDQU64 384(SI), Z6
	VMOVDQU64 448(SI), Z7
	VPSHUFB   Z15, Z4, Z4
	VPSHUFB   Z15, Z5, Z5
	VPSHUFB   Z15, Z6, Z6
	VPSHUFB   Z15, Z7, Z7
	SWAP4
	ZERO
	MUL2(Z21, Z1, Z22, Z2)
	MUL2(Z23, Z3, Z16, Z4)
	MUL2(Z17, Z5, Z18, Z6)
	MUL2(Z19, Z7, Z20, Z0)
	REDUCE
	ADDQ      $512, SI
	SUBQ      $512, DX
	JMP       loop512

last256:
	CMPQ      DX, $256
	JB        tail
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	SWAP4
	ZERO
	MUL2(Z17, Z1, Z18, Z2)
	MUL2(Z19, Z3, Z16, Z0)
	REDUCE
	ADDQ      $256, SI
	SUBQ      $256, DX

tail:
	// The last DX < 256 bytes, zero-padded to r = ⌈DX/16⌉ blocks by
	// byte-masked loads (masked bytes are neither read nor faulted
	// on), then the length block: block j of the tail takes H^(r+1-j)
	// and the length block H^1, so the tail starts at powers[31-r].
	// Lanes past the tail hold zero data and contribute nothing.
	MOVQ       $-1, R9
	XORL       R12, R12
	BZHIQ      DX, R9, R10
	KMOVQ      R10, K1
	MOVQ       DX, R11
	SUBQ       $64, R11
	CMOVQLT    R12, R11
	BZHIQ      R11, R9, R10
	KMOVQ      R10, K2
	MOVQ       DX, R11
	SUBQ       $128, R11
	CMOVQLT    R12, R11
	BZHIQ      R11, R9, R10
	KMOVQ      R10, K3
	MOVQ       DX, R11
	SUBQ       $192, R11
	CMOVQLT    R12, R11
	BZHIQ      R11, R9, R10
	KMOVQ      R10, K4
	VMOVDQU8.Z (SI), K1, Z0
	VMOVDQU8.Z 64(SI), K2, Z1
	VMOVDQU8.Z 128(SI), K3, Z2
	VMOVDQU8.Z 192(SI), K4, Z3

	LEAQ      15(DX), R11
	ANDQ      $-16, R11
	MOVQ      $496, R10
	SUBQ      R11, R10
	ADDQ      DI, R10
	VMOVDQU64 (R10), Z16
	VMOVDQU64 64(R10), Z17
	VMOVDQU64 128(R10), Z18
	VMOVDQU64 192(R10), Z19

	SWAP4
	ZERO
	MUL2(Z17, Z1, Z18, Z2)
	MUL2(Z19, Z3, Z16, Z0)

	// The byte-swapped length block is 8·len in its high half and zero
	// in its low half, so its product with H^1 is a cross product
	// (8·len · H.lo) and a high half (8·len · H.hi).
	VMOVQ      R8, X0
	VMOVDQU    496(DI), X1
	VPCLMULQDQ $0x00, X1, X0, X2
	VPCLMULQDQ $0x10, X1, X0, X3
	VPXORQ     Z2, Z26, Z26
	VPXORQ     Z3, Z25, Z25
	REDUCE

	VPSHUFB X15, X8, X8
	VPXOR   768(DI), X8, X8
	VMOVDQU X8, (CX)
	VZEROUPPER
	RET

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
