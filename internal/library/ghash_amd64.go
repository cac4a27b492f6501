package library

import (
	"crypto/cipher"
	"encoding/binary"
)

// ghashKey is what the tag kernel (ghash_amd64.s) reads: the powers of
// the GHASH key H = E_K(0¹²⁸) in the standard library's byte-reflected,
// pre-doubled form, powers[i] = H^(32-i) for i < 32 and zero after (the
// tail loads sixteen entries from powers[31-r]), then the mask
// E_K(0⁹⁶‖1). Each entry is its low then its high 64 bits.
type ghashKey struct {
	powers [48][2]uint64
	mask   [16]byte
}

// init sets k from the tag cipher.
func (k *ghashKey) init(block cipher.Block) {
	var b [16]byte
	block.Encrypt(b[:], b[:])
	// Byte-swapped (the kernel's PSHUFB), then doubled modulo gcmPoly,
	// as gcmAesInit does.
	h := [2]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8])}
	carry := -(h[1] >> 63)
	h = [2]uint64{h[0]<<1 ^ carry&1, h[1]<<1 | h[0]>>63 ^ carry&0xc200000000000000}
	k.powers[31] = h
	for i := 30; i >= 0; i-- {
		k.powers[i] = gfMul(k.powers[i+1], h)
	}
	b = [16]byte{15: 1}
	block.Encrypt(k.mask[:], b[:])
}

// gfMul is the kernel's product of a and b: the 256-bit carry-less
// product, then the two gcmPoly folds of its low half, added to its
// high half.
func gfMul(a, b [2]uint64) [2]uint64 {
	l1, l0 := clmul(a[0], b[0])
	h1, h0 := clmul(a[1], b[1])
	m1, m0 := clmul(a[0], b[1])
	n1, n0 := clmul(a[1], b[0])
	lo := [2]uint64{l0, l1 ^ m0 ^ n0}
	hi := [2]uint64{h0 ^ m1 ^ n1, h1}
	for range 2 {
		t1, t0 := clmul(lo[0], 0xc200000000000000)
		lo = [2]uint64{lo[1] ^ t0, lo[0] ^ t1}
	}
	return [2]uint64{lo[0] ^ hi[0], lo[1] ^ hi[1]}
}

// clmul is the 128-bit carry-less product of a and b. It branches on
// neither: H is secret.
func clmul(a, b uint64) (hi, lo uint64) {
	for i := range 64 {
		m := -(b >> i & 1)
		lo ^= a << i & m
		hi ^= a >> (64 - i) & m
	}
	return hi, lo
}

// ghashTag writes the tag of data under key: GHASH of data, zero-padded,
// and the length block, byte-swapped and masked; Seal's tag.
//
//go:noescape
func ghashTag(key *ghashKey, data []byte, tag *rawTag)

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv() (eax, edx uint32)

// tagKernelCPU reports whether this CPU and OS run the kernel: AVX-512
// F, BW and VL, VPCLMULQDQ, PCLMULQDQ, AVX and BMI2 (BZHI), and XCR0
// enabling the SSE, AVX, opmask and ZMM state.
var tagKernelCPU = detectTagKernel()

func detectTagKernel() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const pclmul, osxsave, avx = 1 << 1, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(pclmul|osxsave|avx) != pclmul|osxsave|avx {
		return false
	}
	const xcr0 = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if eax, _ := xgetbv(); eax&xcr0 != xcr0 {
		return false
	}
	const bmi2, avx512f, avx512bw, avx512vl, vpclmul = 1 << 8, 1 << 16, 1 << 30, 1 << 31, 1 << 10
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&(bmi2|avx512f|avx512bw|avx512vl) == bmi2|avx512f|avx512bw|avx512vl && ecx&vpclmul != 0
}
