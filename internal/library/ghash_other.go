//go:build !amd64

package library

import "crypto/cipher"

// The tag kernel is amd64 assembly; elsewhere memoTag always seals.
const tagKernelCPU = false

type ghashKey struct{}

func (*ghashKey) init(cipher.Block) {}

func ghashTag(*ghashKey, []byte, *rawTag) {
	panic("library: no GHASH tag kernel on this architecture")
}
