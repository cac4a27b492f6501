package xmldsig

import (
	"bytes"
	"crypto"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/binary"

	"discsec/internal/memo"
	"discsec/internal/obs"
)

// sigMemoCap bounds the signature memo: at most 8 192 keys of 32 bytes,
// under 0.5 MiB. A memo cleared when full never hits on a cyclic working
// set larger than its cap, so the cap has to exceed the number of
// distinct signatures a process re-verifies, not the number of signers.
const sigMemoCap = 8192

// sigMemo records the successful asymmetric SignatureValue checks this
// process made; a failure is never stored, and neither is an HMAC check.
var sigMemo = memo.New[[sha256.Size]byte, struct{}](sigMemoCap)

// sigMemoTag opens every signature memo key, so no other SHA-256 input
// in the module can name the same key.
const sigMemoTag = "discsec xmldsig signature memo v1"

// checkSignatureValue hashes signedInfo once under method's hash and
// verifies sig over the digest with pub, whose KeyFingerprint is
// fingerprint. The key has already been trusted: a verification is a
// pure function of key, method, digest and signature, so a check this
// process already passed is answered from the memo, counted as
// xmldsig.sig_memo_hit on rec. An empty fingerprint names no key and is
// never memoized.
func checkSignatureValue(method string, signedInfo, sig []byte, pub crypto.PublicKey, fingerprint string, rec *obs.Recorder) error {
	h, err := hashBySignatureURI(method)
	if err != nil {
		return err
	}
	var sum [sha512.Size]byte
	digest := appendSum(sum[:0], h, signedInfo)
	var k [sha256.Size]byte
	if fingerprint != "" {
		k = sigMemoKey(fingerprint, method, sig, digest)
		if _, ok := sigMemo.Get(k); ok {
			rec.Inc("xmldsig.sig_memo_hit")
			return nil
		}
	}
	// The public-key verifiers may keep the digest they are given: they
	// get a heap copy, so a memo hit sums on the stack.
	if err := verifySignatureValue(method, h, bytes.Clone(digest), sig, pub); err != nil {
		return err
	}
	if fingerprint != "" {
		sigMemo.Put(k, struct{}{})
	}
	return nil
}

// sigMemoKey is the SHA-256 of the domain tag followed by the signer
// key's fingerprint, the SignatureMethod URI, the SignatureValue octets
// and the SignedInfo digest, each behind its 4-byte length.
//
//discvet:hotpath one key per asymmetric verification; built on the stack
func sigMemoKey(fingerprint, method string, sig, digest []byte) [sha256.Size]byte {
	var buf [1024]byte
	b := appendField(buf[:0], sigMemoTag)
	b = appendField(b, fingerprint)
	b = appendField(b, method)
	b = appendField(b, sig)
	b = appendField(b, digest)
	return sha256.Sum256(b)
}

// appendField appends f to b behind its big-endian 4-byte length.
func appendField[T string | []byte](b []byte, f T) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(f)))
	return append(b, f...)
}
