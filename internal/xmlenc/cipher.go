// Package xmlenc implements XML Encryption Syntax and Processing (W3C
// Recommendation, 10 December 2002) plus the AES-GCM modes of XML
// Encryption 1.1: encryption of XML elements, element content, and
// arbitrary octet streams into EncryptedData structures, with symmetric
// keys delivered directly, by AES key wrap, or by RSA key transport in
// EncryptedKey structures.
//
// This is the Encryptor/Decryptor substrate of the paper's §6 and §8
// prototype: encrypting Application Manifests (XML targets, Fig. 8) and
// A/V track payloads (non-XML targets, Fig. 7).
package xmlenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/subtle"
	"errors"
	"fmt"

	"discsec/internal/xmlsecuri"
)

// ErrUnsupportedAlgorithm is wrapped by errors reporting an algorithm
// identifier this implementation does not provide.
var ErrUnsupportedAlgorithm = errors.New("xmlenc: unsupported algorithm")

// ErrDecryptionFailed is wrapped by errors indicating ciphertext that
// cannot be decrypted (wrong key, corrupted data, bad padding).
var ErrDecryptionFailed = errors.New("xmlenc: decryption failed")

// KeySize returns the symmetric key length in bytes required by a block
// encryption or key wrap algorithm.
func KeySize(algorithm string) (int, error) {
	switch algorithm {
	case xmlsecuri.EncAES128CBC, xmlsecuri.EncAES128GCM, xmlsecuri.KeyWrapAES128:
		return 16, nil
	case xmlsecuri.EncAES192CBC, xmlsecuri.KeyWrapAES192:
		return 24, nil
	case xmlsecuri.EncAES256CBC, xmlsecuri.EncAES256GCM, xmlsecuri.KeyWrapAES256:
		return 32, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

// GenerateKey produces a fresh random key of the size the algorithm
// requires.
func GenerateKey(algorithm string) ([]byte, error) {
	n, err := KeySize(algorithm)
	if err != nil {
		return nil, err
	}
	key := make([]byte, n)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	return key, nil
}

// encryptOctets applies the block encryption algorithm, producing the
// CipherValue payload (IV-prefixed, per XML-Enc).
func encryptOctets(algorithm string, key, plaintext []byte) ([]byte, error) {
	if err := checkKeyLen(algorithm, key); err != nil {
		return nil, err
	}
	switch algorithm {
	case xmlsecuri.EncAES128CBC, xmlsecuri.EncAES192CBC, xmlsecuri.EncAES256CBC:
		return encryptCBC(key, plaintext)
	case xmlsecuri.EncAES128GCM, xmlsecuri.EncAES256GCM:
		return encryptGCM(key, plaintext)
	default:
		return nil, fmt.Errorf("%w: block encryption %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

// decryptOctets reverses encryptOctets. With inPlace the plaintext
// overwrites the ciphertext in payload, which the caller must own;
// otherwise payload is left unchanged.
func decryptOctets(algorithm string, key, payload []byte, inPlace bool) ([]byte, error) {
	if err := checkKeyLen(algorithm, key); err != nil {
		return nil, err
	}
	switch algorithm {
	case xmlsecuri.EncAES128CBC, xmlsecuri.EncAES192CBC, xmlsecuri.EncAES256CBC:
		return decryptCBC(key, payload, inPlace)
	case xmlsecuri.EncAES128GCM, xmlsecuri.EncAES256GCM:
		return decryptGCM(key, payload, inPlace)
	default:
		return nil, fmt.Errorf("%w: block encryption %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

func checkKeyLen(algorithm string, key []byte) error {
	want, err := KeySize(algorithm)
	if err != nil {
		return err
	}
	if len(key) != want {
		return fmt.Errorf("xmlenc: %s requires a %d-byte key, have %d", algorithm, want, len(key))
	}
	return nil
}

// encryptCBC implements the XML-Enc CBC construction: payload is
// IV || ciphertext, with the XML-Enc padding scheme (random filler, final
// byte carries the pad length).
func encryptCBC(key, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	bs := block.BlockSize()
	padLen := bs - len(plaintext)%bs
	padded := make([]byte, len(plaintext)+padLen)
	copy(padded, plaintext)
	if _, err := rand.Read(padded[len(plaintext) : len(plaintext)+padLen-1]); err != nil {
		return nil, err
	}
	padded[len(padded)-1] = byte(padLen)

	out := make([]byte, bs+len(padded))
	iv := out[:bs]
	if _, err := rand.Read(iv); err != nil {
		return nil, err
	}
	cipher.NewCBCEncrypter(block, iv).CryptBlocks(out[bs:], padded)
	return out, nil
}

func decryptCBC(key, payload []byte, inPlace bool) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	bs := block.BlockSize()
	if len(payload) < 2*bs || len(payload)%bs != 0 {
		return nil, fmt.Errorf("%w: CBC payload length %d", ErrDecryptionFailed, len(payload))
	}
	iv, ct := payload[:bs], payload[bs:]
	pt := ct
	if !inPlace {
		pt = make([]byte, len(ct))
	}
	cipher.NewCBCDecrypter(block, iv).CryptBlocks(pt, ct)
	padLen := int(pt[len(pt)-1])
	if padLen < 1 || padLen > bs || padLen > len(pt) {
		return nil, fmt.Errorf("%w: invalid CBC padding", ErrDecryptionFailed)
	}
	return pt[:len(pt)-padLen], nil
}

// encryptGCM implements the XML-Enc 1.1 GCM construction: payload is
// IV(12) || ciphertext || tag(16).
func encryptGCM(key, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	iv := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(iv); err != nil {
		return nil, err
	}
	return gcm.Seal(iv, iv, plaintext, nil), nil
}

func decryptGCM(key, payload []byte, inPlace bool) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if len(payload) < gcm.NonceSize()+gcm.Overhead() {
		return nil, fmt.Errorf("%w: GCM payload too short", ErrDecryptionFailed)
	}
	iv, ct := payload[:gcm.NonceSize()], payload[gcm.NonceSize():]
	var dst []byte
	if inPlace {
		dst = ct[:0]
	}
	pt, err := gcm.Open(dst, iv, ct, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecryptionFailed, err)
	}
	return pt, nil
}

// rfc3394IV is the key wrap integrity check value.
var rfc3394IV = []byte{0xA6, 0xA6, 0xA6, 0xA6, 0xA6, 0xA6, 0xA6, 0xA6}

// WrapKey implements AES Key Wrap (RFC 3394) as required by the
// kw-aes128/192/256 algorithms.
func WrapKey(kek, key []byte) ([]byte, error) {
	if len(key) < 16 || len(key)%8 != 0 {
		return nil, fmt.Errorf("xmlenc: key wrap input must be >= 16 bytes and a multiple of 8, have %d", len(key))
	}
	block, err := aes.NewCipher(kek)
	if err != nil {
		return nil, err
	}
	n := len(key) / 8
	a := make([]byte, 8)
	copy(a, rfc3394IV)
	r := make([]byte, len(key))
	copy(r, key)

	buf := make([]byte, 16)
	for j := 0; j < 6; j++ {
		for i := 1; i <= n; i++ {
			copy(buf[:8], a)
			copy(buf[8:], r[(i-1)*8:i*8])
			block.Encrypt(buf, buf)
			t := uint64(n*j + i)
			copy(a, buf[:8])
			for k := 0; k < 8; k++ {
				a[7-k] ^= byte(t >> (8 * k))
			}
			copy(r[(i-1)*8:i*8], buf[8:])
		}
	}
	return append(a, r...), nil
}

// UnwrapKey reverses WrapKey, validating the RFC 3394 integrity value.
func UnwrapKey(kek, wrapped []byte) ([]byte, error) {
	if len(wrapped) < 24 || len(wrapped)%8 != 0 {
		return nil, fmt.Errorf("%w: wrapped key length %d", ErrDecryptionFailed, len(wrapped))
	}
	block, err := aes.NewCipher(kek)
	if err != nil {
		return nil, err
	}
	n := len(wrapped)/8 - 1
	a := make([]byte, 8)
	copy(a, wrapped[:8])
	r := make([]byte, n*8)
	copy(r, wrapped[8:])

	buf := make([]byte, 16)
	for j := 5; j >= 0; j-- {
		for i := n; i >= 1; i-- {
			t := uint64(n*j + i)
			copy(buf[:8], a)
			for k := 0; k < 8; k++ {
				buf[7-k] ^= byte(t >> (8 * k))
			}
			copy(buf[8:], r[(i-1)*8:i*8])
			block.Decrypt(buf, buf)
			copy(a, buf[:8])
			copy(r[(i-1)*8:i*8], buf[8:])
		}
	}
	if subtle.ConstantTimeCompare(a, rfc3394IV) != 1 {
		return nil, fmt.Errorf("%w: key wrap integrity check failed", ErrDecryptionFailed)
	}
	return r, nil
}

// transportKey encrypts a content-encryption key to the recipient's RSA
// public key per the key transport algorithm.
func transportKey(algorithm string, pub *rsa.PublicKey, key []byte) ([]byte, error) {
	switch algorithm {
	case xmlsecuri.KeyTransportRSA15:
		return rsa.EncryptPKCS1v15(rand.Reader, pub, key)
	case xmlsecuri.KeyTransportRSAOAEP:
		// rsa-oaep-mgf1p fixes SHA-1 as both the OAEP digest and the
		// MGF1 digest.
		return rsa.EncryptOAEP(sha1.New(), rand.Reader, pub, key, nil)
	default:
		return nil, fmt.Errorf("%w: key transport %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

// recoverTransportedKey reverses transportKey.
func recoverTransportedKey(algorithm string, priv *rsa.PrivateKey, ct []byte) ([]byte, error) {
	switch algorithm {
	case xmlsecuri.KeyTransportRSA15:
		pt, err := rsa.DecryptPKCS1v15(rand.Reader, priv, ct)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecryptionFailed, err)
		}
		return pt, nil
	case xmlsecuri.KeyTransportRSAOAEP:
		pt, err := rsa.DecryptOAEP(sha1.New(), rand.Reader, priv, ct, nil)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecryptionFailed, err)
		}
		return pt, nil
	default:
		return nil, fmt.Errorf("%w: key transport %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

// wrapWithAlgorithm dispatches between AES key wrap algorithms.
func wrapWithAlgorithm(algorithm string, kek, key []byte) ([]byte, error) {
	if err := checkKeyLen(algorithm, kek); err != nil {
		return nil, err
	}
	return WrapKey(kek, key)
}

func unwrapWithAlgorithm(algorithm string, kek, wrapped []byte) ([]byte, error) {
	if err := checkKeyLen(algorithm, kek); err != nil {
		return nil, err
	}
	return UnwrapKey(kek, wrapped)
}
