package xmlenc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// oracleDecrypt is the standard library's reading of an XML-Enc
// payload: CBC is IV || ciphertext through cipher.NewCBCDecrypter,
// whose last plaintext byte is a pad length in 1..16; GCM is
// IV(12) || ciphertext || tag through cipher.NewGCM(...).Open.
func oracleDecrypt(algorithm string, key, payload []byte) ([]byte, bool) {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	const bs = aes.BlockSize
	switch algorithm {
	case xmlsecuri.EncAES128CBC, xmlsecuri.EncAES256CBC:
		if len(payload) < 2*bs || len(payload)%bs != 0 {
			return nil, false
		}
		pt := make([]byte, len(payload)-bs)
		cipher.NewCBCDecrypter(block, payload[:bs]).CryptBlocks(pt, payload[bs:])
		pad := int(pt[len(pt)-1])
		if pad < 1 || pad > bs {
			return nil, false
		}
		return pt[:len(pt)-pad], true
	case xmlsecuri.EncAES128GCM, xmlsecuri.EncAES256GCM:
		gcm, err := cipher.NewGCM(block)
		if err != nil {
			panic(err)
		}
		if len(payload) < gcm.NonceSize() {
			return nil, false
		}
		pt, err := gcm.Open(nil, payload[:gcm.NonceSize()], payload[gcm.NonceSize():], nil)
		return pt, err == nil
	}
	panic("oracleDecrypt: unsupported algorithm " + algorithm)
}

// inlineEncryptedData is an EncryptedData document carrying payload as
// its inline CipherValue, base64 wrapped at 64 columns.
func inlineEncryptedData(algorithm string, payload []byte) string {
	enc := base64.StdEncoding.EncodeToString(payload)
	var b strings.Builder
	b.WriteString(`<xenc:EncryptedData xmlns:xenc="` + xmlsecuri.EncNamespace + `">`)
	b.WriteString(`<xenc:EncryptionMethod Algorithm="` + algorithm + `"/>`)
	b.WriteString(`<xenc:CipherData><xenc:CipherValue>`)
	for len(enc) > 64 {
		b.WriteString(enc[:64] + "\n")
		enc = enc[64:]
	}
	b.WriteString(enc)
	b.WriteString(`</xenc:CipherValue></xenc:CipherData></xenc:EncryptedData>`)
	return b.String()
}

// FuzzDecryptOctets holds DecryptOctets to the standard library on
// arbitrary inline payloads under AES-128-CBC and AES-128-GCM: the
// same accept/reject decision, the same plaintext, no panic, and every
// rejection reported as ErrDecryptionFailed.
func FuzzDecryptOctets(f *testing.F) {
	k := key(16)
	algs := []string{xmlsecuri.EncAES128CBC, xmlsecuri.EncAES128GCM}
	for _, alg := range algs {
		for _, n := range []int{0, 1, 15, 16, 17, 100} {
			doc, err := EncryptOctets(bytes.Repeat([]byte{byte(n)}, n), EncryptOptions{Algorithm: alg, Key: k})
			if err != nil {
				f.Fatal(err)
			}
			cv, _ := doc.Root().Find("CipherData/CipherValue")
			payload, err := xmldom.DecodeBase64(cv.Text())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add(make([]byte, 33))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, alg := range algs {
			want, ok := oracleDecrypt(alg, k, payload)
			doc, err := xmldom.ParseString(inlineEncryptedData(alg, payload))
			if err != nil {
				t.Fatalf("%s: parse: %v", alg, err)
			}
			got, err := DecryptOctets(doc.Root(), DecryptOptions{Key: k})
			doc.Release()
			if ok != (err == nil) {
				t.Fatalf("%s: %d-byte payload: DecryptOctets err = %v, standard library accepts = %v", alg, len(payload), err, ok)
			}
			if err != nil && !errors.Is(err, ErrDecryptionFailed) {
				t.Fatalf("%s: rejection %v is not ErrDecryptionFailed", alg, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: %d-byte payload: plaintext differs from the standard library's", alg, len(payload))
			}
		}
	})
}
