package xmlenc

import (
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

var testRSAKey *rsa.PrivateKey

func init() {
	var err error
	testRSAKey, err = rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		panic(err)
	}
}

const gameManifest = `<manifest xmlns="urn:disc:manifest">
  <markup><layout region="main"/></markup>
  <state><highscores><entry player="AAA" score="9000"/></highscores></state>
</manifest>`

func parseDoc(t *testing.T, s string) *xmldom.Document {
	t.Helper()
	doc, err := xmldom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func key(n int) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(i * 7)
	}
	return k
}

func TestEncryptDecryptElementAllAlgorithms(t *testing.T) {
	algs := []struct {
		uri  string
		klen int
	}{
		{xmlsecuri.EncAES128CBC, 16},
		{xmlsecuri.EncAES192CBC, 24},
		{xmlsecuri.EncAES256CBC, 32},
		{xmlsecuri.EncAES128GCM, 16},
		{xmlsecuri.EncAES256GCM, 32},
	}
	for _, alg := range algs {
		t.Run(alg.uri, func(t *testing.T) {
			doc := parseDoc(t, gameManifest)
			target, _ := doc.Root().Find("state/highscores")
			if target == nil {
				t.Fatal("no target")
			}
			original := target.String()

			k := key(alg.klen)
			if _, err := EncryptElement(target, EncryptOptions{Algorithm: alg.uri, Key: k}); err != nil {
				t.Fatalf("encrypt: %v", err)
			}
			serialized := doc.Root().String()
			if strings.Contains(serialized, "9000") {
				t.Error("plaintext leaked into encrypted document")
			}

			doc2 := parseDoc(t, serialized)
			n, err := DecryptAll(doc2, DecryptOptions{Key: k})
			if err != nil {
				t.Fatalf("decrypt: %v", err)
			}
			if n != 1 {
				t.Errorf("decrypted %d structures, want 1", n)
			}
			restored, _ := doc2.Root().Find("state/highscores")
			if restored == nil {
				t.Fatal("highscores not restored")
			}
			if restored.FirstChildElement("entry").AttrValue("score") != "9000" {
				t.Errorf("restored = %q, original = %q", restored.String(), original)
			}
		})
	}
}

func TestEncryptContentLeavesTagClear(t *testing.T) {
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state/highscores")
	k := key(32)
	if _, err := EncryptContent(target, EncryptOptions{Algorithm: xmlsecuri.EncAES256GCM, Key: k}); err != nil {
		t.Fatalf("encrypt content: %v", err)
	}
	s := doc.Root().String()
	if !strings.Contains(s, "<highscores") {
		t.Error("element tag should stay in the clear for Content encryption")
	}
	if strings.Contains(s, "9000") {
		t.Error("content leaked")
	}
	doc2 := parseDoc(t, s)
	if _, err := DecryptAll(doc2, DecryptOptions{Key: k}); err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	restored, _ := doc2.Root().Find("state/highscores/entry")
	if restored == nil || restored.AttrValue("score") != "9000" {
		t.Errorf("restored doc: %s", doc2.Root().String())
	}
}

func TestEncryptContentMixedNodes(t *testing.T) {
	doc := parseDoc(t, `<r><m>before<k a="1"/><!-- note -->after</m></r>`)
	target := doc.Root().FirstChildElement("m")
	k := key(16)
	if _, err := EncryptContent(target, EncryptOptions{Algorithm: xmlsecuri.EncAES128GCM, Key: k}); err != nil {
		t.Fatal(err)
	}
	doc2 := parseDoc(t, doc.Root().String())
	if _, err := DecryptAll(doc2, DecryptOptions{Key: k}); err != nil {
		t.Fatal(err)
	}
	m := doc2.Root().FirstChildElement("m")
	if m.Text() != "beforeafter" {
		t.Errorf("text = %q", m.Text())
	}
	if m.FirstChildElement("k") == nil || m.FirstChildElement("k").AttrValue("a") != "1" {
		t.Errorf("element child lost: %s", m.String())
	}
}

func TestRSAKeyTransport(t *testing.T) {
	for _, transport := range []string{xmlsecuri.KeyTransportRSAOAEP, xmlsecuri.KeyTransportRSA15} {
		t.Run(transport, func(t *testing.T) {
			doc := parseDoc(t, gameManifest)
			target, _ := doc.Root().Find("state")
			_, err := EncryptElement(target, EncryptOptions{
				RecipientKey: &testRSAKey.PublicKey,
				KeyTransport: transport,
				KeyName:      "player-device-key",
			})
			if err != nil {
				t.Fatalf("encrypt: %v", err)
			}
			s := doc.Root().String()
			if !strings.Contains(s, "EncryptedKey") {
				t.Error("no EncryptedKey emitted")
			}
			doc2 := parseDoc(t, s)
			if _, err := DecryptAll(doc2, DecryptOptions{RSAKey: testRSAKey}); err != nil {
				t.Fatalf("decrypt: %v", err)
			}
			if el, _ := doc2.Root().Find("state/highscores/entry"); el == nil {
				t.Error("state not restored")
			}
		})
	}
}

func TestRSAWrongKeyFails(t *testing.T) {
	other, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state")
	if _, err := EncryptElement(target, EncryptOptions{RecipientKey: &testRSAKey.PublicKey}); err != nil {
		t.Fatal(err)
	}
	_, err = DecryptAll(doc, DecryptOptions{RSAKey: other})
	if !errors.Is(err, ErrDecryptionFailed) {
		t.Errorf("err = %v, want ErrDecryptionFailed", err)
	}
}

func TestAESKeyWrapDelivery(t *testing.T) {
	kek := key(16)
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state")
	if _, err := EncryptElement(target, EncryptOptions{KEK: kek, KeyName: "disc-kek"}); err != nil {
		t.Fatal(err)
	}
	doc2 := parseDoc(t, doc.Root().String())
	if _, err := DecryptAll(doc2, DecryptOptions{KEK: kek}); err != nil {
		t.Fatalf("decrypt with KEK: %v", err)
	}
	// Also resolvable by name.
	doc3 := parseDoc(t, gameManifest)
	target3, _ := doc3.Root().Find("state")
	if _, err := EncryptElement(target3, EncryptOptions{KEK: kek, KeyName: "disc-kek"}); err != nil {
		t.Fatal(err)
	}
	_, err := DecryptAll(doc3, DecryptOptions{KeyByName: func(name string) ([]byte, error) {
		if name == "disc-kek" {
			return kek, nil
		}
		return nil, errors.New("unknown")
	}})
	if err != nil {
		t.Fatalf("decrypt via KeyByName: %v", err)
	}
}

func TestKeyWrapRFC3394Vector(t *testing.T) {
	// RFC 3394 §4.1 test vector: 128-bit KEK, 128-bit key data.
	kek := mustHex(t, "000102030405060708090A0B0C0D0E0F")
	data := mustHex(t, "00112233445566778899AABBCCDDEEFF")
	want := mustHex(t, "1FA68B0A8112B447AEF34BD8FB5A7B829D3E862371D2CFE5")
	got, err := WrapKey(kek, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wrap = %X, want %X", got, want)
	}
	back, err := UnwrapKey(kek, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Errorf("unwrap = %X", back)
	}
}

func TestKeyWrapRFC3394Vector256(t *testing.T) {
	// RFC 3394 §4.6: 256-bit KEK, 256-bit key data.
	kek := mustHex(t, "000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F")
	data := mustHex(t, "00112233445566778899AABBCCDDEEFF000102030405060708090A0B0C0D0E0F")
	want := mustHex(t, "28C9F404C4B810F4CBCCB35CFB87F8263F5786E2D80ED326CBC7F0E71A99F43BFB988B9B7A02DD21")
	got, err := WrapKey(kek, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wrap = %X, want %X", got, want)
	}
}

func TestUnwrapCorruptedFails(t *testing.T) {
	kek := key(16)
	wrapped, err := WrapKey(kek, key(16))
	if err != nil {
		t.Fatal(err)
	}
	wrapped[0] ^= 1
	if _, err := UnwrapKey(kek, wrapped); !errors.Is(err, ErrDecryptionFailed) {
		t.Errorf("err = %v, want ErrDecryptionFailed", err)
	}
}

func TestEncryptOctetsBinary(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i)
	}
	k := key(32)
	doc, err := EncryptOctets(payload, EncryptOptions{Key: k, MimeType: "video/mp2t"})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().AttrValue("MimeType") != "video/mp2t" {
		t.Error("MimeType lost")
	}
	doc2 := parseDoc(t, doc.Root().String())
	pt, err := DecryptOctets(doc2.Root(), DecryptOptions{Key: k})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, payload) {
		t.Error("binary round trip mismatch")
	}
}

// TestDecryptOctetsMatchesStdlib: binary payloads of every size around
// a block boundary (empty, sub-block, one block, just past it, many
// blocks) round-trip through a serialized EncryptedData and
// DecryptOctets under CBC and GCM, and DecryptOctets returns the bytes
// the standard library's AES-CBC or AES-GCM reads from the same
// ciphertext.
func TestDecryptOctetsMatchesStdlib(t *testing.T) {
	for _, alg := range []string{xmlsecuri.EncAES128CBC, xmlsecuri.EncAES256CBC, xmlsecuri.EncAES128GCM, xmlsecuri.EncAES256GCM} {
		n, _ := KeySize(alg)
		k := key(n)
		for _, size := range []int{0, 1, 15, 16, 17, 4096} {
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			doc, err := EncryptOctets(payload, EncryptOptions{Algorithm: alg, Key: k})
			if err != nil {
				t.Fatalf("%s/%d: %v", alg, size, err)
			}
			cv, _ := doc.Root().Find("CipherData/CipherValue")
			ciphertext, err := xmldom.DecodeBase64(cv.Text())
			if err != nil {
				t.Fatalf("%s/%d: %v", alg, size, err)
			}
			want, ok := oracleDecrypt(alg, k, ciphertext)
			if !ok || !bytes.Equal(want, payload) {
				t.Fatalf("%s/%d: the standard library does not read the plaintext back", alg, size)
			}
			doc2 := parseDoc(t, doc.Root().String())
			pt, err := DecryptOctets(doc2.Root(), DecryptOptions{Key: k})
			if err != nil {
				t.Fatalf("%s/%d: %v", alg, size, err)
			}
			if !bytes.Equal(pt, want) {
				t.Errorf("%s/%d: DecryptOctets differs from the standard library", alg, size)
			}
		}
	}
}

func TestCorruptedCiphertextFails(t *testing.T) {
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state")
	k := key(32)
	if _, err := EncryptElement(target, EncryptOptions{Key: k}); err != nil {
		t.Fatal(err)
	}
	eds := AppendEncryptedData(nil, doc)
	cv, _ := eds[0].Find("CipherData/CipherValue")
	txt := cv.Text()
	cv.SetText("AAAA" + txt[4:])
	if _, err := DecryptAll(doc, DecryptOptions{Key: k}); !errors.Is(err, ErrDecryptionFailed) {
		t.Errorf("err = %v, want ErrDecryptionFailed", err)
	}
}

func TestWrongSymmetricKeyGCMFails(t *testing.T) {
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state")
	if _, err := EncryptElement(target, EncryptOptions{Key: key(32)}); err != nil {
		t.Fatal(err)
	}
	bad := key(32)
	bad[0] ^= 0xFF
	if _, err := DecryptAll(doc, DecryptOptions{Key: bad}); !errors.Is(err, ErrDecryptionFailed) {
		t.Errorf("err = %v, want ErrDecryptionFailed", err)
	}
}

func TestSuperEncryption(t *testing.T) {
	// Encrypting an already-encrypted region (outer layer covers the
	// inner EncryptedData).
	doc := parseDoc(t, gameManifest)
	inner, _ := doc.Root().Find("state/highscores")
	k1, k2 := key(16), key(32)
	if _, err := EncryptElement(inner, EncryptOptions{Algorithm: xmlsecuri.EncAES128GCM, Key: k1}); err != nil {
		t.Fatal(err)
	}
	outer, _ := doc.Root().Find("state")
	if _, err := EncryptElement(outer, EncryptOptions{Algorithm: xmlsecuri.EncAES256GCM, Key: k2}); err != nil {
		t.Fatal(err)
	}
	doc2 := parseDoc(t, doc.Root().String())
	// Both layers use distinct keys; provide both via KeyByName-less
	// sequential passes: first pass with k2 reveals inner ED, second
	// with k1. DecryptAll with a single key cannot do both, so drive
	// manually.
	if err := DecryptElement(doc2, AppendEncryptedData(nil, doc2)[0], DecryptOptions{Key: k2}); err != nil {
		t.Fatalf("outer: %v", err)
	}
	if err := DecryptElement(doc2, AppendEncryptedData(nil, doc2)[0], DecryptOptions{Key: k1}); err != nil {
		t.Fatalf("inner: %v", err)
	}
	if el, _ := doc2.Root().Find("state/highscores/entry"); el == nil || el.AttrValue("score") != "9000" {
		t.Errorf("super-encryption round trip failed: %s", doc2.Root().String())
	}
}

func TestNamespaceSelfContainment(t *testing.T) {
	// The encrypted element uses a namespace declared on an ancestor;
	// decrypting into a different context must preserve it.
	doc := parseDoc(t, `<r xmlns:g="urn:game"><g:scores><g:entry v="1"/></g:scores></r>`)
	target := doc.Root().FirstChildElement("scores")
	k := key(32)
	if _, err := EncryptElement(target, EncryptOptions{Key: k}); err != nil {
		t.Fatal(err)
	}
	// Move the EncryptedData into a fresh document with no g binding.
	ed := AppendEncryptedData(nil, doc)[0]
	fresh := &xmldom.Document{}
	wrapper := xmldom.NewElement("other")
	fresh.SetRoot(wrapper)
	wrapper.AppendChild(ed)

	if _, err := DecryptAll(fresh, DecryptOptions{Key: k}); err != nil {
		t.Fatalf("decrypt in foreign context: %v", err)
	}
	scores := wrapper.FirstChildElement("scores")
	if scores == nil {
		t.Fatal("scores missing")
	}
	if got := scores.NamespaceURI(); got != "urn:game" {
		t.Errorf("namespace = %q, want urn:game", got)
	}
}

func TestOptionValidation(t *testing.T) {
	el := xmldom.NewElement("x")
	parent := xmldom.NewElement("p")
	parent.AppendChild(el)

	if _, err := EncryptElement(el, EncryptOptions{}); err == nil {
		t.Error("no key material accepted")
	}
	if _, err := EncryptElement(el, EncryptOptions{Key: key(5)}); err == nil {
		t.Error("wrong key size accepted")
	}
	if _, err := EncryptElement(el, EncryptOptions{Algorithm: "urn:bogus", Key: key(16)}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if _, err := EncryptElement(el, EncryptOptions{RecipientKey: &testRSAKey.PublicKey, KEK: key(16)}); err == nil {
		t.Error("both delivery mechanisms accepted")
	}
	if _, err := EncryptElement(el, EncryptOptions{KEK: key(5), Key: key(32)}); err == nil {
		t.Error("bad KEK size accepted")
	}
	root := xmldom.NewElement("root")
	if _, err := EncryptElement(root, EncryptOptions{Key: key(32)}); err == nil {
		t.Error("parentless element accepted")
	}
}

func TestDecryptValidation(t *testing.T) {
	doc := parseDoc(t, `<r><x/></r>`)
	x := doc.Root().FirstChildElement("x")
	if _, err := DecryptOctets(x, DecryptOptions{}); err == nil {
		t.Error("non-EncryptedData accepted")
	}
	// Missing key.
	doc2 := parseDoc(t, gameManifest)
	target, _ := doc2.Root().Find("state")
	if _, err := EncryptElement(target, EncryptOptions{Key: key(32)}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptAll(doc2, DecryptOptions{}); err == nil {
		t.Error("decrypt without key accepted")
	}
}

// Property: wrap/unwrap round-trips arbitrary multiples of 8 bytes.
func TestKeyWrapRoundTripProperty(t *testing.T) {
	f := func(seed uint8, blocks uint8) bool {
		n := 16 + int(blocks%6)*8
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(int(seed) + i*31)
		}
		kek := key(16)
		w, err := WrapKey(kek, data)
		if err != nil {
			return false
		}
		back, err := UnwrapKey(kek, w)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CBC and GCM octet encryption round-trips arbitrary payloads.
func TestOctetRoundTripProperty(t *testing.T) {
	algs := []string{xmlsecuri.EncAES128CBC, xmlsecuri.EncAES256GCM}
	for _, alg := range algs {
		n, _ := KeySize(alg)
		k := key(n)
		f := func(data []byte) bool {
			ct, err := encryptOctets(alg, k, data)
			if err != nil {
				return false
			}
			pt, err := decryptOctets(alg, k, nil, ct, false)
			return err == nil && bytes.Equal(pt, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	out := make([]byte, len(s)/2)
	for i := 0; i < len(out); i++ {
		hi := hexVal(s[2*i])
		lo := hexVal(s[2*i+1])
		if hi < 0 || lo < 0 {
			t.Fatalf("bad hex %q", s)
		}
		out[i] = byte(hi<<4 | lo)
	}
	return out
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

func TestCipherReference(t *testing.T) {
	payload := []byte("transport stream payload kept outside the markup")
	k := key(32)
	doc, ciphertext, err := EncryptOctetsToReference(payload, "disc://CLIPS/clip-1.enc", EncryptOptions{Key: k, MimeType: "video/mp2t"})
	if err != nil {
		t.Fatal(err)
	}
	s := doc.Root().String()
	if strings.Contains(s, "CipherValue") {
		t.Error("CipherValue still present")
	}
	if !strings.Contains(s, "CipherReference") {
		t.Error("no CipherReference emitted")
	}
	if bytes.Contains(ciphertext, payload[:16]) {
		t.Error("external ciphertext contains plaintext")
	}

	store := map[string][]byte{"disc://CLIPS/clip-1.enc": ciphertext}
	doc2 := parseDoc(t, s)
	pt, err := DecryptOctets(doc2.Root(), DecryptOptions{
		Key: k,
		CipherResolver: func(uri string) ([]byte, error) {
			b, ok := store[uri]
			if !ok {
				return nil, errors.New("not found")
			}
			return b, nil
		},
	})
	if err != nil {
		t.Fatalf("decrypt via reference: %v", err)
	}
	if !bytes.Equal(pt, payload) {
		t.Error("round trip mismatch")
	}

	// Without a resolver the reference cannot be followed.
	if _, err := DecryptOctets(doc2.Root(), DecryptOptions{Key: k}); err == nil {
		t.Error("decrypted without a cipher resolver")
	}
	// Resolver failure surfaces.
	if _, err := DecryptOctets(doc2.Root(), DecryptOptions{
		Key:            k,
		CipherResolver: func(string) ([]byte, error) { return nil, errors.New("gone") },
	}); err == nil {
		t.Error("resolver failure swallowed")
	}
	// Corrupted external ciphertext fails authentication (GCM).
	bad := append([]byte(nil), ciphertext...)
	bad[len(bad)-1] ^= 1
	if _, err := DecryptOctets(doc2.Root(), DecryptOptions{
		Key:            k,
		CipherResolver: func(string) ([]byte, error) { return bad, nil },
	}); !errors.Is(err, ErrDecryptionFailed) {
		t.Errorf("corrupted reference err = %v", err)
	}
}

// TestDecryptOctetsRejectsCorruption: under CBC, a CipherReference
// payload whose length is not a block multiple, an IV with no
// ciphertext, and a final padding byte outside 1..16 each fail with
// ErrDecryptionFailed, never with short plaintext.
func TestDecryptOctetsRejectsCorruption(t *testing.T) {
	payload := []byte("transport stream payload kept outside the markup")
	k16 := key(16)
	cbcDoc, cbcPayload, err := EncryptOctetsToReference(payload, "disc://CLIPS/clip-2.enc", EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: k16})
	if err != nil {
		t.Fatal(err)
	}
	// The padding byte is the last of the final plaintext block, which
	// CBC XORs with the byte one block earlier in the payload: flipping
	// that byte's high bits lifts the pad length past 16.
	badPad := append([]byte(nil), cbcPayload...)
	badPad[len(badPad)-aes.BlockSize-1] ^= 0xF0
	for name, corrupt := range map[string][]byte{
		"non-block-multiple": cbcPayload[:len(cbcPayload)-5],
		"IV only":            cbcPayload[:aes.BlockSize],
		"bad final padding":  badPad,
	} {
		if _, err := DecryptOctets(cbcDoc.Root(), DecryptOptions{
			Key:            k16,
			CipherResolver: func(string) ([]byte, error) { return corrupt, nil },
		}); !errors.Is(err, ErrDecryptionFailed) {
			t.Errorf("CBC %s: err = %v, want ErrDecryptionFailed", name, err)
		}
	}
}

// TestDecryptLeavesResolverPayloadUnchanged: an inline CipherValue is
// decrypted in the buffer its base64 decode allocated, but bytes a
// CipherResolver returns belong to the resolver (disc-image bytes, say)
// and must come back exactly as they went in.
func TestDecryptLeavesResolverPayloadUnchanged(t *testing.T) {
	payload := []byte("transport stream payload kept outside the markup, two blocks and more")
	for _, alg := range []string{xmlsecuri.EncAES128CBC, xmlsecuri.EncAES256GCM} {
		n, _ := KeySize(alg)
		k := key(n)
		doc, ciphertext, err := EncryptOctetsToReference(payload, "disc://CLIPS/clip-1.enc", EncryptOptions{Algorithm: alg, Key: k})
		if err != nil {
			t.Fatal(err)
		}
		held := append([]byte(nil), ciphertext...)
		pt, err := DecryptOctets(doc.Root(), DecryptOptions{
			Key:            k,
			CipherResolver: func(string) ([]byte, error) { return ciphertext, nil },
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !bytes.Equal(pt, payload) {
			t.Errorf("%s: round trip mismatch", alg)
		}
		if !bytes.Equal(ciphertext, held) {
			t.Errorf("%s: decryption wrote into the resolver's payload", alg)
		}
	}
}

func TestMultiRecipientEncryption(t *testing.T) {
	deviceA, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	deviceB, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	outsider, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}

	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state")
	_, err = EncryptElement(target, EncryptOptions{
		Recipients: []Recipient{
			{Name: "device-A", Key: &deviceA.PublicKey},
			{Name: "device-B", Key: &deviceB.PublicKey},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	serialized := doc.Root().String()
	if got := strings.Count(serialized, "EncryptedKey"); got < 4 { // 2 open + 2 close tags
		t.Errorf("EncryptedKey occurrences = %d", got)
	}

	// Each addressed device decrypts.
	for name, key := range map[string]*rsa.PrivateKey{"A": deviceA, "B": deviceB} {
		rx := parseDoc(t, serialized)
		if _, err := DecryptAll(rx, DecryptOptions{RSAKey: key}); err != nil {
			t.Errorf("device %s decrypt: %v", name, err)
			continue
		}
		if el, _ := rx.Root().Find("state/highscores/entry"); el == nil {
			t.Errorf("device %s: content not restored", name)
		}
	}

	// An outsider cannot.
	rx := parseDoc(t, serialized)
	if _, err := DecryptAll(rx, DecryptOptions{RSAKey: outsider}); err == nil {
		t.Error("outsider decrypted multi-recipient data")
	}
}

func TestMultiRecipientValidation(t *testing.T) {
	el := xmldom.NewElement("x")
	xmldom.NewElement("p").AppendChild(el)
	if _, err := EncryptElement(el, EncryptOptions{Recipients: []Recipient{{Name: "n"}}}); err == nil {
		t.Error("recipient without key accepted")
	}
	if _, err := EncryptElement(el, EncryptOptions{
		Recipients: []Recipient{{Name: "n", Key: &testRSAKey.PublicKey}},
		KEK:        key(16),
	}); err == nil {
		t.Error("recipients + KEK accepted")
	}
}

func TestEncryptElementDetached(t *testing.T) {
	el := xmldom.NewElement("standalone")
	el.SetAttr("v", "secret")
	k := key(32)
	doc, err := EncryptElementDetached(el, EncryptOptions{Key: k})
	if err != nil {
		t.Fatal(err)
	}
	if !IsEncryptedData(doc.Root()) {
		t.Fatal("root is not EncryptedData")
	}
	// Graft into a host document and decrypt.
	host := parseDoc(t, `<host/>`)
	host.Root().AppendChild(doc.Root())
	if _, err := DecryptAll(host, DecryptOptions{Key: k}); err != nil {
		t.Fatal(err)
	}
	back := host.Root().FirstChildElement("standalone")
	if back == nil || back.AttrValue("v") != "secret" {
		t.Errorf("restored = %v", back)
	}
	if _, err := EncryptElementDetached(nil, EncryptOptions{Key: k}); err == nil {
		t.Error("nil element accepted")
	}
}

func TestDecryptKeyResolutionFallbacks(t *testing.T) {
	k := key(32)
	// KeyName without EncryptedKey resolves the CONTENT key by name.
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state")
	if _, err := EncryptElement(target, EncryptOptions{Key: k, KeyName: "shared-content-key"}); err != nil {
		t.Fatal(err)
	}
	_, err := DecryptAll(doc, DecryptOptions{KeyByName: func(name string) ([]byte, error) {
		if name != "shared-content-key" {
			return nil, errors.New("unknown")
		}
		return k, nil
	}})
	if err != nil {
		t.Fatalf("KeyName content-key resolution: %v", err)
	}
	// With a KeyName but no resolver and no key: error.
	doc2 := parseDoc(t, gameManifest)
	target2, _ := doc2.Root().Find("state")
	if _, err := EncryptElement(target2, EncryptOptions{Key: k, KeyName: "n"}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecryptAll(doc2, DecryptOptions{}); err == nil {
		t.Error("no key material accepted")
	}
}
