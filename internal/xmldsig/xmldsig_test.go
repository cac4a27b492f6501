package xmldsig

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// Shared test keys: RSA key generation is slow, generate once.
var (
	testRSAKey   *rsa.PrivateKey
	testRSAKey2  *rsa.PrivateKey
	testECDSAKey *ecdsa.PrivateKey
)

func init() {
	var err error
	testRSAKey, err = rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		panic(err)
	}
	testRSAKey2, err = rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		panic(err)
	}
	testECDSAKey, err = ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		panic(err)
	}
}

const manifestXML = `<manifest xmlns="urn:disc:manifest" Id="app-1">
  <markup><layout region="main"/><timing dur="5s"/></markup>
  <code><script language="ecmascript">var score = 0;</script></code>
</manifest>`

func parseDoc(t *testing.T, s string) *xmldom.Document {
	t.Helper()
	doc, err := xmldom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEnvelopedSignRoundTrip(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	_, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}})
	if err != nil {
		t.Fatalf("SignEnveloped: %v", err)
	}

	// Serialize and reparse: verification must survive a round trip.
	doc2 := parseDoc(t, doc.Root().String())
	res, err := VerifyDocument(doc2, VerifyOptions{})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(res.References) != 1 || !res.References[0].Valid {
		t.Errorf("references = %+v", res.References)
	}
}

func TestEnvelopedTamperDetection(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	serialized := doc.Root().String()

	// Tamper with the script content (the paper's malicious-application
	// scenario).
	tampered := strings.Replace(serialized, "var score = 0;", "var score = 999;", 1)
	if tampered == serialized {
		t.Fatal("test setup: tamper target not found")
	}
	doc2 := parseDoc(t, tampered)
	_, err := VerifyDocument(doc2, VerifyOptions{})
	if !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("tampered verify error = %v, want ErrDigestMismatch", err)
	}
}

func TestTamperedSignatureValue(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	sig := FindSignature(doc)
	sv := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignatureValue")
	sv.SetText("AAAA" + sv.Text()[4:])
	_, err := VerifyDocument(doc, VerifyOptions{})
	if !errors.Is(err, ErrSignatureInvalid) {
		t.Errorf("verify error = %v, want ErrSignatureInvalid", err)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey}); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyDocument(doc, VerifyOptions{Key: &testRSAKey2.PublicKey})
	if !errors.Is(err, ErrSignatureInvalid) {
		t.Errorf("verify error = %v, want ErrSignatureInvalid", err)
	}
	// And the right key succeeds.
	if _, err := VerifyDocument(doc, VerifyOptions{Key: &testRSAKey.PublicKey}); err != nil {
		t.Errorf("verify with correct pinned key: %v", err)
	}
}

func TestSignatureMethods(t *testing.T) {
	methods := []struct {
		name string
		opts SignOptions
		vo   VerifyOptions
	}{
		{"rsa-sha1", SignOptions{Key: testRSAKey, SignatureMethod: xmlsecuri.SigRSASHA1, DigestMethod: xmlsecuri.DigestSHA1, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}, VerifyOptions{}},
		{"rsa-sha256", SignOptions{Key: testRSAKey, SignatureMethod: xmlsecuri.SigRSASHA256, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}, VerifyOptions{}},
		{"rsa-sha512", SignOptions{Key: testRSAKey, SignatureMethod: xmlsecuri.SigRSASHA512, DigestMethod: xmlsecuri.DigestSHA512, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}, VerifyOptions{}},
		{"rsa-pss-sha256", SignOptions{Key: testRSAKey, SignatureMethod: xmlsecuri.SigRSAPSSSHA256, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}, VerifyOptions{}},
		{"ecdsa-sha256", SignOptions{Key: testECDSAKey, SignatureMethod: xmlsecuri.SigECDSASHA256}, VerifyOptions{Key: &testECDSAKey.PublicKey}},
		{"hmac-sha256", SignOptions{HMACKey: []byte("shared-secret-key"), SignatureMethod: xmlsecuri.SigHMACSHA256}, VerifyOptions{HMACKey: []byte("shared-secret-key")}},
		{"hmac-sha1", SignOptions{HMACKey: []byte("shared-secret-key"), SignatureMethod: xmlsecuri.SigHMACSHA1, DigestMethod: xmlsecuri.DigestSHA1}, VerifyOptions{HMACKey: []byte("shared-secret-key")}},
	}
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			doc := parseDoc(t, manifestXML)
			if _, err := SignEnveloped(doc, nil, m.opts); err != nil {
				t.Fatalf("sign: %v", err)
			}
			doc2 := parseDoc(t, doc.Root().String())
			if _, err := VerifyDocument(doc2, m.vo); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

func TestHMACWrongKey(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{HMACKey: []byte("key-a")}); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyDocument(doc, VerifyOptions{HMACKey: []byte("key-b")})
	if !errors.Is(err, ErrSignatureInvalid) {
		t.Errorf("verify error = %v, want ErrSignatureInvalid", err)
	}
}

func TestEnvelopingSignature(t *testing.T) {
	content := xmldom.NewElement("bonus")
	content.SetAttr("kind", "trailer")
	content.AddText("payload")

	doc, err := SignEnveloping(content, "obj-7", SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}})
	if err != nil {
		t.Fatalf("SignEnveloping: %v", err)
	}
	doc2 := parseDoc(t, doc.Root().String())
	res, err := VerifyDocument(doc2, VerifyOptions{})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if res.References[0].URI != "#obj-7" {
		t.Errorf("reference URI = %q", res.References[0].URI)
	}

	// Tampering with the wrapped object must fail.
	tampered := strings.Replace(doc.Root().String(), "payload", "poisoned", 1)
	doc3 := parseDoc(t, tampered)
	if _, err := VerifyDocument(doc3, VerifyOptions{}); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("tampered enveloping verify = %v", err)
	}
}

func TestDetachedSignature(t *testing.T) {
	files := map[string][]byte{
		"disc://track1/clip.m2ts": []byte("binary clip content \x00\x01\x02"),
		"disc://track1/menu.xml":  []byte("<menu><item/></menu>"),
	}
	resolver := ExternalResolverFunc(func(uri string) ([]byte, error) {
		b, ok := files[uri]
		if !ok {
			return nil, errors.New("not found")
		}
		return b, nil
	})

	refs := []ReferenceSpec{
		{URI: "disc://track1/clip.m2ts"},
		{URI: "disc://track1/menu.xml"},
	}
	doc, err := SignDetached(refs, resolver, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}})
	if err != nil {
		t.Fatalf("SignDetached: %v", err)
	}

	doc2 := parseDoc(t, doc.Root().String())
	res, err := VerifyDocument(doc2, VerifyOptions{Resolver: resolver})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(res.References) != 2 {
		t.Fatalf("references = %d", len(res.References))
	}

	// Modify one file: verification must fail.
	files["disc://track1/clip.m2ts"] = []byte("evil")
	if _, err := VerifyDocument(doc2, VerifyOptions{Resolver: resolver}); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("tampered detached verify = %v", err)
	}
}

func TestSignElementByID(t *testing.T) {
	// Sign only the code part of the manifest (paper §5.4: selective
	// signing of scripts).
	doc := parseDoc(t, `<manifest xmlns="urn:m"><markup>free to edit</markup><code Id="code-1"><script>var x=1;</script></code></manifest>`)
	if _, err := SignElementByID(doc, doc.Root(), "code-1", SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatalf("SignElementByID: %v", err)
	}
	doc2 := parseDoc(t, doc.Root().String())
	if _, err := VerifyDocument(doc2, VerifyOptions{}); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// The markup part is NOT covered: editing it must not break the
	// signature.
	edited := strings.Replace(doc.Root().String(), "free to edit", "edited!", 1)
	doc3 := parseDoc(t, edited)
	if _, err := VerifyDocument(doc3, VerifyOptions{}); err != nil {
		t.Errorf("uncovered edit broke signature: %v", err)
	}

	// The script IS covered.
	hacked := strings.Replace(doc.Root().String(), "var x=1;", "var x=666;", 1)
	doc4 := parseDoc(t, hacked)
	if _, err := VerifyDocument(doc4, VerifyOptions{}); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("covered edit verify = %v, want digest mismatch", err)
	}
}

func TestSignElementByIDUnknownID(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignElementByID(doc, nil, "nope", SignOptions{Key: testRSAKey}); err == nil {
		t.Error("unknown Id accepted")
	}
}

func TestKeyNameResolution(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{KeyName: "studio-2005"}}); err != nil {
		t.Fatal(err)
	}
	asked := ""
	_, err := VerifyDocument(doc, VerifyOptions{
		KeyByName: func(name string) (crypto.PublicKey, error) {
			asked = name
			return &testRSAKey.PublicKey, nil
		},
	})
	if err != nil {
		t.Fatalf("verify via KeyName: %v", err)
	}
	if asked != "studio-2005" {
		t.Errorf("KeyByName asked for %q", asked)
	}
	// Resolver failure surfaces.
	if _, err := VerifyDocument(doc, VerifyOptions{
		KeyByName: func(string) (crypto.PublicKey, error) { return nil, errors.New("unknown key") },
	}); err == nil {
		t.Error("failed KeyName lookup accepted")
	}
}

func TestSignOptionValidation(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{}); err == nil {
		t.Error("no key accepted")
	}
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, HMACKey: []byte("x")}); err == nil {
		t.Error("both keys accepted")
	}
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, SignatureMethod: "urn:bogus"}); err == nil {
		t.Error("bogus signature method accepted")
	}
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, DigestMethod: "urn:bogus"}); err == nil {
		t.Error("bogus digest method accepted")
	}
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, CanonicalizationMethod: "urn:bogus"}); err == nil {
		t.Error("bogus c14n method accepted")
	}
}

func TestVerifyPolicyRestriction(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, SignatureMethod: xmlsecuri.SigRSASHA1, DigestMethod: xmlsecuri.DigestSHA1, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	_, err := VerifyDocument(doc, VerifyOptions{AcceptedSignatureMethods: []string{xmlsecuri.SigRSASHA256}})
	if err == nil {
		t.Error("policy-restricted method accepted")
	}
}

func TestVerifyNoSignature(t *testing.T) {
	doc := parseDoc(t, `<plain/>`)
	if _, err := VerifyDocument(doc, VerifyOptions{}); !errors.Is(err, ErrNoSignature) {
		t.Errorf("err = %v, want ErrNoSignature", err)
	}
}

func TestVerifyNoKey(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	// Sign without any KeyInfo.
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey}); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDocument(doc, VerifyOptions{}); !errors.Is(err, ErrNoVerificationKey) {
		t.Errorf("err = %v, want ErrNoVerificationKey", err)
	}
}

func TestWhitespaceInsideSignedContentMatters(t *testing.T) {
	// Canonicalization preserves significant whitespace: inserting
	// whitespace into signed content must break the digest.
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	padded := strings.Replace(doc.Root().String(), "var score = 0;", "var score = 0; ", 1)
	doc2 := parseDoc(t, padded)
	if _, err := VerifyDocument(doc2, VerifyOptions{}); !errors.Is(err, ErrDigestMismatch) {
		t.Errorf("whitespace edit verify = %v", err)
	}
}

func TestMultipleSignatures(t *testing.T) {
	// Content creator signs the manifest; application author adds a
	// second signature over the same document region (paper Fig. 3:
	// both parties sign).
	doc := parseDoc(t, `<cluster xmlns="urn:c"><track Id="t1"><data>av-payload</data></track><track Id="t2"><data>app</data></track></cluster>`)
	if _, err := SignElementByID(doc, doc.Root(), "t1", SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := SignElementByID(doc, doc.Root(), "t2", SignOptions{Key: testRSAKey2, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	doc2 := parseDoc(t, doc.Root().String())
	sigs := AppendSignatures(nil, doc2)
	if len(sigs) != 2 {
		t.Fatalf("found %d signatures, want 2", len(sigs))
	}
	for i, sig := range sigs {
		if _, err := Verify(doc2, sig, VerifyOptions{}); err != nil {
			t.Errorf("signature %d verify: %v", i, err)
		}
	}
}

func TestParseKeyInfoNil(t *testing.T) {
	ki, err := ParseKeyInfo(nil)
	if err != nil || ki == nil {
		t.Fatalf("ParseKeyInfo(nil) = %v, %v", ki, err)
	}
	if ki.LeafPublicKey() != nil {
		t.Error("empty KeyInfo produced a key")
	}
}

func TestECDSASignatureValueFormat(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testECDSAKey, SignatureMethod: xmlsecuri.SigECDSASHA256}); err != nil {
		t.Fatal(err)
	}
	sig := FindSignature(doc)
	sv := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignatureValue")
	raw, err := xmldom.DecodeBase64(sv.Text())
	if err != nil {
		t.Fatal(err)
	}
	// P-256: r||s = 64 octets, not ASN.1 DER.
	if len(raw) != 64 {
		t.Errorf("ECDSA signature value length = %d, want 64 (raw r||s)", len(raw))
	}
}

// TestECDSASignatureValueLength: XML-DSig 1.1 §6.4.3 fixes a P-256
// SignatureValue at 64 octets. Any other length fails, the zero-padded
// 00||r||00||s included, with the memo cold and warm alike.
func TestECDSASignatureValueLength(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testECDSAKey}); err != nil {
		t.Fatal(err)
	}
	original := doc.Root().String()
	const open, end = "<ds:SignatureValue>", "</ds:SignatureValue>"
	i := strings.Index(original, open) + len(open)
	j := strings.Index(original, end)
	raw, err := base64.StdEncoding.DecodeString(original[i:j])
	if err != nil || len(raw) != 64 {
		t.Fatalf("setup: SignatureValue %d octets, err %v", len(raw), err)
	}
	r, s := raw[:32], raw[32:]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name  string
		value []byte
		ok    bool
	}{
		{"64", raw, true},
		{"62", cat(r[1:], s[1:]), false},
		{"66-zero-padded", cat([]byte{0}, r, []byte{0}, s), false},
		{"65", cat(raw, []byte{0}), false},
		{"0", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			attacked := original[:i] + base64.StdEncoding.EncodeToString(tc.value) + original[j:]
			v := checkMemoNeutral(t, original, attacked, VerifyOptions{Key: testECDSAKey.Public()})
			if tc.ok && v.err != "" {
				t.Fatalf("verify: %s", v.err)
			}
			if !tc.ok && !strings.HasPrefix(v.err, ErrSignatureInvalid.Error()) {
				t.Fatalf("verdict %v, want %v", v, ErrSignatureInvalid)
			}
		})
	}
}
