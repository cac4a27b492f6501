package xmldsig

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"discsec/internal/c14n"
	"discsec/internal/keymgmt"
	"discsec/internal/obs"
	"discsec/internal/workload"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// verdict is what one verification reports: its error text and the
// signer's key fingerprint.
type verdict struct{ err, signer string }

func (v verdict) String() string { return fmt.Sprintf("{err %q, signer %q}", v.err, v.signer) }

// verifyVerdict parses s and verifies its first signature.
func verifyVerdict(t testing.TB, s string, opts VerifyOptions) verdict {
	t.Helper()
	doc, err := xmldom.ParseString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := VerifyDocument(doc, opts)
	var v verdict
	if err != nil {
		v.err = err.Error()
	}
	if res != nil {
		v.signer = res.SignerKeyFingerprint()
	}
	return v
}

// checkMemoNeutral requires that attacked verifies exactly as it does
// with every memo cold after original, and attacked itself, have
// verified once.
func checkMemoNeutral(t *testing.T, original, attacked string, opts VerifyOptions) verdict {
	t.Helper()
	ResetMemos()
	cold := verifyVerdict(t, attacked, opts)
	ResetMemos()
	verifyVerdict(t, original, opts)
	verifyVerdict(t, attacked, opts)
	if warm := verifyVerdict(t, attacked, opts); warm != cold {
		t.Errorf("memo warm: %v\nmemo cold: %v", warm, cold)
	}
	return cold
}

// resign recomputes sig's SignatureValue over its current SignedInfo.
func resign(t testing.TB, sig *xmldom.Element, key crypto.Signer) {
	t.Helper()
	si := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo")
	siOpts, err := c14n.ByURI(si.FirstChildNamed(xmlsecuri.DSigNamespace, "CanonicalizationMethod").AttrValue("Algorithm"))
	if err != nil {
		t.Fatal(err)
	}
	octets, err := c14n.Canonicalize(si, siOpts)
	if err != nil {
		t.Fatal(err)
	}
	method := si.FirstChildNamed(xmlsecuri.DSigNamespace, "SignatureMethod").AttrValue("Algorithm")
	v, err := computeSignatureValue(method, octets, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignatureValue").SetText(base64.StdEncoding.EncodeToString(v))
}

// signVerdictCase fills verdictDoc's Signature in place with a
// signature by testECDSAKey over one Reference to uri through chain.
// The SignatureValue is always valid over SignedInfo; the DigestValue
// is the chain's digest when reference processing accepts the chain.
func signVerdictCase(t *testing.T, uri string, chain []transformSpec) string {
	t.Helper()
	doc := parseDoc(t, verdictDoc)
	sig := doc.ElementByID("sig")
	sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo").Detach()
	if _, err := signInDocument(doc, nil, []ReferenceSpec{{URI: uri}}, sig, SignOptions{Key: testECDSAKey}); err != nil {
		t.Fatal(err)
	}
	ref := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo").FirstChildNamed(xmlsecuri.DSigNamespace, "Reference")
	if len(chain) > 0 {
		ts := xmldom.NewElement("ds:Transforms")
		for _, spec := range chain {
			tr := ts.CreateChild("ds:Transform")
			tr.SetAttr("Algorithm", spec.algorithm)
			if len(spec.inclusivePrefixes) > 0 {
				inc := tr.CreateChild("InclusiveNamespaces")
				inc.DeclareNamespace("", xmlsecuri.ExcC14N)
				inc.SetAttr("PrefixList", joinSpace(spec.inclusivePrefixes))
			}
		}
		ref.InsertChildAt(0, ts)
	}
	data, err := dereference(uri, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := appendReferenceDigest(nil, crypto.SHA256, data, chain, sig, nil); err == nil {
		ref.FirstChildNamed(xmlsecuri.DSigNamespace, "DigestValue").SetText(base64.StdEncoding.EncodeToString(d))
	}
	resign(t, sig, testECDSAKey)
	return doc.Root().String()
}

// TestSignatureMemoNeutralOnVerdictCases verifies a signature over
// every verdictCases chain cold and warm.
func TestSignatureMemoNeutralOnVerdictCases(t *testing.T) {
	opts := VerifyOptions{Key: testECDSAKey.Public()}
	for _, tc := range verdictCases {
		t.Run(tc.name, func(t *testing.T) {
			s := signVerdictCase(t, tc.uri, tc.chain)
			v := checkMemoNeutral(t, s, s, opts)
			if tc.accepted && tc.name != "no-transforms-subtree" && v.err != "" {
				// The subtree holds the Signature, which no
				// transform removes, so its digest cannot match.
				t.Errorf("accepted chain does not verify: %s", v.err)
			}
			if !tc.accepted && v.err == "" {
				t.Error("rejected chain verifies")
			}
		})
	}
}

// TestSignatureMemoNeutralOnAttacks verifies each attack from
// attacks_test.go cold, and warm after the genuine document verified.
func TestSignatureMemoNeutralOnAttacks(t *testing.T) {
	signed := func(t *testing.T, xml string, id string) *xmldom.Document {
		doc := parseDoc(t, xml)
		opts := SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}
		var err error
		if id == "" {
			_, err = SignEnveloped(doc, nil, opts)
		} else {
			_, err = SignElementByID(doc, doc.Root(), id, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	replace := func(t *testing.T, s, old, new string) string {
		out := strings.Replace(s, old, new, 1)
		if out == s {
			t.Fatalf("setup: %q not found", old)
		}
		return out
	}
	cases := []struct {
		name  string
		build func(t *testing.T) (original, attacked string)
		opts  VerifyOptions
		ok    bool
	}{
		{"wrapping-duplicate-id", func(t *testing.T) (string, string) {
			doc := signed(t, `<order xmlns="urn:shop"><item Id="payload"><cmd>play</cmd></item></order>`, "payload")
			return doc.Root().String(), wrapAttack(t, doc).Root().String()
		}, VerifyOptions{}, false},
		{"hmac-relabel", func(t *testing.T) (string, string) {
			s := signed(t, manifestXML, "").Root().String()
			return s, replace(t, s, xmlsecuri.SigRSASHA256, xmlsecuri.SigHMACSHA256)
		}, VerifyOptions{HMACKey: []byte("guess")}, false},
		{"reference-retargeting", func(t *testing.T) (string, string) {
			s := signed(t, `<r xmlns="urn:x"><good Id="a"><v>1</v></good><evil Id="b"><v>666</v></evil></r>`, "a").Root().String()
			return s, replace(t, s, `URI="#a"`, `URI="#b"`)
		}, VerifyOptions{}, false},
		{"transform-stripping", func(t *testing.T) (string, string) {
			s := signed(t, manifestXML, "").Root().String()
			return s, replace(t, s, `<ds:Transform Algorithm="`+xmlsecuri.TransformEnveloped+`"/>`, "")
		}, VerifyOptions{}, false},
		{"comment-insertion", func(t *testing.T) (string, string) {
			s := signed(t, manifestXML, "").Root().String()
			return s, replace(t, s, "<markup>", "<markup><!-- injected comment -->")
		}, VerifyOptions{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			original, attacked := tc.build(t)
			if v := verifyVerdict(t, original, VerifyOptions{}); v.err != "" {
				t.Fatalf("genuine document: %s", v.err)
			}
			if v := checkMemoNeutral(t, original, attacked, tc.opts); (v.err == "") != tc.ok {
				t.Errorf("attack verdict %v, want success %v", v, tc.ok)
			}
		})
	}
}

// flipSignatureValueBit flips the low bit of the eleventh SignatureValue
// octet in the serialized document s.
func flipSignatureValueBit(t *testing.T, s string) string {
	t.Helper()
	const open, end = "<ds:SignatureValue>", "</ds:SignatureValue>"
	i := strings.Index(s, open) + len(open)
	j := strings.Index(s, end)
	raw, err := base64.StdEncoding.DecodeString(s[i:j])
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 1
	return s[:i] + base64.StdEncoding.EncodeToString(raw) + s[j:]
}

// TestSignatureMemoBitFlips: after the genuine document verified, one
// flipped bit in SignatureValue or in SignedInfo still fails, exactly
// as it does with the memo cold.
func TestSignatureMemoBitFlips(t *testing.T) {
	const typeURI = "urn:x-memo"
	for _, key := range []crypto.Signer{testECDSAKey, testRSAKey} {
		t.Run(fmt.Sprintf("%T", key), func(t *testing.T) {
			doc := parseDoc(t, manifestXML)
			refs := []ReferenceSpec{{URI: "", Type: typeURI, Transforms: []string{env, exc}}}
			if _, err := SignWithReferences(doc, nil, refs, SignOptions{Key: key}); err != nil {
				t.Fatal(err)
			}
			original := doc.Root().String()
			opts := VerifyOptions{Key: key.Public()}
			// 'x' ^ 1 == 'y': one bit of the Reference's Type, which
			// SignedInfo covers and reference processing ignores.
			siFlip := strings.Replace(original, typeURI, "urn:y-memo", 1)
			for name, attacked := range map[string]string{
				"signature-value": flipSignatureValueBit(t, original),
				"signed-info":     siFlip,
			} {
				v := checkMemoNeutral(t, original, attacked, opts)
				if !strings.HasPrefix(v.err, ErrSignatureInvalid.Error()) {
					t.Errorf("%s: verdict %v, want %v", name, v, ErrSignatureInvalid)
				}
			}
		})
	}
}

// TestSignatureMemoKeyedOnSigner: a memoized success under one trusted
// key says nothing about another; the same SignedInfo and
// SignatureValue under a different key miss and fail.
func TestSignatureMemoKeyedOnSigner(t *testing.T) {
	other, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testECDSAKey}); err != nil {
		t.Fatal(err)
	}
	s := doc.Root().String()
	rec := obs.NewRecorder()

	ResetMemos()
	if v := verifyVerdict(t, s, VerifyOptions{Key: testECDSAKey.Public(), Recorder: rec}); v.err != "" {
		t.Fatal(v.err)
	}
	if v := verifyVerdict(t, s, VerifyOptions{Key: other.Public(), Recorder: rec}); !strings.HasPrefix(v.err, ErrSignatureInvalid.Error()) {
		t.Fatalf("other key: verdict %v, want %v", v, ErrSignatureInvalid)
	}
	if got := rec.Counter("xmldsig.sig_memo_hit"); got != 0 {
		t.Fatalf("sig_memo_hit = %d, want 0", got)
	}
	if v := verifyVerdict(t, s, VerifyOptions{Key: testECDSAKey.Public(), Recorder: rec}); v.err != "" {
		t.Fatal(v.err)
	}
	if got := rec.Counter("xmldsig.sig_memo_hit"); got != 1 {
		t.Fatalf("sig_memo_hit = %d after a repeat, want 1", got)
	}
}

// TestSignatureMemoRevokedKeyName: trust is decided before the memo is
// consulted, so a KeyName signer revoked after a successful verify
// fails with the memo warm.
func TestSignatureMemoRevokedKeyName(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testECDSAKey, KeyInfo: KeyInfoSpec{KeyName: "studio"}}); err != nil {
		t.Fatal(err)
	}
	s := doc.Root().String()
	errRevoked := errors.New("revoked")
	revoked := false
	opts := VerifyOptions{KeyByName: func(name string) (crypto.PublicKey, error) {
		if revoked || name != "studio" {
			return nil, errRevoked
		}
		return testECDSAKey.Public(), nil
	}}

	ResetMemos()
	for i := 0; i < 2; i++ {
		if v := verifyVerdict(t, s, opts); v.err != "" {
			t.Fatalf("before revocation: %s", v.err)
		}
	}
	if sigMemo.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", sigMemo.Len())
	}
	revoked = true
	parsed := parseDoc(t, s)
	if _, err := VerifyDocument(parsed, opts); !errors.Is(err, errRevoked) {
		t.Fatalf("after revocation: err = %v, want %v", err, errRevoked)
	}
}

func TestSignatureMemoStoresNoFailure(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testECDSAKey}); err != nil {
		t.Fatal(err)
	}
	s := doc.Root().String()
	tampered := flipSignatureValueBit(t, s)
	opts := VerifyOptions{Key: testECDSAKey.Public()}

	ResetMemos()
	for i := 0; i < 2; i++ {
		if v := verifyVerdict(t, tampered, opts); !strings.HasPrefix(v.err, ErrSignatureInvalid.Error()) {
			t.Fatalf("tampered: verdict %v, want %v", v, ErrSignatureInvalid)
		}
		if n := sigMemo.Len(); n != 0 {
			t.Fatalf("memo holds %d entries after a failed check, want 0", n)
		}
	}

	// An HMAC check is never memoized.
	hdoc := parseDoc(t, manifestXML)
	secret := []byte("shared secret")
	if _, err := SignEnveloped(hdoc, nil, SignOptions{HMACKey: secret}); err != nil {
		t.Fatal(err)
	}
	if v := verifyVerdict(t, hdoc.Root().String(), VerifyOptions{HMACKey: secret}); v.err != "" {
		t.Fatal(v.err)
	}
	if n := sigMemo.Len(); n != 0 {
		t.Fatalf("memo holds %d entries after an HMAC check, want 0", n)
	}

	if v := verifyVerdict(t, s, opts); v.err != "" {
		t.Fatal(v.err)
	}
	if n := sigMemo.Len(); n != 1 {
		t.Fatalf("memo holds %d entries after a success, want 1", n)
	}
	ResetMemos()
	if n := sigMemo.Len(); n != 0 {
		t.Fatalf("memo holds %d entries after ResetMemos, want 0", n)
	}
}

// TestSignatureMemoBounded stores more successes than the cap: one
// genuine signature checked under distinct fingerprints, each a
// distinct key.
func TestSignatureMemoBounded(t *testing.T) {
	signedInfo := []byte("<ds:SignedInfo>bound</ds:SignedInfo>")
	sig, err := computeSignatureValue(xmlsecuri.SigECDSASHA256, signedInfo, testECDSAKey, nil)
	if err != nil {
		t.Fatal(err)
	}
	ResetMemos()
	for i := 0; i < sigMemoCap+100; i++ {
		fp := fmt.Sprintf("fingerprint-%d", i)
		if err := checkSignatureValue(xmlsecuri.SigECDSASHA256, signedInfo, sig, testECDSAKey.Public(), fp, nil); err != nil {
			t.Fatalf("check %d: %v", i, err)
		}
		if n := sigMemo.Len(); n > sigMemoCap {
			t.Fatalf("check %d: memo holds %d entries, cap %d", i, n, sigMemoCap)
		}
	}
}

func TestSignatureMemoConcurrent(t *testing.T) {
	var docs []string
	for _, key := range []crypto.Signer{testECDSAKey, testRSAKey} {
		doc := parseDoc(t, manifestXML)
		if _, err := SignEnveloped(doc, nil, SignOptions{Key: key, KeyInfo: KeyInfoSpec{KeyName: fmt.Sprintf("%T", key)}}); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc.Root().String())
	}
	opts := VerifyOptions{KeyByName: func(name string) (crypto.PublicKey, error) {
		if name == fmt.Sprintf("%T", testECDSAKey) {
			return testECDSAKey.Public(), nil
		}
		return testRSAKey.Public(), nil
	}}

	ResetMemos()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s := docs[(g+i)%len(docs)]
				if v := verifyVerdict(t, s, opts); v.err != "" {
					t.Errorf("goroutine %d: %s", g, v.err)
					return
				}
				if v := verifyVerdict(t, flipSignatureValueBit(t, s), opts); !strings.HasPrefix(v.err, ErrSignatureInvalid.Error()) {
					t.Errorf("goroutine %d: tampered verdict %v", g, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := sigMemo.Len(); n != len(docs) {
		t.Fatalf("memo holds %d entries, want %d", n, len(docs))
	}
}

// TestSignatureMemoHitAllocatesNothing: building the key, the lookup
// and the hit counter on a nil recorder allocate nothing.
func TestSignatureMemoHitAllocatesNothing(t *testing.T) {
	digest := sha256.Sum256([]byte("signed info"))
	sig := bytes.Repeat([]byte{7}, 64)
	var rec *obs.Recorder
	sigMemo.Put(sigMemoKey("fp", xmlsecuri.SigECDSASHA256, sig, digest[:]), struct{}{})
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := sigMemo.Get(sigMemoKey("fp", xmlsecuri.SigECDSASHA256, sig, digest[:])); ok {
			rec.Inc("xmldsig.sig_memo_hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %.0f times, want 0", allocs)
	}
}

// TestSignatureMemoKeyFields: every field, and every boundary between
// fields, is part of the key.
func TestSignatureMemoKeyFields(t *testing.T) {
	base := sigMemoKey("ab", "c", []byte("d"), []byte("e"))
	for name, k := range map[string][sha256.Size]byte{
		"fingerprint": sigMemoKey("ax", "c", []byte("d"), []byte("e")),
		"method":      sigMemoKey("ab", "x", []byte("d"), []byte("e")),
		"signature":   sigMemoKey("ab", "c", []byte("x"), []byte("e")),
		"digest":      sigMemoKey("ab", "c", []byte("d"), []byte("x")),
		"boundary":    sigMemoKey("a", "bc", []byte("d"), []byte("e")),
	} {
		if k == base {
			t.Errorf("%s: key unchanged", name)
		}
	}
}

// memoFuzzDoc is a corpus-shaped document signed with an embedded
// [leaf, root] chain, and the spans of the three elements the fuzzer
// mutates in it: SignedInfo, SignatureValue and KeyInfo.
type memoFuzzDoc struct {
	raw   string
	opts  VerifyOptions
	spans [3]struct{ start, end int }
}

func newMemoFuzzDoc(f *testing.F) memoFuzzDoc {
	root, err := keymgmt.NewRootCA("Fuzz Root", keymgmt.ECDSAP256)
	if err != nil {
		f.Fatal(err)
	}
	id, err := root.IssueIdentity("Fuzz Studio", keymgmt.ECDSAP256)
	if err != nil {
		f.Fatal(err)
	}
	cl, _ := workload.Cluster(workload.ClusterSpec{
		AppTracks: 1,
		Manifest:  workload.ManifestSpec{Regions: 2, MediaItems: 2, Scripts: 1, ScriptStatements: 5},
		Seed:      1,
	})
	doc := cl.Document()
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: id.Key, KeyInfo: KeyInfoSpec{Certificates: id.Chain}}); err != nil {
		f.Fatal(err)
	}
	d := memoFuzzDoc{raw: string(doc.Bytes()), opts: VerifyOptions{Roots: root.Pool()}}
	for i, name := range []string{"SignedInfo", "SignatureValue", "KeyInfo"} {
		start := strings.Index(d.raw, "<ds:"+name+">")
		end := strings.Index(d.raw, "</ds:"+name+">")
		if start < 0 || end < start {
			f.Fatalf("setup: ds:%s not found", name)
		}
		d.spans[i].start, d.spans[i].end = start, end+len("</ds:"+name+">")
	}
	return d
}

// splice replaces up to cut bytes at offset at of element part with
// insert.
func (d memoFuzzDoc) splice(part uint8, at uint16, cut uint8, insert []byte) string {
	sp := d.spans[int(part)%len(d.spans)]
	i := sp.start + int(at)%(sp.end-sp.start+1)
	j := min(i+int(cut), sp.end)
	return d.raw[:i] + string(insert) + d.raw[j:]
}

// verdictClass names the sentinel a verification failed with.
func verdictClass(err error) string {
	for _, c := range []struct {
		name string
		err  error
	}{
		{"digest", ErrDigestMismatch},
		{"signature", ErrSignatureInvalid},
		{"untrusted", ErrUntrustedCertificate},
		{"no-key", ErrNoVerificationKey},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	if err != nil {
		return "other"
	}
	return "ok"
}

// FuzzSignatureMemoDifferential splices bytes into the SignedInfo,
// SignatureValue or KeyInfo of a signed corpus document. The verdict
// class and signer fingerprint with the memos warmed by the genuine
// document must equal those with every memo reset.
func FuzzSignatureMemoDifferential(f *testing.F) {
	d := newMemoFuzzDoc(f)
	const si, sv, ki = 0, 1, 2
	f.Add(uint8(si), uint16(0), uint8(0), []byte(nil))
	f.Add(uint8(si), uint16(len("<ds:SignedInfo>")), uint8(0), []byte("\n"))
	f.Add(uint8(si), uint16(len("<ds:SignedInfo><ds:CanonicalizationMethod Algorithm=")+8), uint8(1), []byte("X"))
	f.Add(uint8(sv), uint16(len("<ds:SignatureValue>")+10), uint8(1), []byte("A"))
	f.Add(uint8(sv), uint16(len("<ds:SignatureValue>")), uint8(0), []byte("AAAA"))
	f.Add(uint8(ki), uint16(len("<ds:KeyInfo>")), uint8(0), []byte("<ds:KeyName>studio</ds:KeyName>"))
	f.Add(uint8(ki), uint16(len("<ds:KeyInfo><ds:X509Data><ds:X509Certificate>")), uint8(0), []byte("\n"))
	f.Fuzz(func(t *testing.T, part uint8, at uint16, cut uint8, insert []byte) {
		doc, err := xmldom.ParseString(d.splice(part, at, cut, insert))
		if err != nil {
			return
		}
		verify := func() (string, string) {
			res, err := VerifyDocument(doc, d.opts)
			signer := ""
			if res != nil {
				signer = res.SignerKeyFingerprint()
			}
			return verdictClass(err), signer
		}
		ResetMemos()
		coldClass, coldSigner := verify()
		if v := verifyVerdict(t, d.raw, d.opts); v.err != "" {
			t.Fatalf("genuine document: %s", v.err)
		}
		warmClass, warmSigner := verify()
		if coldClass != warmClass || coldSigner != warmSigner {
			t.Fatalf("memo warm: %s %q; memo cold: %s %q", warmClass, warmSigner, coldClass, coldSigner)
		}
	})
}
