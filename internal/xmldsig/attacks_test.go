package xmldsig

import (
	"errors"
	"strings"
	"testing"

	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// Adversarial tests: classic XML signature attacks must not verify.

// Signature wrapping: the attacker moves the genuinely signed element
// into a ds:Object inside the Signature and plants a malicious element
// with the same Id at the original location. Fragment dereferencing
// must not resolve to the smuggled copy in a way that lets the
// malicious content pass as verified.
func TestSignatureWrappingDuplicateID(t *testing.T) {
	doc := parseDoc(t, `<order xmlns="urn:shop"><item Id="payload"><cmd>play</cmd></item></order>`)
	if _, err := SignElementByID(doc, doc.Root(), "payload", SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	// Sanity: it verifies untouched.
	if _, err := VerifyDocument(parseDoc(t, doc.Root().String()), VerifyOptions{}); err != nil {
		t.Fatal(err)
	}

	rx := wrapAttack(t, doc)
	res, err := VerifyDocument(rx, VerifyOptions{})
	if err == nil {
		// If verification somehow succeeded, the dereferenced content
		// must still be the original, not the attacker's. With
		// first-in-document-order Id resolution the malicious element
		// is found first and its digest cannot match.
		t.Fatalf("wrapped document verified: %+v", res)
	}
	if !errors.Is(err, ErrDigestMismatch) {
		t.Logf("verification failed with: %v (acceptable, must not pass)", err)
	}
}

// wrapAttack moves the element signed by Id "payload" into a ds:Object
// inside the Signature and plants an element with the same Id at its
// original position, then reparses the result.
func wrapAttack(t *testing.T, signed *xmldom.Document) *xmldom.Document {
	t.Helper()
	attacked := parseDoc(t, signed.Root().String())
	orig := attacked.ElementByID("payload")
	sig := FindSignature(attacked)
	wrapper := xmldom.NewElement("ds:Object")
	sig.AppendChild(wrapper)
	parent := orig.ParentElement()
	idx := parent.ChildIndex(orig)
	orig.Detach()
	wrapper.AppendChild(orig)

	evil := xmldom.NewElement("item")
	evil.SetAttr("Id", "payload")
	evil.CreateChild("cmd").SetText("format-storage")
	parent.InsertChildAt(idx, evil)
	return parseDoc(t, attacked.Root().String())
}

// Algorithm confusion: re-labelling an RSA signature as HMAC must never
// let an attacker who knows the public key forge acceptance.
func TestAlgorithmConfusionHMACRelabel(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	// Attacker rewrites the SignatureMethod to HMAC-SHA256.
	s := doc.Root().String()
	s = strings.Replace(s, xmlsecuri.SigRSASHA256, xmlsecuri.SigHMACSHA256, 1)
	rx := parseDoc(t, s)

	// Verifier without an HMAC secret must reject, not fall back to
	// the embedded public key.
	if _, err := VerifyDocument(rx, VerifyOptions{}); err == nil {
		t.Error("relabelled HMAC signature accepted without a shared key")
	}
	// Even a verifier configured with some HMAC key rejects (the MAC
	// cannot match an RSA signature value).
	if _, err := VerifyDocument(rx, VerifyOptions{HMACKey: []byte("guess")}); err == nil {
		t.Error("relabelled HMAC signature accepted with arbitrary key")
	}
}

// Reference retargeting: pointing the Reference URI at different
// content invalidates the signature because SignedInfo is itself
// signed.
func TestReferenceRetargeting(t *testing.T) {
	doc := parseDoc(t, `<r xmlns="urn:x"><good Id="a"><v>1</v></good><evil Id="b"><v>666</v></evil></r>`)
	if _, err := SignElementByID(doc, doc.Root(), "a", SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(doc.Root().String(), `URI="#a"`, `URI="#b"`, 1)
	rx := parseDoc(t, s)
	if _, err := VerifyDocument(rx, VerifyOptions{}); err == nil {
		t.Error("retargeted reference accepted")
	}
}

// Transform-chain stripping: removing the enveloped-signature transform
// changes SignedInfo, which is signed, so it must fail.
func TestTransformStripping(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	s := doc.Root().String()
	stripped := strings.Replace(s, `<ds:Transform Algorithm="`+xmlsecuri.TransformEnveloped+`"/>`, "", 1)
	if stripped == s {
		t.Fatal("setup: transform element not found for stripping")
	}
	rx := parseDoc(t, stripped)
	if _, err := VerifyDocument(rx, VerifyOptions{}); err == nil {
		t.Error("transform-stripped signature accepted")
	}
}

// Comments are not part of the canonical form (C14N without comments),
// so comment insertion inside signed content must NOT break
// verification — and must not smuggle executable content either (our
// script sources are text nodes, not comments).
func TestCommentInsertionIsTransparent(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(doc.Root().String(), "<markup>", "<markup><!-- injected comment -->", 1)
	rx := parseDoc(t, s)
	if _, err := VerifyDocument(rx, VerifyOptions{}); err != nil {
		t.Errorf("comment insertion broke verification: %v", err)
	}
}

// A Signature whose SignedInfo digests nothing (empty Reference list)
// must be rejected outright.
func TestEmptyReferenceListRejected(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	sig := FindSignature(doc)
	si := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo")
	for _, ref := range si.AppendChildElementsNamed(nil, xmlsecuri.DSigNamespace, "Reference") {
		ref.Detach()
	}
	if _, err := Verify(doc, sig, VerifyOptions{}); err == nil {
		t.Error("signature without references accepted")
	}
}

// Reference/transform floods must be rejected before any expensive
// processing happens.
func TestProcessingLimits(t *testing.T) {
	doc := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(doc, nil, SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}); err != nil {
		t.Fatal(err)
	}
	sig := FindSignature(doc)
	si := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo")
	ref := si.FirstChildNamed(xmlsecuri.DSigNamespace, "Reference")

	// Reference flood.
	flooded := doc.Clone()
	fsig := FindSignature(flooded)
	fsi := fsig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo")
	fref := fsi.FirstChildNamed(xmlsecuri.DSigNamespace, "Reference")
	for i := 0; i < MaxReferences+1; i++ {
		fsi.AppendChild(fref.Clone())
	}
	if _, err := Verify(flooded, fsig, VerifyOptions{}); err == nil {
		t.Error("reference flood accepted")
	}

	// Transform flood.
	ts := ref.FirstChildNamed(xmlsecuri.DSigNamespace, "Transforms")
	tr := ts.FirstChildNamed(xmlsecuri.DSigNamespace, "Transform")
	for i := 0; i < MaxTransforms+1; i++ {
		ts.AppendChild(tr.Clone())
	}
	if _, err := Verify(doc, sig, VerifyOptions{}); err == nil {
		t.Error("transform flood accepted")
	}
}
