package xmldsig

import (
	"crypto"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"discsec/internal/c14n"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// oracleApplyTransforms is the reference processing writeTransformed
// replaced: every step materializes its octets, a chain that ends with
// a node-set is canonicalized into a buffer, and the caller hashes the
// buffer.
func oracleApplyTransforms(data refData, chain []transformSpec, sigEl *xmldom.Element) ([]byte, error) {
	cur := data
	for _, tr := range chain {
		var err error
		cur, err = oracleApplyTransform(cur, tr, sigEl)
		if err != nil {
			return nil, err
		}
	}
	if cur.isNode {
		return c14n.CanonicalizeExcept(cur.node, cur.without, c14n.Options{})
	}
	return cur.octets, nil
}

func oracleApplyTransform(data refData, tr transformSpec, sigEl *xmldom.Element) (refData, error) {
	switch tr.algorithm {
	case xmlsecuri.TransformEnveloped:
		if !data.isNode {
			return refData{}, errors.New("xmldsig: enveloped-signature transform requires a node-set")
		}
		switch {
		case sigEl == nil:
			return refData{}, errors.New("xmldsig: enveloped-signature transform outside signature validation")
		case data.node == sigEl:
			return refData{}, errors.New("xmldsig: enveloped-signature transform cannot target the signature itself")
		case data.without != nil || !elementContains(data.node, sigEl):
			return refData{}, errors.New("xmldsig: enveloped signature is not a descendant of the referenced element")
		}
		data.without = sigEl
		return data, nil

	case xmlsecuri.C14N10, xmlsecuri.C14N10WithComments, xmlsecuri.ExcC14N, xmlsecuri.ExcC14NWithComments:
		opts, err := c14n.ByURI(tr.algorithm)
		if err != nil {
			return refData{}, err
		}
		opts.InclusivePrefixes = tr.inclusivePrefixes
		if !data.isNode {
			doc, err := xmldom.ParseBytes(data.octets)
			if err != nil {
				return refData{}, fmt.Errorf("xmldsig: c14n transform over octets: %w", err)
			}
			data = nodeData(doc.Root())
		}
		out, err := c14n.CanonicalizeExcept(data.node, data.without, opts)
		if err != nil {
			return refData{}, err
		}
		return octetData(out), nil

	case xmlsecuri.TransformDecryptXML:
		return data, nil

	case xmlsecuri.TransformBase64:
		var text string
		if data.isNode {
			text = data.node.Text()
		} else {
			text = string(data.octets)
		}
		decoded, err := xmldom.DecodeBase64(text)
		if err != nil {
			return refData{}, fmt.Errorf("xmldsig: base64 transform: %w", err)
		}
		return octetData(decoded), nil

	default:
		return refData{}, fmt.Errorf("%w: transform %q", ErrUnsupportedAlgorithm, tr.algorithm)
	}
}

// digestChains is every transform chain this package's tests sign or
// verify through — SignEnveloped and SignElementByID (attacks_test.go),
// the manifest's untransformed and exclusive references
// (manifest_test.go), the verdict table, the corpus' enveloped,
// decryption and exclusive chain — and chains that carry a deferred
// canonicalization through a later step, or read it back as octets.
var digestChains = [][]transformSpec{
	nil,
	{{algorithm: env}},
	{{algorithm: env}, {algorithm: exc}},
	{{algorithm: env}, {algorithm: env}},
	{{algorithm: env}, {algorithm: inc}},
	{{algorithm: env}, {algorithm: xmlsecuri.C14N10WithComments}},
	{{algorithm: env}, {algorithm: xmlsecuri.ExcC14NWithComments}},
	{{algorithm: env}, {algorithm: exc, inclusivePrefixes: []string{"p", "#default"}}},
	{{algorithm: env}, {algorithm: xmlsecuri.ExcC14NWithComments, inclusivePrefixes: []string{"ds"}}},
	{{algorithm: env}, {algorithm: b64}},
	{{algorithm: env}, {algorithm: xmlsecuri.TransformDecryptXML}, {algorithm: exc}},
	{{algorithm: xmlsecuri.TransformDecryptXML}, {algorithm: env}, {algorithm: exc}},
	{{algorithm: env}, {algorithm: exc}, {algorithm: xmlsecuri.TransformDecryptXML}},
	{{algorithm: exc}},
	{{algorithm: inc}},
	{{algorithm: xmlsecuri.C14N10WithComments}},
	{{algorithm: exc}, {algorithm: env}},
	{{algorithm: exc}, {algorithm: inc}},
	{{algorithm: inc}, {algorithm: exc, inclusivePrefixes: []string{"#default"}}},
	{{algorithm: exc}, {algorithm: b64}},
	{{algorithm: b64}},
	{{algorithm: b64}, {algorithm: env}},
	{{algorithm: b64}, {algorithm: inc}},
	{{algorithm: "urn:unknown-transform"}},
}

// digestCase is one document a reference may point into, with the
// Signature the enveloped transform removes and the resolver external
// URIs dereference through.
type digestCase struct {
	name     string
	doc      *xmldom.Document
	sig      *xmldom.Element
	resolver ExternalResolver
	external []string
}

// TestStreamedDigestMatchesOracle holds writeTransformed to the
// materialize-then-hash oracle, digest for digest and error for error:
// every reference of every document below with its own chain, and
// every digestChains chain from every Id the document carries, from
// its root, and from every external URI it resolves.
func TestStreamedDigestMatchesOracle(t *testing.T) {
	compared := 0
	for _, dc := range digestCases(t) {
		for _, ref := range signatureReferences(dc.sig) {
			chain, err := parseTransforms(ref)
			if err != nil {
				t.Fatalf("%s: %v", dc.name, err)
			}
			compareWithOracle(t, dc, ref.AttrValue("URI"), chain)
			compared++
		}
		uris := append([]string{""}, dc.external...)
		for _, id := range documentIDs(dc.doc.Root()) {
			uris = append(uris, "#"+id)
		}
		for _, uri := range uris {
			for _, chain := range digestChains {
				compareWithOracle(t, dc, uri, chain)
				compared++
			}
		}
	}
	for _, tc := range verdictCases {
		doc := parseDoc(t, verdictDoc)
		compareWithOracle(t, digestCase{name: "verdict/" + tc.name, doc: doc, sig: doc.ElementByID("sig")}, tc.uri, tc.chain)
		compared++
	}
	if compared < 500 {
		t.Fatalf("compared %d references, want at least 500", compared)
	}
}

// compareWithOracle fails the test unless the runner and the oracle
// agree on the reference: both reject with the same error, or both
// accept with the same digest.
func compareWithOracle(t *testing.T, dc digestCase, uri string, chain []transformSpec) {
	t.Helper()
	data, err := dereference(uri, dc.doc, dc.resolver)
	if err != nil {
		return
	}
	octets, wantErr := oracleApplyTransforms(data, chain, dc.sig)
	got, gotErr := digestReference(crypto.SHA256, data, chain, dc.sig, nil)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s %q %v: runner err %v, oracle err %v", dc.name, uri, chain, gotErr, wantErr)
	}
	if want := sha256.Sum256(octets); gotErr == nil && string(got) != string(want[:]) {
		t.Fatalf("%s %q %v: runner digest %x, oracle %x", dc.name, uri, chain, got, want)
	}
}

// digestCases builds the documents of attacks_test.go, manifest_test.go
// and the verdict table, one whose base64 text decodes to XML and one
// whose base64 text is wrapped, and the committed corpus.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	key := SignOptions{Key: testRSAKey, KeyInfo: KeyInfoSpec{IncludeKeyValue: true}}
	var out []digestCase
	add := func(name string, doc *xmldom.Document, resolver ExternalResolver, external ...string) {
		sig := FindSignature(doc)
		if sig == nil {
			sig = doc.ElementByID("sig")
		}
		out = append(out, digestCase{name, doc, sig, resolver, external})
	}

	add("verdict", parseDoc(t, verdictDoc), nil)

	enveloped := parseDoc(t, manifestXML)
	if _, err := SignEnveloped(enveloped, nil, key); err != nil {
		t.Fatal(err)
	}
	add("enveloped", parseDoc(t, enveloped.Root().String()), nil)
	add("comment-injected", parseDoc(t, strings.Replace(enveloped.Root().String(), "<markup>", "<markup><!-- injected comment -->", 1)), nil)

	byID := parseDoc(t, `<order xmlns="urn:shop"><item Id="payload"><cmd>play</cmd></item></order>`)
	if _, err := SignElementByID(byID, byID.Root(), "payload", key); err != nil {
		t.Fatal(err)
	}
	add("by-id", parseDoc(t, byID.Root().String()), nil)
	add("wrapped", wrapAttack(t, byID), nil)

	files, resolver := manifestFixture(t)
	var external []string
	for uri := range files {
		external = append(external, uri)
	}
	add("manifest", parseDoc(t, signedManifest(t, resolver).Root().String()), resolver, external...)

	blob := base64.StdEncoding.EncodeToString([]byte(`<x xmlns="urn:x" b="2" a="1"><y/></x>`))
	add("base64", parseDoc(t, `<pkg xmlns:p="urn:p"><blob Id="b">`+blob+`</blob><p:t Id="t">  QUJD
RA==	</p:t></pkg>`), nil)

	paths, err := filepath.Glob(filepath.Join("..", "xmlstream", "testdata", "cluster-*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmldom.ParseBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.Base(path), doc, nil)
	}
	return out
}

// signatureReferences lists the SignedInfo and Manifest references of
// sig, or none when sig is nil.
func signatureReferences(sig *xmldom.Element) []*xmldom.Element {
	if sig == nil {
		return nil
	}
	var refs []*xmldom.Element
	if si := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo"); si != nil {
		refs = append(refs, si.ChildElementsNamed(xmlsecuri.DSigNamespace, "Reference")...)
	}
	for _, obj := range sig.ChildElementsNamed(xmlsecuri.DSigNamespace, "Object") {
		for _, man := range obj.ChildElementsNamed(xmlsecuri.DSigNamespace, "Manifest") {
			refs = append(refs, man.ChildElementsNamed(xmlsecuri.DSigNamespace, "Reference")...)
		}
	}
	return refs
}

// documentIDs lists the Id attributes under e in document order.
func documentIDs(e *xmldom.Element) []string {
	var ids []string
	for _, d := range append([]*xmldom.Element{e}, e.Descendants()...) {
		if id, ok := d.Attr("Id"); ok {
			ids = append(ids, id)
		}
	}
	return ids
}
