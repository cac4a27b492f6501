package xmldsig

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"discsec/internal/xmlsecuri"
)

// verdictDoc places a Signature between text runs inside p:wrap, under
// ancestors that bind namespaces and carry inheritable xml:* attributes,
// so the enveloped transform's apex context and text handling both show
// in the digests.
const verdictDoc = `<root xmlns="urn:root" xmlns:p="urn:p" xml:lang="en" xml:base="http://disc/"><p:wrap Id="w" xml:space="preserve">
  <item p:k="v">x<!-- note -->y</item>QUJD<ds:Signature xmlns:ds="http://www.w3.org/2000/09/xmldsig#" Id="sig"><ds:SignedInfo><ds:Reference URI=""/></ds:SignedInfo></ds:Signature>REVG
</p:wrap><other Id="o">T1RI</other></root>`

// verdictCases are transform chains around the enveloped-signature
// transform over verdictDoc: whether reference processing accepts each
// chain and the SHA-256 of the octets it produces. A change to the
// transform or to canonicalization must reproduce every row.
var verdictCases = []struct {
	name     string
	uri      string
	chain    []transformSpec
	accepted bool
	digest   string
}{
	{"no-transforms-subtree", "#w", nil, true, "db38e944d7262e04c6b7fe441b932ba365b47a1a8685ca856dd36358b96a083c"},
	{"enveloped-document", "", []transformSpec{{algorithm: env}}, true, "08a70fda45a8b567f3873f70d202a91e8d0252ae77329f6cd64625b99ad00c4d"},
	{"enveloped-subtree", "#w", []transformSpec{{algorithm: env}}, true, "243300a7ecd572ac9db757100bd5097767e1909e0f6dbac38552efa52280f7ed"},
	{"enveloped-then-c14n-with-comments", "#w", []transformSpec{{algorithm: env}, {algorithm: xmlsecuri.C14N10WithComments}}, true, "cb2ec4d41d8c840dd070c733a61af2f2ade3728c4134e1a5d471f5938c2f2558"},
	{"two-enveloped", "#w", []transformSpec{{algorithm: env}, {algorithm: env}}, false, ""},
	{"two-enveloped-document", "", []transformSpec{{algorithm: env}, {algorithm: env}}, false, ""},
	{"base64-after-enveloped", "#w", []transformSpec{{algorithm: env}, {algorithm: b64}}, true, "e9c0f8b575cbfcb42ab3b78ecc87efa3b011d9a5d10b09fa4e96f240bf6a82f5"},
	{"enveloped-apex-is-signature", "#sig", []transformSpec{{algorithm: env}}, false, ""},
	{"signature-outside-subtree", "#o", []transformSpec{{algorithm: env}}, false, ""},
	{"enveloped-then-exc-prefixlist", "#w", []transformSpec{{algorithm: env}, {algorithm: exc, inclusivePrefixes: []string{"p", "#default"}}}, true, "1a31528e7c303493b719054f736326028ddf4f733c5fc18b142038651c5b0321"},
	{"enveloped-then-exc", "#w", []transformSpec{{algorithm: env}, {algorithm: exc}}, true, "d6daa28c98cae3ee2abaed927301a580784b763fffae60374741f6ec265ccd88"},
	{"enveloped-then-inclusive", "", []transformSpec{{algorithm: env}, {algorithm: inc}}, true, "08a70fda45a8b567f3873f70d202a91e8d0252ae77329f6cd64625b99ad00c4d"},
	{"exc-then-enveloped", "#w", []transformSpec{{algorithm: exc}, {algorithm: env}}, false, ""},
	{"base64-then-enveloped", "#o", []transformSpec{{algorithm: b64}, {algorithm: env}}, false, ""},
}

// Short names for the transform URIs the tables in this package's
// tests chain together.
const (
	env = xmlsecuri.TransformEnveloped
	b64 = xmlsecuri.TransformBase64
	inc = xmlsecuri.C14N10
	exc = xmlsecuri.ExcC14N
)

// TestEnvelopedTransformVerdicts runs every verdictCases row through
// the reference digest runner. Each row releases its tree, so the next
// row parses into a recycled arena (a poisoned one under the domPoison
// build) and must digest the same.
func TestEnvelopedTransformVerdicts(t *testing.T) {
	for _, tc := range verdictCases {
		t.Run(tc.name, func(t *testing.T) {
			doc := parseDoc(t, verdictDoc)
			defer doc.Release()
			sig := doc.ElementByID("sig")
			data, err := dereference(tc.uri, doc, nil)
			if err != nil {
				t.Fatalf("dereference %q: %v", tc.uri, err)
			}
			var octets bytes.Buffer
			h := sha256.New()
			err = writeTransformed(io.MultiWriter(h, &octets), data, tc.chain, sig, nil)
			if accepted := err == nil; accepted != tc.accepted {
				t.Fatalf("accepted = %v (err %v), want %v", accepted, err, tc.accepted)
			}
			if err != nil {
				return
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
				t.Errorf("digest = %s, want %s\noctets: %q", got, tc.digest, octets.Bytes())
			}
		})
	}
}
