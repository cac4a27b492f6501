package xmldsig

import (
	"crypto/subtle"
	"encoding/base64"
	"errors"
	"fmt"

	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// ds:Manifest support (XML-DSig core §2.3 / §5.1): a Manifest is a list
// of References wrapped in a ds:Object and referenced from SignedInfo
// with Type Manifest. Core validation covers only the digest of the
// Manifest element itself; validating the references *inside* the
// manifest is application-defined and does not abort core validation.
//
// In the disc context this is the natural shape for "one signature over
// many resources with per-resource failure reporting": a damaged bonus
// clip is reported individually while the rest of the package remains
// verifiably intact.

// ManifestType is the Reference Type identifier marking a manifest
// reference.
const ManifestType = "http://www.w3.org/2000/09/xmldsig#Manifest"

// SignManifest builds a standalone signature whose SignedInfo covers a
// ds:Manifest of the given references (dereferenced through resolver).
// manifestID names the embedded manifest element.
func SignManifest(refs []ReferenceSpec, manifestID string, resolver ExternalResolver, opts SignOptions) (*xmldom.Document, error) {
	if len(refs) == 0 {
		return nil, errors.New("xmldsig: SignManifest requires at least one reference")
	}
	if manifestID == "" {
		manifestID = "manifest-1"
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}

	doc := &xmldom.Document{}
	sig := xmldom.NewElement(DefaultPrefix + ":Signature")
	sig.DeclareNamespace(DefaultPrefix, xmlsecuri.DSigNamespace)
	doc.SetRoot(sig)

	obj := xmldom.NewElement(DefaultPrefix + ":Object")
	man := obj.CreateChild(DefaultPrefix + ":Manifest")
	man.SetAttr("Id", manifestID)
	sig.AppendChild(obj)

	h, err := HashByDigestURI(opts.DigestMethod)
	if err != nil {
		return nil, err
	}
	for _, rs := range refs {
		data, err := dereference(rs.URI, doc, resolver)
		if err != nil {
			return nil, err
		}
		chain, err := specChain(rs)
		if err != nil {
			return nil, err
		}
		digest, err := digestReference(h, data, chain, sig, nil)
		if err != nil {
			return nil, err
		}

		refEl := man.CreateChild(DefaultPrefix + ":Reference")
		refEl.SetAttr("URI", rs.URI)
		if len(rs.Transforms) > 0 {
			ts := refEl.CreateChild(DefaultPrefix + ":Transforms")
			for _, alg := range rs.Transforms {
				ts.CreateChild(DefaultPrefix+":Transform").SetAttr("Algorithm", alg)
			}
		}
		refEl.CreateChild(DefaultPrefix+":DigestMethod").SetAttr("Algorithm", opts.DigestMethod)
		refEl.CreateChild(DefaultPrefix + ":DigestValue").SetText(base64.StdEncoding.EncodeToString(digest))
	}

	// SignedInfo covers the manifest element by reference.
	siRefs := []ReferenceSpec{{
		URI:        "#" + manifestID,
		Type:       ManifestType,
		Transforms: []string{xmlsecuri.ExcC14N},
	}}
	if _, err := signInDocumentWithResolver(doc, nil, siRefs, sig, resolver, opts); err != nil {
		return nil, err
	}
	return doc, nil
}

// ManifestReferenceResult reports validation of one reference inside a
// ds:Manifest.
type ManifestReferenceResult struct {
	URI   string
	Valid bool
	// Err carries the dereference/processing failure when Valid is
	// false for a reason other than digest mismatch.
	Err error
}

// ValidateManifests validates every Reference inside every ds:Manifest
// of the signature, per XML-DSig §5.1: failures here are reported
// individually and do NOT constitute core-validation failure (the
// caller decides policy). Core validation (Verify) must have succeeded
// first for these results to mean anything.
func ValidateManifests(doc *xmldom.Document, sig *xmldom.Element, opts VerifyOptions) ([]ManifestReferenceResult, error) {
	if sig == nil {
		return nil, ErrNoSignature
	}
	var out []ManifestReferenceResult
	for _, obj := range sig.ChildElementsNamed(xmlsecuri.DSigNamespace, "Object") {
		for _, man := range obj.ChildElementsNamed(xmlsecuri.DSigNamespace, "Manifest") {
			for _, refEl := range man.ChildElementsNamed(xmlsecuri.DSigNamespace, "Reference") {
				out = append(out, validateManifestReference(doc, sig, refEl, opts))
			}
		}
	}
	return out, nil
}

func validateManifestReference(doc *xmldom.Document, sig, refEl *xmldom.Element, opts VerifyOptions) ManifestReferenceResult {
	uri := refEl.AttrValue("URI")
	res := ManifestReferenceResult{URI: uri}

	dmEl := refEl.FirstChildNamed(xmlsecuri.DSigNamespace, "DigestMethod")
	dvEl := refEl.FirstChildNamed(xmlsecuri.DSigNamespace, "DigestValue")
	if dmEl == nil || dvEl == nil {
		res.Err = errors.New("xmldsig: manifest Reference missing DigestMethod or DigestValue")
		return res
	}
	h, err := HashByDigestURI(dmEl.AttrValue("Algorithm"))
	if err != nil {
		res.Err = err
		return res
	}
	want, err := xmldom.DecodeBase64(dvEl.Text())
	if err != nil {
		res.Err = fmt.Errorf("xmldsig: manifest DigestValue: %w", err)
		return res
	}
	data, err := dereference(uri, doc, opts.Resolver)
	if err != nil {
		res.Err = err
		return res
	}
	chain, err := parseTransforms(refEl)
	if err != nil {
		res.Err = err
		return res
	}
	got, err := digestReference(h, data, chain, sig, nil)
	if err != nil {
		res.Err = err
		return res
	}
	res.Valid = subtle.ConstantTimeCompare(got, want) == 1
	return res
}
