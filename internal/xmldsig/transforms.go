package xmldsig

import (
	"errors"
	"fmt"

	"discsec/internal/c14n"
	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// refData is the intermediate value flowing through a Reference's
// transform chain: either an XML node-set (a subtree apex, less the
// Signature the enveloped-signature transform removed) or an octet
// stream.
type refData struct {
	node    *xmldom.Element
	without *xmldom.Element
	octets  []byte
	isNode  bool
}

func nodeData(e *xmldom.Element) refData { return refData{node: e, isNode: true} }
func octetData(b []byte) refData         { return refData{octets: b} }

// ExternalResolver dereferences non-same-document Reference URIs
// (detached signatures over disc files or downloaded resources).
type ExternalResolver interface {
	// ResolveReference returns the octets identified by uri.
	ResolveReference(uri string) ([]byte, error)
}

// ExternalResolverFunc adapts a function to ExternalResolver.
type ExternalResolverFunc func(uri string) ([]byte, error)

// ResolveReference implements ExternalResolver.
func (f ExternalResolverFunc) ResolveReference(uri string) ([]byte, error) { return f(uri) }

// dereference resolves a Reference URI in the context of the document
// that contains the signature. Same-document references ("" and "#id")
// produce node-sets; every other URI is delegated to the external
// resolver.
func dereference(uri string, doc *xmldom.Document, resolver ExternalResolver) (refData, error) {
	switch {
	case uri == "":
		if doc == nil || doc.Root() == nil {
			return refData{}, errors.New("xmldsig: empty Reference URI requires an enclosing document")
		}
		return nodeData(doc.Root()), nil
	case uri[0] == '#':
		if doc == nil {
			return refData{}, errors.New("xmldsig: fragment Reference URI requires an enclosing document")
		}
		id := uri[1:]
		el := doc.ElementByID(id)
		if el == nil {
			return refData{}, fmt.Errorf("xmldsig: no element with Id %q", id)
		}
		return nodeData(el), nil
	default:
		if resolver == nil {
			return refData{}, fmt.Errorf("xmldsig: no resolver for external Reference URI %q", uri)
		}
		b, err := resolver.ResolveReference(uri)
		if err != nil {
			return refData{}, fmt.Errorf("xmldsig: dereference %q: %w", uri, err)
		}
		return octetData(b), nil
	}
}

// transformSpec is one ds:Transform in a chain.
type transformSpec struct {
	algorithm string
	// inclusivePrefixes carries the exclusive-c14n
	// InclusiveNamespaces PrefixList when present.
	inclusivePrefixes []string
	// exceptURIs carries dcrpt:Except references for the decryption
	// transform.
	exceptURIs []string
}

// applyTransforms runs the chain over the dereferenced data. sigEl is the
// Signature element under validation, removed by the enveloped-signature
// transform. The result is always octets: if the chain ends with a
// node-set, the required default canonicalization (inclusive C14N 1.0
// without comments) is applied.
func applyTransforms(data refData, chain []transformSpec, sigEl *xmldom.Element, rec *obs.Recorder) ([]byte, error) {
	cur := data
	for _, tr := range chain {
		var err error
		cur, err = applyTransform(cur, tr, sigEl, rec)
		if err != nil {
			return nil, err
		}
	}
	if cur.isNode {
		return c14n.CanonicalizeExcept(cur.node, cur.without, c14n.Options{Recorder: rec})
	}
	return cur.octets, nil
}

func applyTransform(data refData, tr transformSpec, sigEl *xmldom.Element, rec *obs.Recorder) (refData, error) {
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
			// A second enveloped transform finds the Signature already
			// gone from the node-set.
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
		opts.Recorder = rec
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
		// The Decryption Transform is executed by the player pipeline
		// before core validation (internal/dectrans): EncryptedData
		// not listed in dcrpt:Except has already been decrypted by
		// the time reference processing runs, so here the transform
		// is the identity.
		return data, nil

	case xmlsecuri.TransformBase64:
		var text string
		if data.isNode {
			text = data.node.Text()
		} else {
			text = string(data.octets)
		}
		decoded, err := decodeBase64Text(text)
		if err != nil {
			return refData{}, fmt.Errorf("xmldsig: base64 transform: %w", err)
		}
		return octetData(decoded), nil

	default:
		return refData{}, fmt.Errorf("%w: transform %q", ErrUnsupportedAlgorithm, tr.algorithm)
	}
}

// Processing limits guarding verification against maliciously shaped
// signatures (reference and transform floods).
const (
	// MaxReferences bounds the References in one SignedInfo.
	MaxReferences = 64
	// MaxTransforms bounds the Transform chain of one Reference.
	MaxTransforms = 8
)

// parseTransforms extracts the transform chain from a ds:Reference.
func parseTransforms(ref *xmldom.Element) ([]transformSpec, error) {
	ts := ref.FirstChildNamed(xmlsecuri.DSigNamespace, "Transforms")
	if ts == nil {
		return nil, nil
	}
	trs := ts.ChildElementsNamed(xmlsecuri.DSigNamespace, "Transform")
	if len(trs) > MaxTransforms {
		return nil, fmt.Errorf("xmldsig: %d Transforms exceeds limit %d", len(trs), MaxTransforms)
	}
	var chain []transformSpec
	for _, tr := range trs {
		alg, ok := tr.Attr("Algorithm")
		if !ok {
			return nil, errors.New("xmldsig: Transform missing Algorithm")
		}
		spec := transformSpec{algorithm: alg}
		if inc := tr.FirstChildNamed("", "InclusiveNamespaces"); inc != nil {
			if pl, ok := inc.Attr("PrefixList"); ok {
				spec.inclusivePrefixes = splitPrefixList(pl)
			}
		}
		for _, exc := range tr.ChildElementsNamed(xmlsecuri.DecryptNamespace, "Except") {
			if uri, ok := exc.Attr("URI"); ok {
				spec.exceptURIs = append(spec.exceptURIs, uri)
			}
		}
		chain = append(chain, spec)
	}
	return chain, nil
}

// DecryptionExceptions returns the union of dcrpt:Except URIs declared by
// decryption transforms across every Reference of the signature. The
// player pipeline uses this list to decide which EncryptedData structures
// were signed in their encrypted form and must be left alone before core
// validation.
func DecryptionExceptions(sig *xmldom.Element) ([]string, error) {
	si := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo")
	if si == nil {
		return nil, errors.New("xmldsig: Signature missing SignedInfo")
	}
	seen := map[string]bool{}
	var out []string
	for _, ref := range si.ChildElementsNamed(xmlsecuri.DSigNamespace, "Reference") {
		chain, err := parseTransforms(ref)
		if err != nil {
			return nil, err
		}
		for _, tr := range chain {
			if tr.algorithm != xmlsecuri.TransformDecryptXML {
				continue
			}
			for _, uri := range tr.exceptURIs {
				if !seen[uri] {
					seen[uri] = true
					out = append(out, uri)
				}
			}
		}
	}
	return out, nil
}

func splitPrefixList(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	return out
}
