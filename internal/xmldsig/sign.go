package xmldsig

import (
	"crypto"
	"crypto/ecdsa"
	"encoding/base64"
	"errors"
	"fmt"

	"discsec/internal/c14n"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// DefaultPrefix is the namespace prefix used for generated signature
// markup.
const DefaultPrefix = "ds"

// SignOptions configures signature generation.
type SignOptions struct {
	// Key is the asymmetric signing key (RSA or ECDSA). Exactly one of
	// Key or HMACKey must be set.
	Key crypto.Signer
	// HMACKey selects symmetric authentication with an HMAC signature
	// method.
	HMACKey []byte
	// SignatureMethod is the algorithm identifier; defaults to
	// RSA-SHA256 for asymmetric keys and HMAC-SHA256 for HMACKey.
	SignatureMethod string
	// DigestMethod is used for all references; defaults to SHA-256.
	DigestMethod string
	// CanonicalizationMethod canonicalizes SignedInfo; defaults to
	// Exclusive C14N.
	CanonicalizationMethod string
	// KeyInfo controls the emitted ds:KeyInfo.
	KeyInfo KeyInfoSpec
	// SignatureID sets the Id attribute on the ds:Signature element.
	SignatureID string
}

func (o *SignOptions) normalize() error {
	if (o.Key == nil) == (o.HMACKey == nil) {
		return errors.New("xmldsig: exactly one of Key or HMACKey must be set")
	}
	if o.SignatureMethod == "" {
		switch {
		case o.HMACKey != nil:
			o.SignatureMethod = xmlsecuri.SigHMACSHA256
		default:
			switch o.Key.Public().(type) {
			case *ecdsa.PublicKey:
				o.SignatureMethod = xmlsecuri.SigECDSASHA256
			default:
				o.SignatureMethod = xmlsecuri.SigRSASHA256
			}
		}
	}
	if o.DigestMethod == "" {
		o.DigestMethod = xmlsecuri.DigestSHA256
	}
	if o.CanonicalizationMethod == "" {
		o.CanonicalizationMethod = xmlsecuri.ExcC14N
	}
	if _, err := c14n.ByURI(o.CanonicalizationMethod); err != nil {
		return err
	}
	if _, err := HashByDigestURI(o.DigestMethod); err != nil {
		return err
	}
	if _, err := hashBySignatureURI(o.SignatureMethod); err != nil {
		return err
	}
	return nil
}

// ReferenceSpec describes one ds:Reference to generate.
type ReferenceSpec struct {
	// URI identifies the data: "" (whole document), "#id"
	// (same-document element), or an external identifier resolved by
	// the Resolver.
	URI string
	// Transforms is the transform chain; for enveloped signatures it
	// must include the enveloped-signature transform.
	Transforms []string
	// InclusivePrefixes applies to exclusive c14n transforms in the
	// chain.
	InclusivePrefixes []string
	// DecryptExceptURIs lists EncryptedData fragment URIs ("#id") that
	// a decryption transform in the chain marks as signed-as-encrypted
	// (dcrpt:Except): the verifier must NOT decrypt them before
	// validating this reference.
	DecryptExceptURIs []string
	// Type optionally sets the Reference Type attribute.
	Type string
}

// SignEnveloped generates a signature over the document and appends the
// ds:Signature element as the last child of parent (which must belong to
// doc). The Reference uses URI "" with the enveloped-signature transform
// followed by exclusive canonicalization, per the paper's Fig. 6
// "enveloped" form.
func SignEnveloped(doc *xmldom.Document, parent *xmldom.Element, opts SignOptions) (*xmldom.Element, error) {
	if doc == nil || doc.Root() == nil {
		return nil, errors.New("xmldsig: SignEnveloped requires a document with a root element")
	}
	if parent == nil {
		parent = doc.Root()
	}
	refs := []ReferenceSpec{{
		URI:        "",
		Transforms: []string{xmlsecuri.TransformEnveloped, xmlsecuri.ExcC14N},
	}}
	return signInDocument(doc, parent, refs, nil, opts)
}

// SignElementByID generates an enveloped-style signature whose reference
// targets the element carrying the given Id value; the signature element
// is appended under parent. If the target contains parent, the
// enveloped-signature transform is included so the signature excludes
// itself.
func SignElementByID(doc *xmldom.Document, parent *xmldom.Element, id string, opts SignOptions) (*xmldom.Element, error) {
	target := doc.ElementByID(id)
	if target == nil {
		return nil, fmt.Errorf("xmldsig: no element with Id %q", id)
	}
	transforms := []string{xmlsecuri.ExcC14N}
	if parent == nil {
		parent = doc.Root()
	}
	if elementContains(target, parent) || target == parent {
		transforms = []string{xmlsecuri.TransformEnveloped, xmlsecuri.ExcC14N}
	}
	refs := []ReferenceSpec{{URI: "#" + id, Transforms: transforms}}
	return signInDocument(doc, parent, refs, nil, opts)
}

// SignEnveloping wraps content in a ds:Object inside a new standalone
// ds:Signature (the paper's Fig. 6 "enveloping" form) and returns the
// signature element as a new document. The content element is adopted
// into the Object.
func SignEnveloping(content *xmldom.Element, objectID string, opts SignOptions) (*xmldom.Document, error) {
	if content == nil {
		return nil, errors.New("xmldsig: SignEnveloping requires content")
	}
	if objectID == "" {
		objectID = "object-1"
	}
	doc := &xmldom.Document{}
	sig := xmldom.NewElement(DefaultPrefix + ":Signature")
	sig.DeclareNamespace(DefaultPrefix, xmlsecuri.DSigNamespace)
	doc.SetRoot(sig)

	obj := xmldom.NewElement(DefaultPrefix + ":Object")
	obj.SetAttr("Id", objectID)
	obj.AppendChild(content.Clone())
	sig.AppendChild(obj)

	refs := []ReferenceSpec{{URI: "#" + objectID, Transforms: []string{xmlsecuri.ExcC14N}}}
	if _, err := signInDocument(doc, nil, refs, sig, opts); err != nil {
		return nil, err
	}
	return doc, nil
}

// SignDetached generates a standalone ds:Signature whose references
// identify external content through the resolver (the paper's Fig. 6
// "detached" form, used for signing tracks and downloaded resources).
func SignDetached(refs []ReferenceSpec, resolver ExternalResolver, opts SignOptions) (*xmldom.Document, error) {
	if len(refs) == 0 {
		return nil, errors.New("xmldsig: SignDetached requires at least one reference")
	}
	doc := &xmldom.Document{}
	sig := xmldom.NewElement(DefaultPrefix + ":Signature")
	sig.DeclareNamespace(DefaultPrefix, xmlsecuri.DSigNamespace)
	doc.SetRoot(sig)
	if _, err := signInDocumentWithResolver(doc, nil, refs, sig, resolver, opts); err != nil {
		return nil, err
	}
	return doc, nil
}

// SignWithReferences generates a signature over caller-specified
// references and appends the ds:Signature under parent (the document root
// when parent is nil). This is the general entry point behind the
// enveloped/enveloping/detached helpers; the player pipeline uses it to
// combine the enveloped-signature and decryption transforms (paper §7).
func SignWithReferences(doc *xmldom.Document, parent *xmldom.Element, refs []ReferenceSpec, opts SignOptions) (*xmldom.Element, error) {
	if doc == nil || doc.Root() == nil {
		return nil, errors.New("xmldsig: SignWithReferences requires a document with a root element")
	}
	if parent == nil {
		parent = doc.Root()
	}
	if len(refs) == 0 {
		return nil, errors.New("xmldsig: SignWithReferences requires at least one reference")
	}
	return signInDocument(doc, parent, refs, nil, opts)
}

// SignWithReferencesResolver is SignWithReferences with an external
// resolver for non-same-document reference URIs.
func SignWithReferencesResolver(doc *xmldom.Document, parent *xmldom.Element, refs []ReferenceSpec, resolver ExternalResolver, opts SignOptions) (*xmldom.Element, error) {
	if doc == nil || doc.Root() == nil {
		return nil, errors.New("xmldsig: SignWithReferencesResolver requires a document with a root element")
	}
	if parent == nil {
		parent = doc.Root()
	}
	if len(refs) == 0 {
		return nil, errors.New("xmldsig: SignWithReferencesResolver requires at least one reference")
	}
	return signInDocumentWithResolver(doc, parent, refs, nil, resolver, opts)
}

// signInDocument builds the Signature element, computes reference
// digests, canonicalizes SignedInfo and signs it. When existingSig is
// non-nil the structure is built into it (enveloping/detached); otherwise
// a new Signature is appended under parent.
func signInDocument(doc *xmldom.Document, parent *xmldom.Element, refs []ReferenceSpec, existingSig *xmldom.Element, opts SignOptions) (*xmldom.Element, error) {
	return signInDocumentWithResolver(doc, parent, refs, existingSig, nil, opts)
}

func signInDocumentWithResolver(doc *xmldom.Document, parent *xmldom.Element, refs []ReferenceSpec, existingSig *xmldom.Element, resolver ExternalResolver, opts SignOptions) (*xmldom.Element, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}

	p := DefaultPrefix
	sig := existingSig
	if sig == nil {
		sig = xmldom.NewElement(p + ":Signature")
		sig.DeclareNamespace(p, xmlsecuri.DSigNamespace)
	}
	if opts.SignatureID != "" {
		sig.SetAttr("Id", opts.SignatureID)
	}

	si := xmldom.NewElement(p + ":SignedInfo")
	si.CreateChild(p+":CanonicalizationMethod").SetAttr("Algorithm", opts.CanonicalizationMethod)
	si.CreateChild(p+":SignatureMethod").SetAttr("Algorithm", opts.SignatureMethod)

	// Insert structure before digesting: references to the document
	// must see the final shape (the enveloped transform strips the
	// signature subtree during digesting).
	sigValEl := xmldom.NewElement(p + ":SignatureValue")
	sig.InsertChildAt(0, sigValEl)
	sig.InsertChildAt(0, si)
	if ki, err := buildKeyInfo(p, opts.KeyInfo, signingPublicKey(opts)); err != nil {
		return nil, err
	} else if ki != nil {
		idx := sig.ChildIndex(sigValEl) + 1
		sig.InsertChildAt(idx, ki)
	}
	if parent != nil && sig.ParentElement() == nil {
		parent.AppendChild(sig)
	}

	for _, rs := range refs {
		refEl := xmldom.NewElement(p + ":Reference")
		if rs.Type != "" {
			refEl.SetAttr("Type", rs.Type)
		}
		refEl.SetAttr("URI", rs.URI)
		if len(rs.Transforms) > 0 {
			ts := refEl.CreateChild(p + ":Transforms")
			for _, alg := range rs.Transforms {
				trEl := ts.CreateChild(p + ":Transform")
				trEl.SetAttr("Algorithm", alg)
				if len(rs.InclusivePrefixes) > 0 && (alg == xmlsecuri.ExcC14N || alg == xmlsecuri.ExcC14NWithComments) {
					inc := trEl.CreateChild("InclusiveNamespaces")
					inc.DeclareNamespace("", xmlsecuri.ExcC14N)
					inc.SetAttr("PrefixList", joinSpace(rs.InclusivePrefixes))
				}
				if alg == xmlsecuri.TransformDecryptXML {
					for _, exc := range rs.DecryptExceptURIs {
						excEl := trEl.CreateChild("dcrpt:Except")
						excEl.DeclareNamespace("dcrpt", xmlsecuri.DecryptNamespace)
						excEl.SetAttr("URI", exc)
					}
				}
			}
		}
		refEl.CreateChild(p+":DigestMethod").SetAttr("Algorithm", opts.DigestMethod)

		data, err := dereference(rs.URI, doc, resolver)
		if err != nil {
			return nil, err
		}
		chain, err := specChain(rs)
		if err != nil {
			return nil, err
		}
		h, _ := HashByDigestURI(opts.DigestMethod)
		digest, err := digestReference(h, data, chain, sig, nil)
		if err != nil {
			return nil, err
		}
		refEl.CreateChild(p + ":DigestValue").SetText(base64.StdEncoding.EncodeToString(digest))

		si.AppendChild(refEl)
	}

	// Canonicalize SignedInfo in its document context and sign.
	siOpts, err := c14n.ByURI(opts.CanonicalizationMethod)
	if err != nil {
		return nil, err
	}
	siOctets, err := c14n.Canonicalize(si, siOpts)
	if err != nil {
		return nil, err
	}
	sigVal, err := computeSignatureValue(opts.SignatureMethod, siOctets, opts.Key, opts.HMACKey)
	if err != nil {
		return nil, err
	}
	sigValEl.SetText(base64.StdEncoding.EncodeToString(sigVal))
	return sig, nil
}

func specChain(rs ReferenceSpec) ([]transformSpec, error) {
	var chain []transformSpec
	for _, alg := range rs.Transforms {
		spec := transformSpec{algorithm: alg}
		if alg == xmlsecuri.ExcC14N || alg == xmlsecuri.ExcC14NWithComments {
			spec.inclusivePrefixes = rs.InclusivePrefixes
		}
		if alg == xmlsecuri.TransformDecryptXML {
			spec.exceptURIs = rs.DecryptExceptURIs
		}
		chain = append(chain, spec)
	}
	return chain, nil
}

func signingPublicKey(opts SignOptions) crypto.PublicKey {
	return publicKeyOf(opts.Key)
}

func elementContains(ancestor, e *xmldom.Element) bool {
	for cur := e; cur != nil; cur = cur.ParentElement() {
		if cur == ancestor {
			return true
		}
	}
	return false
}

func joinSpace(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}
