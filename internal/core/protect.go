// Package core implements the paper's primary contribution: applying the
// W3C XML security mechanisms end-to-end to interactive applications in
// the optical disc content hierarchy.
//
// The authoring side (Protector) signs and encrypts at the granularities
// of §5 and §6 — Interactive Cluster, Track, Manifest, and the
// Markup/Code parts within a manifest — in the §7 order (sign first,
// encrypt second, with the Decryption Transform recording which
// encrypted regions predate the signature). The player side (Opener)
// reverses the process in the Fig. 9 order: decrypt what was encrypted
// after signing, verify every signature against the platform trust
// anchors, then open the remaining regions.
package core

import (
	"crypto/rsa"
	"errors"
	"fmt"

	"discsec/internal/disc"
	"discsec/internal/keymgmt"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// Level selects the signing/encryption granularity of the paper's §5.2.
type Level int

// Granularity levels.
const (
	// LevelCluster covers the whole Interactive Cluster (§5.3).
	LevelCluster Level = iota
	// LevelTrack covers one track (§5.3, selective track signing).
	LevelTrack
	// LevelManifest covers one Application Manifest (§5.4).
	LevelManifest
	// LevelCode covers only the code part of a manifest (§5.4:
	// selective signing of scripts).
	LevelCode
	// LevelMarkup covers only the markup part of a manifest.
	LevelMarkup
)

func (l Level) String() string {
	switch l {
	case LevelCluster:
		return "cluster"
	case LevelTrack:
		return "track"
	case LevelManifest:
		return "manifest"
	case LevelCode:
		return "code"
	case LevelMarkup:
		return "markup"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Protector is the authoring-side Signer and Encryptor of the paper's
// §8 architecture.
type Protector struct {
	// Identity signs on behalf of the content creator or application
	// author; its certificate chain is embedded in KeyInfo.
	Identity *keymgmt.Identity
	// SignatureMethod and DigestMethod default to RSA-SHA256/SHA-256
	// (ECDSA identities switch the signature method automatically).
	SignatureMethod string
	DigestMethod    string
	// EncryptionAlgorithm defaults to AES-256-GCM.
	EncryptionAlgorithm string
}

func (p *Protector) signOptions() (xmldsig.SignOptions, error) {
	if p.Identity == nil {
		return xmldsig.SignOptions{}, errors.New("core: Protector requires an identity")
	}
	method := p.SignatureMethod
	if method == "" {
		switch p.Identity.Key.Public().(type) {
		case *rsa.PublicKey:
			method = xmlsecuri.SigRSASHA256
		default:
			method = xmlsecuri.SigECDSASHA256
		}
	}
	return xmldsig.SignOptions{
		Key:             p.Identity.Key,
		SignatureMethod: method,
		DigestMethod:    p.DigestMethod,
		KeyInfo: xmldsig.KeyInfoSpec{
			KeyName:      p.Identity.Name,
			Certificates: p.Identity.Chain,
		},
	}, nil
}

// targetForLevel resolves the element a granularity level refers to
// inside a cluster document.
func targetForLevel(doc *xmldom.Document, level Level, id string) (*xmldom.Element, error) {
	root := doc.Root()
	if root == nil {
		return nil, errors.New("core: empty document")
	}
	switch level {
	case LevelCluster:
		return root, nil
	case LevelTrack:
		for _, tr := range root.AppendChildElementsNamed(nil, disc.ClusterNamespace, "track") {
			if tr.AttrValue("Id") == id {
				return tr, nil
			}
		}
		return nil, fmt.Errorf("core: no track %q", id)
	case LevelManifest, LevelCode, LevelMarkup:
		var manifest *xmldom.Element
		root.Walk(func(n xmldom.Node) bool {
			e, ok := n.(*xmldom.Element)
			if !ok {
				return true
			}
			if e.Local == "manifest" && e.AttrValue("Id") == id {
				manifest = e
				return false
			}
			return true
		})
		if manifest == nil {
			return nil, fmt.Errorf("core: no manifest %q", id)
		}
		switch level {
		case LevelCode:
			code := manifest.FirstChildNamed(disc.ClusterNamespace, "code")
			if code == nil {
				code = manifest.FirstChildElement("code")
			}
			if code == nil {
				return nil, fmt.Errorf("core: manifest %q has no code part", id)
			}
			return code, nil
		case LevelMarkup:
			mk := manifest.FirstChildNamed(disc.ClusterNamespace, "markup")
			if mk == nil {
				mk = manifest.FirstChildElement("markup")
			}
			if mk == nil {
				return nil, fmt.Errorf("core: manifest %q has no markup part", id)
			}
			return mk, nil
		default:
			return manifest, nil
		}
	default:
		return nil, fmt.Errorf("core: unknown level %v", level)
	}
}

// ensureID guarantees the element carries an Id attribute, generating a
// stable one from its position when missing, and returns the Id value.
func ensureID(doc *xmldom.Document, el *xmldom.Element, hint string) string {
	if v, ok := el.Attr("Id"); ok && v != "" {
		return v
	}
	base := hint
	if base == "" {
		base = el.Local
	}
	for i := 1; ; i++ {
		candidate := fmt.Sprintf("%s-%d", base, i)
		if doc.ElementByID(candidate) == nil {
			el.SetAttr("Id", candidate)
			return candidate
		}
	}
}

// Sign applies an XML signature at the given granularity. For
// LevelCluster the signature envelops the whole document (appended under
// the root with an enveloped-signature transform); for narrower levels
// the signature references the target by Id and is appended under the
// cluster root, detached from the covered subtree.
func (p *Protector) Sign(doc *xmldom.Document, level Level, id string) (*xmldom.Element, error) {
	opts, err := p.signOptions()
	if err != nil {
		return nil, err
	}
	target, err := targetForLevel(doc, level, id)
	if err != nil {
		return nil, err
	}
	if level == LevelCluster {
		return xmldsig.SignEnveloped(doc, doc.Root(), opts)
	}
	targetID := ensureID(doc, target, id)
	return xmldsig.SignElementByID(doc, doc.Root(), targetID, opts)
}

// SignThenEncrypt performs the paper's §7 end-to-end order on a cluster
// document: regions listed in PreEncrypted are assumed already encrypted
// (they become dcrpt:Except entries), the signature is generated, and
// afterwards the PostEncrypt regions are encrypted. The verifier must run
// the Opener to undo this in the right order.
type SignThenEncryptSpec struct {
	// Level and ID select the signature coverage.
	Level Level
	ID    string
	// PreEncryptedIDs lists EncryptedData Ids that existed before
	// signing (signed in ciphertext form).
	PreEncryptedIDs []string
	// PostEncrypt lists target element paths (relative to the cluster
	// root, xmldom query syntax) to encrypt after signing.
	PostEncrypt []string
	// Encryption configures the cipher and key delivery for
	// PostEncrypt.
	Encryption xmlenc.EncryptOptions
}

// SignThenEncrypt executes the spec and returns the generated signature
// element.
func (p *Protector) SignThenEncrypt(doc *xmldom.Document, spec SignThenEncryptSpec) (*xmldom.Element, error) {
	opts, err := p.signOptions()
	if err != nil {
		return nil, err
	}
	target, err := targetForLevel(doc, spec.Level, spec.ID)
	if err != nil {
		return nil, err
	}

	var refs []xmldsig.ReferenceSpec
	transforms := []string{xmlsecuri.TransformDecryptXML, xmlsecuri.ExcC14N}
	var exceptURIs []string
	for _, id := range spec.PreEncryptedIDs {
		exceptURIs = append(exceptURIs, "#"+id)
	}
	if spec.Level == LevelCluster {
		refs = []xmldsig.ReferenceSpec{{
			URI:               "",
			Transforms:        append([]string{xmlsecuri.TransformEnveloped}, transforms...),
			DecryptExceptURIs: exceptURIs,
		}}
	} else {
		targetID := ensureID(doc, target, spec.ID)
		chain := transforms
		if elementContainsCore(target, doc.Root()) {
			chain = append([]string{xmlsecuri.TransformEnveloped}, transforms...)
		}
		refs = []xmldsig.ReferenceSpec{{
			URI:               "#" + targetID,
			Transforms:        chain,
			DecryptExceptURIs: exceptURIs,
		}}
	}

	sig, err := xmldsig.SignWithReferences(doc, doc.Root(), refs, opts)
	if err != nil {
		return nil, err
	}

	for i, path := range spec.PostEncrypt {
		el, err := doc.Root().Find(path)
		if err != nil {
			return nil, err
		}
		if el == nil {
			return nil, fmt.Errorf("core: PostEncrypt path %q matched nothing", path)
		}
		encOpts := spec.Encryption
		if encOpts.DataID == "" {
			encOpts.DataID = fmt.Sprintf("enc-post-%d", i+1)
		}
		if _, err := xmlenc.EncryptElement(el, encOpts); err != nil {
			return nil, fmt.Errorf("core: encrypting %q: %w", path, err)
		}
	}
	return sig, nil
}

// EncryptRegion encrypts one element (by query path) before signing; the
// returned Id must be passed as a PreEncryptedID to SignThenEncrypt.
func (p *Protector) EncryptRegion(doc *xmldom.Document, path, dataID string, opts xmlenc.EncryptOptions) (string, error) {
	el, err := doc.Root().Find(path)
	if err != nil {
		return "", err
	}
	if el == nil {
		return "", fmt.Errorf("core: path %q matched nothing", path)
	}
	if dataID == "" {
		dataID = "enc-pre-1"
	}
	opts.DataID = dataID
	if p.EncryptionAlgorithm != "" && opts.Algorithm == "" {
		opts.Algorithm = p.EncryptionAlgorithm
	}
	if _, err := xmlenc.EncryptElement(el, opts); err != nil {
		return "", err
	}
	return dataID, nil
}

// SignTrackPayloads generates a detached signature over binary track
// payloads in the disc image (the Fig. 6 detached form for A/V files),
// stored at the given image path.
func (p *Protector) SignTrackPayloads(im *disc.Image, payloadPaths []string, signaturePath string) error {
	opts, err := p.signOptions()
	if err != nil {
		return err
	}
	refs := make([]xmldsig.ReferenceSpec, 0, len(payloadPaths))
	for _, path := range payloadPaths {
		if !im.Has(path) {
			return fmt.Errorf("core: image has no payload %q", path)
		}
		refs = append(refs, xmldsig.ReferenceSpec{URI: "disc://" + path})
	}
	sigDoc, err := xmldsig.SignDetached(refs, im, opts)
	if err != nil {
		return err
	}
	return im.Put(signaturePath, sigDoc.Bytes())
}

func elementContainsCore(ancestor, e *xmldom.Element) bool {
	for cur := e; cur != nil; cur = cur.ParentElement() {
		if cur == ancestor {
			return true
		}
	}
	return false
}
