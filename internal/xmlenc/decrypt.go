package xmlenc

import (
	"crypto/rsa"
	"errors"
	"fmt"
	"io"

	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// DecryptOptions configures decryption of EncryptedData structures.
type DecryptOptions struct {
	// Key is the shared content-encryption key, used when the
	// EncryptedData carries no EncryptedKey.
	Key []byte
	// RSAKey recovers keys transported under rsa-1_5 / rsa-oaep.
	RSAKey *rsa.PrivateKey
	// KEK unwraps keys wrapped under kw-aes*.
	KEK []byte
	// KeyByName resolves a ds:KeyName hint to a content key (no
	// EncryptedKey) or a KEK (with AES key wrap).
	KeyByName func(name string) ([]byte, error)
	// CipherResolver dereferences xenc:CipherReference URIs (ciphertext
	// stored outside the document, e.g. in the disc image).
	CipherResolver func(uri string) ([]byte, error)
	// CipherStreamResolver, when set, dereferences CipherReference URIs
	// as a stream; DecryptOctetsTo prefers it over CipherResolver so a
	// large clip's ciphertext is never materialized whole.
	CipherStreamResolver func(uri string) (io.ReadCloser, error)
	// Recorder, when non-nil, receives one obs.StageDecrypt span per
	// EncryptedData decryption.
	Recorder *obs.Recorder
}

// IsEncryptedData reports whether el is an xenc:EncryptedData element.
func IsEncryptedData(el *xmldom.Element) bool {
	return el != nil && el.Local == "EncryptedData" && el.NamespaceURI() == xmlsecuri.EncNamespace
}

// FindEncryptedData returns every xenc:EncryptedData in document order
// (not descending into EncryptedData contents, which are opaque).
func FindEncryptedData(doc *xmldom.Document) []*xmldom.Element {
	root := doc.Root()
	if root == nil {
		return nil
	}
	var out []*xmldom.Element
	root.Walk(func(n xmldom.Node) bool {
		e, ok := n.(*xmldom.Element)
		if !ok {
			return true
		}
		if IsEncryptedData(e) {
			out = append(out, e)
			return false
		}
		return true
	})
	return out
}

// DecryptOctets recovers the plaintext octets of an EncryptedData
// without altering the tree — used for arbitrary binary payloads (tracks)
// and as the common lower half of structural decryption.
func DecryptOctets(ed *xmldom.Element, opts DecryptOptions) ([]byte, error) {
	defer opts.Recorder.Start(obs.StageDecrypt).End()
	if !IsEncryptedData(ed) {
		return nil, errors.New("xmlenc: element is not xenc:EncryptedData")
	}
	em := ed.FirstChildNamed(xmlsecuri.EncNamespace, "EncryptionMethod")
	if em == nil {
		return nil, errors.New("xmlenc: EncryptedData missing EncryptionMethod")
	}
	algorithm := em.AttrValue("Algorithm")

	payload, owned, err := cipherPayload(ed, opts)
	if err != nil {
		return nil, err
	}
	key, err := resolveContentKey(ed, algorithm, opts)
	if err != nil {
		return nil, err
	}
	return decryptOctets(algorithm, key, payload, owned)
}

// DecryptElement decrypts an EncryptedData of Type Element or Content in
// place: the EncryptedData node, which belongs to doc, is replaced by
// the recovered nodes, parsed into doc's arena so doc's Release hands
// them back with the rest of the tree. It returns the recovered
// plaintext for callers that also need the octets.
func DecryptElement(doc *xmldom.Document, ed *xmldom.Element, opts DecryptOptions) ([]byte, error) {
	parent := ed.ParentElement()
	if parent == nil {
		return nil, errors.New("xmlenc: DecryptElement requires the EncryptedData to have a parent; use DecryptOctets for detached data")
	}
	dataType := ed.AttrValue("Type")
	if dataType != xmlsecuri.EncTypeElement && dataType != xmlsecuri.EncTypeContent {
		return nil, fmt.Errorf("xmlenc: DecryptElement requires Type Element or Content, have %q", dataType)
	}
	plaintext, err := DecryptOctets(ed, opts)
	if err != nil {
		return nil, err
	}
	nodes, err := doc.ParseFragment(plaintext)
	if err != nil {
		return nil, fmt.Errorf("xmlenc: decrypted plaintext is not well-formed XML: %w", err)
	}
	if dataType == xmlsecuri.EncTypeElement {
		if len(nodes) != 1 {
			return nil, fmt.Errorf("xmlenc: Element-typed plaintext yielded %d nodes", len(nodes))
		}
		if _, ok := nodes[0].(*xmldom.Element); !ok {
			return nil, errors.New("xmlenc: Element-typed plaintext is not an element")
		}
	}
	idx := parent.ChildIndex(ed)
	parent.RemoveChild(ed)
	for i, n := range nodes {
		parent.InsertChildAt(idx+i, n)
	}
	return plaintext, nil
}

// DecryptAll decrypts every EncryptedData of Type Element/Content in the
// document, repeating until none remain (handling super-encryption).
// It returns the number of structures decrypted.
func DecryptAll(doc *xmldom.Document, opts DecryptOptions) (int, error) {
	total := 0
	for pass := 0; pass < 32; pass++ {
		targets := FindEncryptedData(doc)
		var structural []*xmldom.Element
		for _, ed := range targets {
			tp := ed.AttrValue("Type")
			if tp == xmlsecuri.EncTypeElement || tp == xmlsecuri.EncTypeContent {
				structural = append(structural, ed)
			}
		}
		if len(structural) == 0 {
			return total, nil
		}
		for _, ed := range structural {
			if _, err := DecryptElement(doc, ed, opts); err != nil {
				return total, err
			}
			total++
		}
	}
	return total, errors.New("xmlenc: super-encryption nesting too deep")
}

// cipherPayload extracts the raw ciphertext of an EncryptedData from
// either an inline CipherValue or an external CipherReference. owned
// reports that the payload was decoded into a fresh buffer the caller
// may decrypt in place; a resolver's bytes belong to the resolver (a
// disc image, say) and are never owned.
func cipherPayload(ed *xmldom.Element, opts DecryptOptions) (payload []byte, owned bool, err error) {
	cd := ed.FirstChildNamed(xmlsecuri.EncNamespace, "CipherData")
	if cd == nil {
		return nil, false, errors.New("xmlenc: EncryptedData missing CipherData")
	}
	if cv := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherValue"); cv != nil {
		payload, err := xmldom.DecodeBase64(cv.Text())
		return payload, true, err
	}
	if cr := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherReference"); cr != nil {
		uri, ok := cr.Attr("URI")
		if !ok {
			return nil, false, errors.New("xmlenc: CipherReference missing URI")
		}
		if opts.CipherResolver == nil {
			return nil, false, fmt.Errorf("xmlenc: no resolver configured for CipherReference %q", uri)
		}
		payload, err := opts.CipherResolver(uri)
		if err != nil {
			return nil, false, fmt.Errorf("xmlenc: CipherReference %q: %w", uri, err)
		}
		return payload, false, nil
	}
	return nil, false, errors.New("xmlenc: CipherData has neither CipherValue nor CipherReference")
}

// resolveContentKey recovers the content-encryption key from the
// EncryptedData's KeyInfo and the options.
func resolveContentKey(ed *xmldom.Element, algorithm string, opts DecryptOptions) ([]byte, error) {
	ki := ed.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyInfo")
	if ki == nil {
		if opts.Key != nil {
			return opts.Key, nil
		}
		return nil, errors.New("xmlenc: no KeyInfo and no shared key configured")
	}

	if eks := ki.ChildElementsNamed(xmlsecuri.EncNamespace, "EncryptedKey"); len(eks) > 0 {
		// Multi-recipient data carries one EncryptedKey per addressee;
		// try each until one opens with our key material.
		var lastErr error
		for _, ek := range eks {
			key, err := recoverEncryptedKey(ek, opts)
			if err == nil {
				return key, nil
			}
			lastErr = err
		}
		return nil, lastErr
	}

	if opts.Key != nil {
		return opts.Key, nil
	}
	if kn := ki.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyName"); kn != nil && opts.KeyByName != nil {
		key, err := opts.KeyByName(kn.Text())
		if err != nil {
			return nil, fmt.Errorf("xmlenc: KeyName %q: %w", kn.Text(), err)
		}
		return key, nil
	}
	return nil, errors.New("xmlenc: cannot resolve content-encryption key")
}

func recoverEncryptedKey(ek *xmldom.Element, opts DecryptOptions) ([]byte, error) {
	em := ek.FirstChildNamed(xmlsecuri.EncNamespace, "EncryptionMethod")
	if em == nil {
		return nil, errors.New("xmlenc: EncryptedKey missing EncryptionMethod")
	}
	algorithm := em.AttrValue("Algorithm")
	ct, err := cipherValueOf(ek)
	if err != nil {
		return nil, err
	}
	switch algorithm {
	case xmlsecuri.KeyTransportRSA15, xmlsecuri.KeyTransportRSAOAEP:
		if opts.RSAKey == nil {
			return nil, errors.New("xmlenc: EncryptedKey uses RSA transport but no RSA key configured")
		}
		return recoverTransportedKey(algorithm, opts.RSAKey, ct)
	case xmlsecuri.KeyWrapAES128, xmlsecuri.KeyWrapAES192, xmlsecuri.KeyWrapAES256:
		kek := opts.KEK
		if kek == nil && opts.KeyByName != nil {
			if inner := ek.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyInfo"); inner != nil {
				if kn := inner.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyName"); kn != nil {
					kek, err = opts.KeyByName(kn.Text())
					if err != nil {
						return nil, fmt.Errorf("xmlenc: KEK %q: %w", kn.Text(), err)
					}
				}
			}
		}
		if kek == nil {
			return nil, errors.New("xmlenc: EncryptedKey uses AES key wrap but no KEK configured")
		}
		return unwrapWithAlgorithm(algorithm, kek, ct)
	default:
		return nil, fmt.Errorf("%w: EncryptedKey algorithm %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

func cipherValueOf(el *xmldom.Element) ([]byte, error) {
	cd := el.FirstChildNamed(xmlsecuri.EncNamespace, "CipherData")
	if cd == nil {
		return nil, errors.New("xmlenc: missing CipherData")
	}
	cv := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherValue")
	if cv == nil {
		return nil, errors.New("xmlenc: missing CipherValue")
	}
	return xmldom.DecodeBase64(cv.Text())
}
