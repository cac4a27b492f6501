package xmlenc

import (
	"crypto/rsa"
	"encoding/base64"
	"errors"
	"fmt"

	"discsec/internal/c14n"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// Prefix is the namespace prefix used for generated xenc markup.
const Prefix = "xenc"

// dsPrefix is the prefix used for ds:KeyInfo structures inside
// EncryptedData.
const dsPrefix = "ds"

// EncryptOptions configures encryption of an XML target or octet stream.
type EncryptOptions struct {
	// Algorithm is the block encryption identifier; defaults to
	// AES-256-GCM.
	Algorithm string

	// Key is the content-encryption key. When nil, a fresh key is
	// generated; delivering it then requires RecipientKey or KEK.
	Key []byte

	// RecipientKey, when set, emits an EncryptedKey transporting the
	// content key under RSA (KeyTransport algorithm).
	RecipientKey *rsa.PublicKey
	// Recipients, when set, emits one EncryptedKey per entry so a
	// single EncryptedData opens for any of several player devices
	// (each with its own key pair). May be combined with RecipientKey.
	Recipients []Recipient
	// KeyTransport selects rsa-1_5 or rsa-oaep-mgf1p; defaults to
	// RSA-OAEP.
	KeyTransport string

	// KEK, when set, emits an EncryptedKey wrapping the content key
	// with AES key wrap (KeyWrap algorithm).
	KEK []byte
	// KeyWrap selects kw-aes128/192/256; defaults to the wrap size
	// matching the KEK length.
	KeyWrap string

	// KeyName labels the key-encryption key (or, without any
	// EncryptedKey, the shared content key) for the recipient.
	KeyName string

	// DataID sets the Id attribute on the generated EncryptedData.
	DataID string
	// MimeType annotates arbitrary-octet EncryptedData.
	MimeType string
}

// Recipient is one addressee of a multi-recipient encryption: a named
// device or party with its own RSA public key.
type Recipient struct {
	// Name labels the recipient's key (emitted as ds:KeyName inside
	// the EncryptedKey so devices can pick theirs cheaply).
	Name string
	// Key is the recipient's RSA public key.
	Key *rsa.PublicKey
}

func (o *EncryptOptions) normalize() error {
	if o.Algorithm == "" {
		o.Algorithm = xmlsecuri.EncAES256GCM
	}
	if _, err := KeySize(o.Algorithm); err != nil {
		return err
	}
	if (o.RecipientKey != nil || len(o.Recipients) > 0) && o.KEK != nil {
		return errors.New("xmlenc: RSA recipients and KEK are mutually exclusive")
	}
	for _, r := range o.Recipients {
		if r.Key == nil {
			return fmt.Errorf("xmlenc: recipient %q has no key", r.Name)
		}
	}
	if (o.RecipientKey != nil || len(o.Recipients) > 0) && o.KeyTransport == "" {
		o.KeyTransport = xmlsecuri.KeyTransportRSAOAEP
	}
	if o.KEK != nil && o.KeyWrap == "" {
		switch len(o.KEK) {
		case 16:
			o.KeyWrap = xmlsecuri.KeyWrapAES128
		case 24:
			o.KeyWrap = xmlsecuri.KeyWrapAES192
		case 32:
			o.KeyWrap = xmlsecuri.KeyWrapAES256
		default:
			return fmt.Errorf("xmlenc: KEK length %d matches no AES key wrap", len(o.KEK))
		}
	}
	if o.Key == nil && o.RecipientKey == nil && len(o.Recipients) == 0 && o.KEK == nil {
		return errors.New("xmlenc: no content key and no key delivery mechanism configured")
	}
	return nil
}

// contentKey returns the key to encrypt with, generating one when the
// options call for key delivery.
func (o *EncryptOptions) contentKey() ([]byte, bool, error) {
	if o.Key != nil {
		want, err := KeySize(o.Algorithm)
		if err != nil {
			return nil, false, err
		}
		if len(o.Key) != want {
			return nil, false, fmt.Errorf("xmlenc: %s requires a %d-byte key, have %d", o.Algorithm, want, len(o.Key))
		}
		return o.Key, false, nil
	}
	k, err := GenerateKey(o.Algorithm)
	return k, true, err
}

// EncryptElement replaces el (which must have a parent) with an
// EncryptedData element of Type Element, per the paper's Fig. 8 manifest
// encryption. The serialized form is made namespace-self-contained via
// inclusive canonicalization so decryption can occur in any context.
func EncryptElement(el *xmldom.Element, opts EncryptOptions) (*xmldom.Element, error) {
	if el == nil {
		return nil, errors.New("xmlenc: nil element")
	}
	parent := el.ParentElement()
	if parent == nil {
		return nil, errors.New("xmlenc: EncryptElement target must have a parent; use EncryptElementDetached for roots")
	}
	plaintext, err := c14n.Canonicalize(el, c14n.Options{WithComments: true})
	if err != nil {
		return nil, err
	}
	ed, err := buildEncryptedData(plaintext, xmlsecuri.EncTypeElement, opts)
	if err != nil {
		return nil, err
	}
	if !parent.ReplaceChild(el, ed) {
		return nil, errors.New("xmlenc: internal: failed to replace target element")
	}
	return ed, nil
}

// EncryptElementDetached encrypts el without requiring a parent,
// returning a standalone document whose root is the EncryptedData.
func EncryptElementDetached(el *xmldom.Element, opts EncryptOptions) (*xmldom.Document, error) {
	if el == nil {
		return nil, errors.New("xmlenc: nil element")
	}
	plaintext, err := c14n.Canonicalize(el, c14n.Options{WithComments: true})
	if err != nil {
		return nil, err
	}
	ed, err := buildEncryptedData(plaintext, xmlsecuri.EncTypeElement, opts)
	if err != nil {
		return nil, err
	}
	doc := &xmldom.Document{}
	doc.SetRoot(ed)
	return doc, nil
}

// EncryptContent replaces the children of el with an EncryptedData of
// Type Content, leaving el's own tag (and any signature on outer
// structure) in the clear — the paper's partial-encryption scenario.
func EncryptContent(el *xmldom.Element, opts EncryptOptions) (*xmldom.Element, error) {
	if el == nil {
		return nil, errors.New("xmlenc: nil element")
	}
	var plaintext []byte
	for _, c := range el.Children {
		b, err := serializeNodeSelfContained(c)
		if err != nil {
			return nil, err
		}
		plaintext = append(plaintext, b...)
	}
	ed, err := buildEncryptedData(plaintext, xmlsecuri.EncTypeContent, opts)
	if err != nil {
		return nil, err
	}
	for _, c := range append([]xmldom.Node(nil), el.Children...) {
		el.RemoveChild(c)
	}
	el.AppendChild(ed)
	return ed, nil
}

// EncryptOctets encrypts arbitrary binary content (the paper's Fig. 7
// track target), returning a standalone EncryptedData document.
func EncryptOctets(data []byte, opts EncryptOptions) (*xmldom.Document, error) {
	ed, err := buildEncryptedData(data, "", opts)
	if err != nil {
		return nil, err
	}
	doc := &xmldom.Document{}
	doc.SetRoot(ed)
	return doc, nil
}

// EncryptOctetsToReference encrypts binary content but stores only a
// CipherReference in the EncryptedData, returning the external
// ciphertext separately. This keeps bulky payloads (transport streams)
// out of the XML: the paper's "referenced resources could be encrypted
// as well" (§4) with the markup staying compact.
func EncryptOctetsToReference(data []byte, uri string, opts EncryptOptions) (*xmldom.Document, []byte, error) {
	doc, err := EncryptOctets(data, opts)
	if err != nil {
		return nil, nil, err
	}
	ed := doc.Root()
	cd := ed.FirstChildNamed(xmlsecuri.EncNamespace, "CipherData")
	cv := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherValue")
	payload, err := xmldom.DecodeBase64(cv.Text())
	if err != nil {
		return nil, nil, err
	}
	cd.RemoveChild(cv)
	cd.CreateChild(Prefix+":CipherReference").SetAttr("URI", uri)
	return doc, payload, nil
}

func serializeNodeSelfContained(n xmldom.Node) ([]byte, error) {
	switch t := n.(type) {
	case *xmldom.Element:
		return c14n.Canonicalize(t, c14n.Options{WithComments: true})
	default:
		// Serialize non-element nodes via the standard writer by
		// wrapping and unwrapping.
		wrapper := xmldom.NewElement("w")
		wrapper.AppendChild(t.CloneNode())
		s := wrapper.String()
		return []byte(s[len("<w>") : len(s)-len("</w>")]), nil
	}
}

// buildEncryptedData assembles the xenc:EncryptedData element.
func buildEncryptedData(plaintext []byte, dataType string, opts EncryptOptions) (*xmldom.Element, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	key, generated, err := opts.contentKey()
	if err != nil {
		return nil, err
	}
	if generated && opts.RecipientKey == nil && len(opts.Recipients) == 0 && opts.KEK == nil {
		return nil, errors.New("xmlenc: generated key has no delivery mechanism")
	}

	payload, err := encryptOctets(opts.Algorithm, key, plaintext)
	if err != nil {
		return nil, err
	}

	ed := xmldom.NewElement(Prefix + ":EncryptedData")
	ed.DeclareNamespace(Prefix, xmlsecuri.EncNamespace)
	if dataType != "" {
		ed.SetAttr("Type", dataType)
	}
	if opts.DataID != "" {
		ed.SetAttr("Id", opts.DataID)
	}
	if opts.MimeType != "" {
		ed.SetAttr("MimeType", opts.MimeType)
	}
	ed.CreateChild(Prefix+":EncryptionMethod").SetAttr("Algorithm", opts.Algorithm)

	ki, err := buildEncKeyInfo(key, opts)
	if err != nil {
		return nil, err
	}
	if ki != nil {
		ed.AppendChild(ki)
	}

	cd := ed.CreateChild(Prefix + ":CipherData")
	cd.CreateChild(Prefix + ":CipherValue").SetText(base64.StdEncoding.EncodeToString(payload))
	return ed, nil
}

// buildEncKeyInfo emits the ds:KeyInfo for an EncryptedData: an
// EncryptedKey under RSA transport or AES wrap, or a bare KeyName hint.
func buildEncKeyInfo(contentKey []byte, opts EncryptOptions) (*xmldom.Element, error) {
	if opts.RecipientKey == nil && len(opts.Recipients) == 0 && opts.KEK == nil && opts.KeyName == "" {
		return nil, nil
	}
	ki := xmldom.NewElement(dsPrefix + ":KeyInfo")
	ki.DeclareNamespace(dsPrefix, xmlsecuri.DSigNamespace)

	if opts.RecipientKey == nil && len(opts.Recipients) == 0 && opts.KEK == nil {
		ki.CreateChild(dsPrefix + ":KeyName").SetText(opts.KeyName)
		return ki, nil
	}

	appendEncryptedKey := func(alg string, ct []byte, keyName string) {
		ek := ki.CreateChild(Prefix + ":EncryptedKey")
		ek.CreateChild(Prefix+":EncryptionMethod").SetAttr("Algorithm", alg)
		if keyName != "" {
			inner := ek.CreateChild(dsPrefix + ":KeyInfo")
			inner.CreateChild(dsPrefix + ":KeyName").SetText(keyName)
		}
		cd := ek.CreateChild(Prefix + ":CipherData")
		cd.CreateChild(Prefix + ":CipherValue").SetText(base64.StdEncoding.EncodeToString(ct))
	}

	switch {
	case opts.KEK != nil:
		ct, err := wrapWithAlgorithm(opts.KeyWrap, opts.KEK, contentKey)
		if err != nil {
			return nil, err
		}
		appendEncryptedKey(opts.KeyWrap, ct, opts.KeyName)
	default:
		if opts.RecipientKey != nil {
			ct, err := transportKey(opts.KeyTransport, opts.RecipientKey, contentKey)
			if err != nil {
				return nil, err
			}
			appendEncryptedKey(opts.KeyTransport, ct, opts.KeyName)
		}
		for _, r := range opts.Recipients {
			ct, err := transportKey(opts.KeyTransport, r.Key, contentKey)
			if err != nil {
				return nil, err
			}
			appendEncryptedKey(opts.KeyTransport, ct, r.Name)
		}
	}
	return ki, nil
}
