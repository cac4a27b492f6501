package xmlenc

import (
	"bytes"
	"crypto/aes"
	"crypto/rsa"
	"errors"
	"fmt"
	"strings"
	"sync"

	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// DecryptOptions configures decryption of EncryptedData structures.
// Every decryption takes one path, DecryptOctets or DecryptElement over
// decryptData: the ciphertext is resident (an inline CipherValue, or the
// bytes CipherResolver returns) and the plaintext comes back whole, so
// none is released before a CBC padding or GCM tag check has passed.
type DecryptOptions struct {
	// Key is the shared content-encryption key, used when the
	// EncryptedData carries no EncryptedKey.
	Key []byte
	// RSAKey recovers keys transported under rsa-1_5 / rsa-oaep.
	RSAKey *rsa.PrivateKey
	// KEK unwraps keys wrapped under kw-aes*.
	KEK []byte
	// KeyByName resolves a ds:KeyName hint to a content key (no
	// EncryptedKey) or a KEK (with AES key wrap). The name it is given
	// is a copy it may keep.
	KeyByName func(name string) ([]byte, error)
	// CipherResolver dereferences xenc:CipherReference URIs (ciphertext
	// stored outside the document, e.g. in the disc image).
	CipherResolver func(uri string) ([]byte, error)
	// Recorder, when non-nil, receives one obs.StageDecrypt span per
	// EncryptedData decryption.
	Recorder *obs.Recorder

	// sched is Key's AES expansion (ExpandKey); nil until expanded.
	sched *keySchedule
}

// ExpandKey returns a copy of o whose decryptions under Key share one
// AES key schedule, expanded here, instead of expanding Key for every
// EncryptedData; copies of the result share it too. A long-lived holder
// of the options (a library's opener, a player engine) expands them
// once. Key's bytes are copied, so a Key changed afterwards is expanded
// per use again. Without a Key of an AES size, o comes back unchanged.
func (o DecryptOptions) ExpandKey() DecryptOptions {
	if block, err := aes.NewCipher(o.Key); err == nil {
		o.sched = &keySchedule{key: bytes.Clone(o.Key), block: block}
	}
	return o
}

// maxPooledPayload caps the capacity of a CipherValue decode buffer
// that goes back to payloadPool: one huge encrypted region does not pin
// its buffer in the pool.
const maxPooledPayload = 256 << 10

// payloadPool recycles DecryptElement's decode buffers. A buffer holds
// the decoded ciphertext, decrypted in place, and then the
// whitespace-free copy of the CipherValue text it was decoded from.
var payloadPool = sync.Pool{New: newPayloadBuf}

// newPayloadBuf is the pool's first-touch factory: a declared function
// so a decryption never builds a closure.
func newPayloadBuf() any { return new([]byte) }

// putPayloadBuf zeroes the decoded payload, plaintext included, and
// pools the buffer unless it grew past maxPooledPayload.
func putPayloadBuf(buf *[]byte) {
	clear(*buf)
	*buf = (*buf)[:0]
	if cap(*buf) <= maxPooledPayload {
		payloadPool.Put(buf)
	}
}

// IsEncryptedData reports whether el is an xenc:EncryptedData element.
func IsEncryptedData(el *xmldom.Element) bool {
	return el != nil && el.Local == "EncryptedData" && el.NamespaceURI() == xmlsecuri.EncNamespace
}

// AppendEncryptedData appends every xenc:EncryptedData of doc, in
// document order, to dst and returns the extended slice. EncryptedData
// contents are opaque and not searched. A caller that only ranges over
// the structures passes a small stack buffer, so the search allocates
// nothing.
func AppendEncryptedData(dst []*xmldom.Element, doc *xmldom.Document) []*xmldom.Element {
	root := doc.Root()
	if root == nil {
		return dst
	}
	return appendEncryptedData(dst, root)
}

func appendEncryptedData(dst []*xmldom.Element, e *xmldom.Element) []*xmldom.Element {
	if IsEncryptedData(e) {
		return append(dst, e)
	}
	for _, c := range e.Children {
		if ce, ok := c.(*xmldom.Element); ok {
			dst = appendEncryptedData(dst, ce)
		}
	}
	return dst
}

// DecryptOctets recovers the plaintext octets of an EncryptedData
// without altering the tree — used for arbitrary binary payloads (tracks)
// and as the common lower half of structural decryption.
func DecryptOctets(ed *xmldom.Element, opts DecryptOptions) ([]byte, error) {
	return decryptData(ed, &opts, nil)
}

// decryptData is DecryptOctets. With a scratch buffer, an inline
// CipherValue is decoded into it (*scratch is left holding the decoded
// payload) and the plaintext returned lies inside it; without one, the
// payload is a fresh allocation the caller keeps.
func decryptData(ed *xmldom.Element, opts *DecryptOptions, scratch *[]byte) ([]byte, error) {
	defer opts.Recorder.Start(obs.StageDecrypt).End()
	if !IsEncryptedData(ed) {
		return nil, errors.New("xmlenc: element is not xenc:EncryptedData")
	}
	em := ed.FirstChildNamed(xmlsecuri.EncNamespace, "EncryptionMethod")
	if em == nil {
		return nil, errors.New("xmlenc: EncryptedData missing EncryptionMethod")
	}
	algorithm := em.AttrValue("Algorithm")

	payload, owned, err := cipherPayload(ed, opts, scratch)
	if err != nil {
		return nil, err
	}
	key, err := resolveContentKey(ed, algorithm, opts)
	if err != nil {
		return nil, err
	}
	return decryptOctets(algorithm, key, opts.sched, payload, owned)
}

// DecryptElement decrypts an EncryptedData of Type Element or Content in
// place: the EncryptedData node, which belongs to doc, is replaced by
// the recovered nodes, parsed into doc's arena so doc's Release hands
// them back with the rest of the tree. An inline CipherValue is decoded
// and decrypted in a pooled buffer, zeroed and recycled once the
// plaintext is parsed; DecryptOctets returns the octets themselves.
func DecryptElement(doc *xmldom.Document, ed *xmldom.Element, opts DecryptOptions) error {
	parent := ed.ParentElement()
	if parent == nil {
		return errors.New("xmlenc: DecryptElement requires the EncryptedData to have a parent; use DecryptOctets for detached data")
	}
	dataType := ed.AttrValue("Type")
	if dataType != xmlsecuri.EncTypeElement && dataType != xmlsecuri.EncTypeContent {
		return fmt.Errorf("xmlenc: DecryptElement requires Type Element or Content, have %q", dataType)
	}
	buf := payloadPool.Get().(*[]byte)
	defer putPayloadBuf(buf)
	plaintext, err := decryptData(ed, &opts, buf)
	if err != nil {
		return err
	}
	nodes, err := doc.ParseFragment(plaintext)
	if err != nil {
		return fmt.Errorf("xmlenc: decrypted plaintext is not well-formed XML: %w", err)
	}
	if dataType == xmlsecuri.EncTypeElement {
		if len(nodes) != 1 {
			return fmt.Errorf("xmlenc: Element-typed plaintext yielded %d nodes", len(nodes))
		}
		if _, ok := nodes[0].(*xmldom.Element); !ok {
			return errors.New("xmlenc: Element-typed plaintext is not an element")
		}
	}
	idx := parent.ChildIndex(ed)
	parent.RemoveChild(ed)
	for i, n := range nodes {
		parent.InsertChildAt(idx+i, n)
	}
	return nil
}

// DecryptAll decrypts every EncryptedData of Type Element/Content in the
// document, repeating until none remain (handling super-encryption).
// It returns the number of structures decrypted.
func DecryptAll(doc *xmldom.Document, opts DecryptOptions) (int, error) {
	total := 0
	var buf [16]*xmldom.Element
	for pass := 0; pass < 32; pass++ {
		eds := AppendEncryptedData(buf[:0], doc)
		structural := eds[:0]
		for _, ed := range eds {
			tp := ed.AttrValue("Type")
			if tp == xmlsecuri.EncTypeElement || tp == xmlsecuri.EncTypeContent {
				structural = append(structural, ed)
			}
		}
		if len(structural) == 0 {
			return total, nil
		}
		for _, ed := range structural {
			if err := DecryptElement(doc, ed, opts); err != nil {
				return total, err
			}
			total++
		}
	}
	return total, errors.New("xmlenc: super-encryption nesting too deep")
}

// cipherPayload extracts the raw ciphertext of an EncryptedData from
// either an inline CipherValue or an external CipherReference. owned
// reports that the payload was decoded into a buffer the caller may
// decrypt in place: *scratch, which is left holding it, or a fresh one
// when scratch is nil. A resolver's bytes belong to the resolver (a
// disc image, say) and are never owned.
func cipherPayload(ed *xmldom.Element, opts *DecryptOptions, scratch *[]byte) (payload []byte, owned bool, err error) {
	cd := ed.FirstChildNamed(xmlsecuri.EncNamespace, "CipherData")
	if cd == nil {
		return nil, false, errors.New("xmlenc: EncryptedData missing CipherData")
	}
	if cv := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherValue"); cv != nil {
		if scratch == nil {
			payload, err = xmldom.DecodeBase64(cv.Text())
		} else {
			payload, err = xmldom.AppendDecodeBase64((*scratch)[:0], cv.Text())
			*scratch = payload
		}
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
func resolveContentKey(ed *xmldom.Element, algorithm string, opts *DecryptOptions) ([]byte, error) {
	ki := ed.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyInfo")
	if ki == nil {
		if opts.Key != nil {
			return opts.Key, nil
		}
		return nil, errors.New("xmlenc: no KeyInfo and no shared key configured")
	}

	if eks := ki.AppendChildElementsNamed(nil, xmlsecuri.EncNamespace, "EncryptedKey"); len(eks) > 0 {
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
		key, err := opts.KeyByName(strings.Clone(kn.Text()))
		if err != nil {
			return nil, fmt.Errorf("xmlenc: KeyName %q: %w", kn.Text(), err)
		}
		return key, nil
	}
	return nil, errors.New("xmlenc: cannot resolve content-encryption key")
}

func recoverEncryptedKey(ek *xmldom.Element, opts *DecryptOptions) ([]byte, error) {
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
					kek, err = opts.KeyByName(strings.Clone(kn.Text()))
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
