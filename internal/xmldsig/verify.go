package xmldsig

import (
	"bytes"
	"crypto"
	"crypto/sha512"
	"crypto/subtle"
	"crypto/x509"
	"errors"
	"fmt"
	"sync"

	"discsec/internal/c14n"
	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// Verification errors distinguished for callers (the player bars
// execution on any of them, but reporting differs).
var (
	// ErrNoSignature indicates the document carries no ds:Signature.
	ErrNoSignature = errors.New("xmldsig: no Signature element found")
	// ErrDigestMismatch indicates a Reference failed digest validation
	// (content was modified after signing).
	ErrDigestMismatch = errors.New("xmldsig: reference digest mismatch")
	// ErrSignatureInvalid indicates SignatureValue failed cryptographic
	// validation.
	ErrSignatureInvalid = errors.New("xmldsig: signature validation failed")
	// ErrNoVerificationKey indicates no key could be resolved for the
	// signature.
	ErrNoVerificationKey = errors.New("xmldsig: no verification key available")
	// ErrUntrustedCertificate indicates the embedded certificate chain
	// does not lead to a trusted root.
	ErrUntrustedCertificate = errors.New("xmldsig: certificate not trusted")
)

// VerifyOptions configures signature validation.
type VerifyOptions struct {
	// Key pins the verification key, overriding KeyInfo hints.
	Key crypto.PublicKey
	// HMACKey supplies the shared secret for HMAC signature methods.
	HMACKey []byte
	// KeyByName resolves a ds:KeyName hint to a public key.
	KeyByName func(name string) (crypto.PublicKey, error)
	// Roots, when non-nil, requires that an embedded certificate chain
	// validate to one of these roots before its key is used; with a
	// nil pool embedded certificates are used without chain validation
	// (callers that need trust decisions should set Roots).
	Roots *x509.CertPool
	// Intermediates supplies additional chain-building certificates.
	Intermediates *x509.CertPool
	// Resolver dereferences external Reference URIs.
	Resolver ExternalResolver
	// AcceptedSignatureMethods, when non-empty, restricts the
	// algorithms a verifier accepts (algorithm-agility hardening).
	AcceptedSignatureMethods []string
	// Recorder, when non-nil, receives per-reference digest spans
	// (obs.StageDigest), key resolution and SignatureValue validation
	// spans (obs.StageSignature), and the c14n spans beneath them.
	Recorder *obs.Recorder
}

// ReferenceResult reports validation of one ds:Reference.
type ReferenceResult struct {
	URI   string
	Valid bool
}

// VerifyResult reports a completed core validation.
type VerifyResult struct {
	// SignatureMethod is the algorithm that validated the signature.
	SignatureMethod string
	// References holds per-reference digest results.
	References []ReferenceResult
	// KeyInfo carries the parsed key hints from the signature. Its
	// certificates, and so SignerKey when it is the leaf's, are shared
	// with every result whose signature embeds the same DER: they are
	// read-only.
	KeyInfo *ParsedKeyInfo
	// SignerKey is the public key that validated SignatureValue (nil
	// for HMAC signatures). Callers deriving cache or trust identities
	// should fingerprint this key rather than the KeyInfo hints: it is
	// the key that actually checked out.
	SignerKey crypto.PublicKey
	// CertificateChainValidated reports whether an embedded X.509
	// chain was validated against the configured roots.
	CertificateChainValidated bool

	// signerFingerprint is KeyFingerprint(SignerKey), computed once
	// during verification: the leaf's memoized fingerprint when SignerKey
	// is the embedded leaf's key.
	signerFingerprint string
}

// SignerKeyFingerprint returns KeyFingerprint(r.SignerKey), as Verify
// computed it to key the signature memo. For a key from an embedded
// leaf certificate it is the fingerprint computed once, when the
// certificate was first parsed.
func (r *VerifyResult) SignerKeyFingerprint() string { return r.signerFingerprint }

// FindSignature locates the first ds:Signature element in the document.
func FindSignature(doc *xmldom.Document) *xmldom.Element {
	root := doc.Root()
	if root == nil {
		return nil
	}
	if root.NamespaceURI() == xmlsecuri.DSigNamespace && root.Local == "Signature" {
		return root
	}
	var found *xmldom.Element
	root.Walk(func(n xmldom.Node) bool {
		if found != nil {
			return false
		}
		e, ok := n.(*xmldom.Element)
		if !ok {
			return true
		}
		if e.Local == "Signature" && e.NamespaceURI() == xmlsecuri.DSigNamespace {
			found = e
			return false
		}
		return true
	})
	return found
}

// AppendSignatures appends every ds:Signature element of doc, in
// document order, to dst and returns the extended slice. A signature's
// own subtree is not searched: nested signatures are its business. A
// caller that only ranges over the signatures passes a small stack
// buffer, so the search allocates nothing.
func AppendSignatures(dst []*xmldom.Element, doc *xmldom.Document) []*xmldom.Element {
	root := doc.Root()
	if root == nil {
		return dst
	}
	return appendSignatures(dst, root)
}

func appendSignatures(dst []*xmldom.Element, e *xmldom.Element) []*xmldom.Element {
	if e.Local == "Signature" && e.NamespaceURI() == xmlsecuri.DSigNamespace {
		return append(dst, e)
	}
	for _, c := range e.Children {
		if ce, ok := c.(*xmldom.Element); ok {
			dst = appendSignatures(dst, ce)
		}
	}
	return dst
}

// VerifyDocument locates the first signature in doc and validates it.
func VerifyDocument(doc *xmldom.Document, opts VerifyOptions) (*VerifyResult, error) {
	sig := FindSignature(doc)
	if sig == nil {
		return nil, ErrNoSignature
	}
	return Verify(doc, sig, opts)
}

// Verify performs XML-DSig core validation of the given ds:Signature
// element within its document: reference validation (every digest must
// match) followed by signature validation over the canonicalized
// SignedInfo.
func Verify(doc *xmldom.Document, sig *xmldom.Element, opts VerifyOptions) (*VerifyResult, error) {
	if sig == nil {
		return nil, ErrNoSignature
	}
	si := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignedInfo")
	if si == nil {
		return nil, errors.New("xmldsig: Signature missing SignedInfo")
	}
	svEl := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "SignatureValue")
	if svEl == nil {
		return nil, errors.New("xmldsig: Signature missing SignatureValue")
	}
	cmEl := si.FirstChildNamed(xmlsecuri.DSigNamespace, "CanonicalizationMethod")
	smEl := si.FirstChildNamed(xmlsecuri.DSigNamespace, "SignatureMethod")
	if cmEl == nil || smEl == nil {
		return nil, errors.New("xmldsig: SignedInfo missing CanonicalizationMethod or SignatureMethod")
	}
	c14nURI := cmEl.AttrValue("Algorithm")
	sigMethod := smEl.AttrValue("Algorithm")
	if len(opts.AcceptedSignatureMethods) > 0 && !contains(opts.AcceptedSignatureMethods, sigMethod) {
		return nil, fmt.Errorf("xmldsig: signature method %q not accepted by policy", sigMethod)
	}

	refs := si.AppendChildElementsNamed(make([]*xmldom.Element, 0, 4), xmlsecuri.DSigNamespace, "Reference")
	if len(refs) == 0 {
		return nil, errors.New("xmldsig: SignedInfo contains no References")
	}
	if len(refs) > MaxReferences {
		return nil, fmt.Errorf("xmldsig: %d References exceeds limit %d", len(refs), MaxReferences)
	}

	result := &VerifyResult{SignatureMethod: sigMethod, References: make([]ReferenceResult, 0, len(refs))}

	// Reference validation.
	for _, refEl := range refs {
		rr, err := verifyReference(doc, sig, refEl, opts)
		if err != nil {
			if errors.Is(err, ErrDigestMismatch) {
				result.References = append(result.References, rr)
				return result, err
			}
			return nil, err
		}
		result.References = append(result.References, rr)
	}

	// Signature validation.
	siOpts, err := c14n.ByURI(c14nURI)
	if err != nil {
		return nil, err
	}
	siOpts.Recorder = opts.Recorder
	siBuf := signedInfoPool.Get().(*bytes.Buffer)
	defer putSignedInfoBuf(siBuf)
	if err := c14n.WriteExcept(siBuf, si, nil, siOpts); err != nil {
		return nil, err
	}
	siOctets := siBuf.Bytes()
	var sigBuf [signatureTextBuf]byte
	sigVal, err := xmldom.AppendDecodeBase64(sigBuf[:0], svEl.Text())
	if err != nil {
		return nil, fmt.Errorf("xmldsig: SignatureValue: %w", err)
	}

	defer opts.Recorder.Start(obs.StageSignature).End()
	kiEl := sig.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyInfo")
	ki, err := ParseKeyInfo(kiEl)
	if err != nil {
		return nil, err
	}
	result.KeyInfo = ki

	pub, chainValidated, err := resolveVerificationKey(ki, opts)
	if err != nil {
		return result, err
	}
	result.CertificateChainValidated = chainValidated

	if isHMACMethod(sigMethod) {
		if err := verifyHMAC(sigMethod, siOctets, sigVal, opts.HMACKey); err != nil {
			return result, fmt.Errorf("%w: %v", ErrSignatureInvalid, err)
		}
		return result, nil
	}
	if pub == nil {
		return result, ErrNoVerificationKey
	}
	fp := ki.leafFingerprint
	if opts.Key != nil || len(ki.Certificates) == 0 {
		// resolveVerificationKey did not take the leaf's key.
		fp = KeyFingerprint(pub)
	}
	if err := checkSignatureValue(sigMethod, siOctets, sigVal, pub, fp, opts.Recorder); err != nil {
		return result, fmt.Errorf("%w: %v", ErrSignatureInvalid, err)
	}
	result.SignerKey = pub
	result.signerFingerprint = fp
	return result, nil
}

// verifyReference validates one ds:Reference: dereference, transform
// chain, digest, constant-time compare. A digest mismatch returns the
// (invalid) ReferenceResult alongside ErrDigestMismatch so callers can
// report which reference failed; structural errors return a zero
// result.
func verifyReference(doc *xmldom.Document, sig, refEl *xmldom.Element, opts VerifyOptions) (ReferenceResult, error) {
	defer opts.Recorder.Start(obs.StageDigest).End()
	uri := refEl.AttrValue("URI")
	dmEl := refEl.FirstChildNamed(xmlsecuri.DSigNamespace, "DigestMethod")
	dvEl := refEl.FirstChildNamed(xmlsecuri.DSigNamespace, "DigestValue")
	if dmEl == nil || dvEl == nil {
		return ReferenceResult{}, fmt.Errorf("xmldsig: Reference %q missing DigestMethod or DigestValue", uri)
	}
	h, err := HashByDigestURI(dmEl.AttrValue("Algorithm"))
	if err != nil {
		return ReferenceResult{}, err
	}
	var wantBuf [digestTextBuf]byte
	want, err := xmldom.AppendDecodeBase64(wantBuf[:0], dvEl.Text())
	if err != nil {
		return ReferenceResult{}, fmt.Errorf("xmldsig: Reference %q DigestValue: %w", uri, err)
	}
	valid, err := matchDigest(doc, sig, refEl, uri, h, want, opts.Resolver, opts.Recorder)
	if err != nil {
		return ReferenceResult{}, err
	}
	rr := ReferenceResult{URI: uri, Valid: valid}
	if !valid {
		return rr, fmt.Errorf("%w: URI %q", ErrDigestMismatch, uri)
	}
	return rr, nil
}

// digestTextBuf is a stack buffer that decodes a SHA-512 DigestValue,
// the longest this module verifies, with room for its whitespace-free
// copy (xmldom.AppendDecodeBase64).
const digestTextBuf = 192

// matchDigest dereferences uri, runs refEl's transform chain over it and
// reports whether the digest under h equals want, compared in constant
// time. The chain and the digest live on the stack.
func matchDigest(doc *xmldom.Document, sig, refEl *xmldom.Element, uri string, h crypto.Hash, want []byte, resolver ExternalResolver, rec *obs.Recorder) (bool, error) {
	data, err := dereference(uri, doc, resolver)
	if err != nil {
		return false, err
	}
	var chainBuf [MaxTransforms]transformSpec
	chain, err := appendTransforms(chainBuf[:0], refEl)
	if err != nil {
		return false, err
	}
	var sumBuf [sha512.Size]byte
	got, err := appendReferenceDigest(sumBuf[:0], h, data, chain, sig, rec)
	if err != nil {
		return false, err
	}
	return subtle.ConstantTimeCompare(got, want) == 1, nil
}

// signatureTextBuf is a stack buffer that decodes an RSA-2048
// SignatureValue with room for its whitespace-free copy; a longer one
// decodes on the heap.
const signatureTextBuf = 640

// maxPooledSignedInfo caps the buffers signedInfoPool keeps: one huge
// SignedInfo does not pin its buffer in the pool.
const maxPooledSignedInfo = 64 << 10

// signedInfoPool recycles the buffers Verify canonicalizes SignedInfo
// into.
var signedInfoPool = sync.Pool{New: newSignedInfoBuf}

// newSignedInfoBuf is the pool's first-touch factory: a declared
// function so Verify never builds a closure.
func newSignedInfoBuf() any { return new(bytes.Buffer) }

func putSignedInfoBuf(b *bytes.Buffer) {
	b.Reset()
	if b.Cap() <= maxPooledSignedInfo {
		signedInfoPool.Put(b)
	}
}

func isHMACMethod(uri string) bool {
	return uri == xmlsecuri.SigHMACSHA1 || uri == xmlsecuri.SigHMACSHA256
}

// resolveVerificationKey selects the validation key: an explicit pinned
// key wins; otherwise embedded certificates (chain-validated when Roots
// is set), a bare KeyValue, and finally a KeyName lookup.
func resolveVerificationKey(ki *ParsedKeyInfo, opts VerifyOptions) (crypto.PublicKey, bool, error) {
	if opts.Key != nil {
		return opts.Key, false, nil
	}
	if ki == nil {
		return nil, false, nil
	}
	if len(ki.Certificates) > 0 {
		leaf := ki.Certificates[0]
		if opts.Roots != nil {
			if err := validateChain(ki, opts); err != nil {
				return nil, false, err
			}
			return leaf.PublicKey, true, nil
		}
		return leaf.PublicKey, false, nil
	}
	if ki.KeyValue != nil {
		return ki.KeyValue, false, nil
	}
	if ki.KeyName != "" && opts.KeyByName != nil {
		pub, err := opts.KeyByName(ki.KeyName)
		if err != nil {
			return nil, false, fmt.Errorf("xmldsig: KeyName %q: %w", ki.KeyName, err)
		}
		return pub, false, nil
	}
	return nil, false, nil
}

func contains(list []string, v string) bool {
	for _, s := range list {
		if s == v {
			return true
		}
	}
	return false
}
