package core

import (
	"context"
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"io"

	"discsec/internal/dectrans"
	"discsec/internal/disc"
	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
)

// Opener is the player-side Verifier and Decryptor of the paper's §8
// architecture, applying the Fig. 9 processing order.
type Opener struct {
	// Roots are the player's trusted root certificates (§5.5). When
	// nil, embedded certificates are accepted without chain validation
	// — only suitable for tests.
	Roots *x509.CertPool
	// Decrypt supplies key material for encrypted regions.
	Decrypt xmlenc.DecryptOptions
	// RequireSignature makes Open fail on documents without any
	// signature (the player policy for downloaded applications).
	RequireSignature bool
	// Resolver dereferences detached reference URIs (usually the disc
	// image).
	Resolver xmldsig.ExternalResolver
	// KeyByName resolves ds:KeyName hints when the signature embeds no
	// certificate — the XKMS trust-server flow of the paper's §7
	// (keymgmt.Service.PublicKeyByName or Client.PublicKeyByName).
	KeyByName func(name string) (crypto.PublicKey, error)
	// AcceptedSignatureMethods optionally restricts algorithms.
	AcceptedSignatureMethods []string
}

// SignatureReport describes one validated signature.
type SignatureReport struct {
	// SignerName is the ds:KeyName hint, usually the identity name. It
	// is xmldsig's copy (ParsedKeyInfo.KeyName), not a view of the
	// document's text, so a report outlives the document's Release.
	SignerName string
	// SignerCN is the common name of the leaf certificate, when
	// present.
	SignerCN string
	// SignerKeyFingerprint is the SHA-256 of the PKIX encoding of the
	// public key that validated the signature (empty for HMAC
	// signatures). This — not the mutable KeyName/CN hints — is the
	// identity the verification library keys its cache on.
	SignerKeyFingerprint string
	// ChainValidated reports whether an X.509 chain to the player
	// roots was validated.
	ChainValidated bool
	// References lists validated reference URIs.
	References []string
	// DecryptedBeforeVerify counts post-signature encryptions undone
	// by the decryption transform pass.
	DecryptedBeforeVerify int
}

// OpenResult is the outcome of processing a protected document.
type OpenResult struct {
	// Cluster is the content hierarchy decoded from the verified,
	// fully decrypted document. It shares no memory with the tree,
	// which Open* release before they return: no caller of core ever
	// holds a verified tree, only what was decoded from one.
	Cluster *disc.InteractiveCluster
	// Signatures reports each validated signature.
	Signatures []SignatureReport
	// OpenedAfterVerify counts excepted regions decrypted after
	// verification.
	OpenedAfterVerify int
}

// ErrVerificationRequired is returned when RequireSignature is set and
// the document carries no signature.
var ErrVerificationRequired = errors.New("core: document carries no signature but the platform requires one")

// KeyFingerprint derives the stable signer identity used for cache
// keying and revocation fan-out (xmldsig.KeyFingerprint): the hex
// SHA-256 of the key's PKIX (SubjectPublicKeyInfo) encoding. Returns ""
// for a nil key or one the x509 package cannot marshal.
func KeyFingerprint(pub crypto.PublicKey) string {
	return xmldsig.KeyFingerprint(pub)
}

// OpenReader processes a protected cluster/manifest document read
// from r end-to-end:
//
//  1. For each signature, run the decryption transform pass (decrypt
//     everything encrypted after signing, leave dcrpt:Except regions).
//  2. Verify every signature; any failure aborts.
//  3. Decrypt remaining (excepted) regions so the application is
//     executable.
//  4. Decode the content hierarchy (disc.ParseCluster); a document
//     that is not a cluster fails the open.
//
// r is read once, to EOF, into the parse arena (xmldom.Parse), and the
// resident bytes are tokenized in one hardened pass (internal/xmlstream)
// as Open tokenizes its slice; a read error fails the open before any
// byte is parsed. The tree is released on every path before OpenReader
// returns.
// The context carries cancellation intent and the obs.Recorder that
// receives per-stage spans (parse, dectrans, digest, signature,
// decrypt) and security-audit events.
func (o *Opener) OpenReader(ctx context.Context, r io.Reader) (*OpenResult, error) {
	sp := obs.FromContext(ctx).Start(obs.StageParse)
	doc, err := xmldom.Parse(r)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	return o.openDocument(ctx, doc)
}

// Open is OpenReader over an in-memory document, which it scans in
// place.
func (o *Opener) Open(ctx context.Context, docBytes []byte) (*OpenResult, error) {
	sp := obs.FromContext(ctx).Start(obs.StageParse)
	doc, err := xmldom.ParseBytes(docBytes)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	return o.openDocument(ctx, doc)
}

// openDocument runs the Fig. 9 phases over doc (which it mutates),
// decodes the model once they all passed, and releases doc on every
// path.
func (o *Opener) openDocument(ctx context.Context, doc *xmldom.Document) (*OpenResult, error) {
	defer doc.Release()
	res, err := o.verifyAndDecrypt(ctx, doc)
	if err != nil {
		return nil, err
	}
	// A verified document that is not a cluster: no AuditVerifyFailed.
	if res.Cluster, err = disc.ParseCluster(doc); err != nil {
		return nil, fmt.Errorf("core: decode cluster: %w", err)
	}
	return res, nil
}

// verifyAndDecrypt runs phases 1 to 3 over doc in the Fig. 9 order.
func (o *Opener) verifyAndDecrypt(ctx context.Context, doc *xmldom.Document) (*OpenResult, error) {
	rec := obs.FromContext(ctx)
	dec := o.Decrypt
	dec.Recorder = rec
	res := &OpenResult{}

	var sigBuf [4]*xmldom.Element
	sigs := xmldsig.AppendSignatures(sigBuf[:0], doc)
	if len(sigs) == 0 {
		if o.RequireSignature {
			rec.Audit(obs.AuditVerifyFailed, "unsigned document rejected: platform requires a signature")
			return nil, ErrVerificationRequired
		}
		// Unsigned content: just decrypt whatever we can.
		n, err := xmlenc.DecryptAll(doc, dec)
		if err != nil {
			return nil, err
		}
		res.OpenedAfterVerify = n
		return res, nil
	}

	// Phase 1: decryption transform per signature.
	dtSpan := rec.Start(obs.StageDectrans)
	reports := make([]SignatureReport, len(sigs))
	for i, sig := range sigs {
		dres, err := dectrans.ProcessSignature(doc, sig, dec)
		if err != nil {
			dtSpan.End()
			return nil, fmt.Errorf("core: decryption transform: %w", err)
		}
		reports[i].DecryptedBeforeVerify = dres.Decrypted
	}
	dtSpan.End()

	// Phase 2: verify all signatures.
	for i, sig := range sigs {
		vres, err := xmldsig.Verify(doc, sig, o.verifyOptions(o.Resolver, rec))
		if err != nil {
			rec.Audit(obs.AuditVerifyFailed, "signature %d: %v", i+1, err)
			return nil, fmt.Errorf("core: signature %d: %w", i+1, err)
		}
		reports[i].fill(vres)
	}
	res.Signatures = reports

	// Phase 3: open excepted regions.
	n, err := xmlenc.DecryptAll(doc, dec)
	if err != nil {
		return nil, fmt.Errorf("core: opening excepted regions: %w", err)
	}
	res.OpenedAfterVerify = n
	return res, nil
}

// VerifyDetached validates a detached signature file from the disc image
// against the image contents (track payload integrity, §5.3),
// dereferencing its reference URIs through the image. The file is
// scanned in place.
func (o *Opener) VerifyDetached(ctx context.Context, im *disc.Image, signaturePath string) (*SignatureReport, error) {
	raw, err := im.Get(signaturePath)
	if err != nil {
		return nil, err
	}
	rec := obs.FromContext(ctx)
	sp := rec.Start(obs.StageParse)
	doc, err := xmldom.ParseBytes(raw)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: parse detached signature: %w", err)
	}
	// The report copies what it keeps out of the tree.
	defer doc.Release()
	sig := xmldsig.FindSignature(doc)
	if sig == nil {
		return nil, xmldsig.ErrNoSignature
	}
	vres, err := xmldsig.Verify(doc, sig, o.verifyOptions(im, rec))
	if err != nil {
		rec.Audit(obs.AuditVerifyFailed, "detached signature %s: %v", signaturePath, err)
		return nil, err
	}
	rep := &SignatureReport{}
	rep.fill(vres)
	return rep, nil
}

// verifyOptions are the options every signature is verified under: the
// opener's trust settings, with detached references dereferenced
// through resolver.
func (o *Opener) verifyOptions(resolver xmldsig.ExternalResolver, rec *obs.Recorder) xmldsig.VerifyOptions {
	return xmldsig.VerifyOptions{
		Roots:                    o.Roots,
		Resolver:                 resolver,
		KeyByName:                o.KeyByName,
		AcceptedSignatureMethods: o.AcceptedSignatureMethods,
		Recorder:                 rec,
	}
}

// fill copies the signer and the validated references of a successful
// verification into r.
func (r *SignatureReport) fill(vres *xmldsig.VerifyResult) {
	r.ChainValidated = vres.CertificateChainValidated
	r.SignerKeyFingerprint = vres.SignerKeyFingerprint()
	if vres.KeyInfo != nil {
		r.SignerName = vres.KeyInfo.KeyName
		if len(vres.KeyInfo.Certificates) > 0 {
			r.SignerCN = vres.KeyInfo.Certificates[0].Subject.CommonName
		}
	}
	for _, ref := range vres.References {
		r.References = append(r.References, ref.URI)
	}
}
