package core

import (
	"bytes"
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
	// SignerName is the ds:KeyName hint, usually the identity name.
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
	// Doc is the fully decrypted, verified document; the caller of
	// Open* owns it. It is nil in library verdicts and player sessions,
	// which keep only the decoded model.
	Doc *xmldom.Document
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

// OpenOption configures one OpenReader call.
type OpenOption func(*openConfig)

type openConfig struct {
	parse xmldom.ParseOptions
}

// WithParseOptions overrides the streaming parser's security limits
// (depth, token count, doctype policy) for one open.
func WithParseOptions(po xmldom.ParseOptions) OpenOption {
	return func(c *openConfig) { c.parse = po }
}

// OpenReader processes a protected cluster/manifest document streamed
// from r end-to-end:
//
//  1. For each signature, run the decryption transform pass (decrypt
//     everything encrypted after signing, leave dcrpt:Except regions).
//  2. Verify every signature; any failure aborts.
//  3. Decrypt remaining (excepted) regions so the application is
//     executable.
//
// The document is tokenized in a single hardened streaming pass
// (internal/xmlstream); r is read exactly once and never buffered
// whole. The context carries cancellation intent and the obs.Recorder
// that receives per-stage spans (parse, dectrans, digest, signature,
// decrypt) and security-audit events.
func (o *Opener) OpenReader(ctx context.Context, r io.Reader, opts ...OpenOption) (*OpenResult, error) {
	var cfg openConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	rec := obs.FromContext(ctx)
	sp := rec.Start(obs.StageParse)
	doc, err := xmldom.ParseWithOptions(r, cfg.parse)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: parse: %w", err)
	}
	return o.OpenDocument(ctx, doc)
}

// Open is OpenReader over an in-memory document.
func (o *Opener) Open(ctx context.Context, docBytes []byte) (*OpenResult, error) {
	return o.OpenReader(ctx, bytes.NewReader(docBytes))
}

// OpenDocument is Open over an already-parsed document (which it
// mutates).
func (o *Opener) OpenDocument(ctx context.Context, doc *xmldom.Document) (*OpenResult, error) {
	rec := obs.FromContext(ctx)
	dec := o.Decrypt
	dec.Recorder = rec
	res := &OpenResult{Doc: doc}

	sigs := xmldsig.FindSignatures(doc)
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
		vres, err := xmldsig.Verify(doc, sig, xmldsig.VerifyOptions{
			Roots:                    o.Roots,
			Resolver:                 o.Resolver,
			KeyByName:                o.KeyByName,
			AcceptedSignatureMethods: o.AcceptedSignatureMethods,
			Recorder:                 rec,
		})
		if err != nil {
			rec.Audit(obs.AuditVerifyFailed, "signature %d: %v", i+1, err)
			return nil, fmt.Errorf("core: signature %d: %w", i+1, err)
		}
		reports[i].ChainValidated = vres.CertificateChainValidated
		reports[i].SignerKeyFingerprint = vres.SignerKeyFingerprint()
		if vres.KeyInfo != nil {
			reports[i].SignerName = vres.KeyInfo.KeyName
			if len(vres.KeyInfo.Certificates) > 0 {
				reports[i].SignerCN = vres.KeyInfo.Certificates[0].Subject.CommonName
			}
		}
		for _, ref := range vres.References {
			reports[i].References = append(reports[i].References, ref.URI)
		}
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
// against the image contents (track payload integrity, §5.3).
func (o *Opener) VerifyDetached(ctx context.Context, im *disc.Image, signaturePath string) (*SignatureReport, error) {
	raw, err := im.Get(signaturePath)
	if err != nil {
		return nil, err
	}
	return o.verifyDetachedReader(ctx, bytes.NewReader(raw), im, signaturePath)
}

// VerifyDetachedReader validates a detached signature document streamed
// from r, dereferencing its reference URIs through resolver (usually
// the disc image). It is the reader-first form of VerifyDetached.
func (o *Opener) VerifyDetachedReader(ctx context.Context, r io.Reader, resolver xmldsig.ExternalResolver) (*SignatureReport, error) {
	return o.verifyDetachedReader(ctx, r, resolver, "(reader)")
}

func (o *Opener) verifyDetachedReader(ctx context.Context, r io.Reader, resolver xmldsig.ExternalResolver, label string) (*SignatureReport, error) {
	rec := obs.FromContext(ctx)
	sp := rec.Start(obs.StageParse)
	doc, err := xmldom.Parse(r)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("core: parse detached signature: %w", err)
	}
	sig := xmldsig.FindSignature(doc)
	if sig == nil {
		return nil, xmldsig.ErrNoSignature
	}
	vres, err := xmldsig.Verify(doc, sig, xmldsig.VerifyOptions{
		Roots:                    o.Roots,
		Resolver:                 resolver,
		KeyByName:                o.KeyByName,
		AcceptedSignatureMethods: o.AcceptedSignatureMethods,
		Recorder:                 rec,
	})
	if err != nil {
		rec.Audit(obs.AuditVerifyFailed, "detached signature %s: %v", label, err)
		return nil, err
	}
	rep := &SignatureReport{
		ChainValidated:       vres.CertificateChainValidated,
		SignerKeyFingerprint: vres.SignerKeyFingerprint(),
	}
	if vres.KeyInfo != nil {
		rep.SignerName = vres.KeyInfo.KeyName
		if len(vres.KeyInfo.Certificates) > 0 {
			rep.SignerCN = vres.KeyInfo.Certificates[0].Subject.CommonName
		}
	}
	for _, ref := range vres.References {
		rep.References = append(rep.References, ref.URI)
	}
	return rep, nil
}
