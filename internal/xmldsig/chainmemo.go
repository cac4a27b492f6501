package xmldsig

import (
	"crypto/sha256"
	"crypto/x509"
	"fmt"
	"sync"
	"time"

	"discsec/internal/memo"
)

// The memos' caps. A player or server sees one embedded chain of a few
// certificates per signer, far fewer than this; a full memo is cleared
// outright, since a miss costs only a re-parse or a re-validation.
const (
	certMemoCap  = 1024
	chainMemoCap = 1024
)

// now is the clock chain validation runs at, hit or miss.
var now = time.Now

// parsedCert is one memoized certificate parse. It is shared by every
// ds:KeyInfo embedding the same DER, so nothing may modify cert.
type parsedCert struct {
	cert *x509.Certificate

	fingerprintOnce sync.Once
	fingerprint     string
}

// leafFingerprint returns KeyFingerprint(pc.cert.PublicKey), computed
// the first time the certificate is embedded as a leaf: issuing and
// root certificates never need it.
func (pc *parsedCert) leafFingerprint() string {
	pc.fingerprintOnce.Do(func() { pc.fingerprint = KeyFingerprint(pc.cert.PublicKey) })
	return pc.fingerprint
}

// certMemo maps the SHA-256 of a certificate's exact DER to its parse;
// a parse failure is never stored.
var certMemo = memo.New[[sha256.Size]byte, *parsedCert](certMemoCap)

// parseCertificate parses der, or returns the parse this process made
// of the same bytes, together with the SHA-256 of der. Parsing is a
// pure function of the bytes, so a memo keyed on their digest returns
// exactly what a fresh parse would.
func parseCertificate(der []byte) (*parsedCert, [sha256.Size]byte, error) {
	sum := sha256.Sum256(der)
	if pc, ok := certMemo.Get(sum); ok {
		return pc, sum, nil
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, sum, err
	}
	pc := &parsedCert{cert: cert}
	certMemo.Put(sum, pc)
	return pc, sum, nil
}

// ResetMemos forgets every memoized certificate parse, chain validation
// and signature check. No verification result depends on the memos;
// this lets benchmarks and tests outside the package time and check a
// signer's first document.
func ResetMemos() {
	certMemo.Reset()
	chainMemo.Reset()
	sigMemo.Reset()
}

// chainKey names one chain-validation question: does this exact
// embedded certificate sequence chain to these exact pools. Holding
// the pool pointers keeps the pools alive, so a freed pool's address
// never aliases a new one.
type chainKey struct {
	roots, intermediates *x509.CertPool
	// sum is ParsedKeyInfo.chainSum: the SHA-256 of the DER sums of
	// every embedded certificate, leaf first.
	sum [sha256.Size]byte
}

// chainWindow is the span of instants at which every certificate of a
// validated chain is within its validity period.
type chainWindow struct {
	notBefore, notAfter time.Time
}

// contains applies x509's own validity comparisons to t.
func (w chainWindow) contains(t time.Time) bool {
	return !t.Before(w.notBefore) && !t.After(w.notAfter)
}

// chainMemo holds the windows of successful chain validations; a
// failure is never stored.
var chainMemo = memo.New[chainKey, chainWindow](chainMemoCap)

// validateChain checks that ki's certificates (leaf first, as
// embedded) chain to opts.Roots, building from opts.Intermediates plus
// the embedded certificates. A chain this process already validated
// against the same pools is accepted without rebuilding it while the
// clock stays inside its validity window. Nothing else the validation
// consults changes over time: no revocation data enters it, and pools
// only ever gain certificates.
func validateChain(ki *ParsedKeyInfo, opts VerifyOptions) error {
	certs := ki.Certificates
	k := chainKey{roots: opts.Roots, intermediates: opts.Intermediates, sum: ki.chainSum}
	t := now()
	w, ok := chainMemo.Get(k)
	if ok && w.contains(t) {
		return nil
	}

	// The document's certificates go into a pool of this call's own:
	// added to the caller's, they would stay behind as chain-building
	// material for every later verification sharing the options.
	inter := x509.NewCertPool()
	if opts.Intermediates != nil {
		inter = opts.Intermediates.Clone()
	}
	for _, c := range certs[1:] {
		inter.AddCert(c)
	}
	chains, err := certs[0].Verify(x509.VerifyOptions{
		Roots:         opts.Roots,
		Intermediates: inter,
		CurrentTime:   t,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUntrustedCertificate, err)
	}

	chainMemo.Put(k, windowOf(chains[0]))
	return nil
}

// windowOf intersects the validity periods along a chain: the latest
// NotBefore and the earliest NotAfter.
func windowOf(chain []*x509.Certificate) chainWindow {
	w := chainWindow{notBefore: chain[0].NotBefore, notAfter: chain[0].NotAfter}
	for _, c := range chain[1:] {
		if c.NotBefore.After(w.notBefore) {
			w.notBefore = c.NotBefore
		}
		if c.NotAfter.Before(w.notAfter) {
			w.notAfter = c.NotAfter
		}
	}
	return w
}
