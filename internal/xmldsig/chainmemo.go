package xmldsig

import (
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"time"

	"discsec/internal/memo"
)

// chainMemoCap bounds the chain memo. A player or server sees one
// embedded chain per signer, far fewer than this; a full memo is
// cleared outright, since a miss costs only a re-validation.
const chainMemoCap = 1024

// now is the clock chain validation runs at, hit or miss.
var now = time.Now

// chainKey names one chain-validation question: does this exact
// embedded certificate sequence chain to these exact pools. Holding
// the pool pointers keeps the pools alive, so a freed pool's address
// never aliases a new one.
type chainKey struct {
	roots, intermediates *x509.CertPool
	// sum is the SHA-256 of the length-prefixed DER of every embedded
	// certificate, leaf first.
	sum [32]byte
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

// validateChain checks that certs (leaf first, as embedded) chain to
// opts.Roots, building from opts.Intermediates plus the embedded
// certificates. A chain this process already validated against the
// same pools is accepted without rebuilding it while the clock stays
// inside its validity window. Nothing else the validation consults
// changes over time: no revocation data enters it, and pools only
// ever gain certificates.
func validateChain(certs []*x509.Certificate, opts VerifyOptions) error {
	k := chainKey{roots: opts.Roots, intermediates: opts.Intermediates, sum: chainSum(certs)}
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

// chainSum hashes the certificates' DER, each behind its length, so
// no two distinct sequences share an encoding.
func chainSum(certs []*x509.Certificate) [32]byte {
	h := sha256.New()
	var n [8]byte
	for _, c := range certs {
		binary.BigEndian.PutUint64(n[:], uint64(len(c.Raw)))
		h.Write(n[:])
		h.Write(c.Raw)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
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
