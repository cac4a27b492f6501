package xmldsig_test

import (
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"discsec/internal/keymgmt"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
)

const chainDocXML = `<manifest xmlns="urn:disc:manifest" Id="app-1"><code>var score = 0;</code></manifest>`

// newRoot creates a root authority, failing the test on error.
func newRoot(t testing.TB, name string) *keymgmt.CA {
	t.Helper()
	root, err := keymgmt.NewRootCA(name, keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// newIdentity issues an ECDSA identity under ca; its Chain is
// [leaf, ca].
func newIdentity(t testing.TB, ca *keymgmt.CA, name string) *keymgmt.Identity {
	t.Helper()
	id, err := ca.IssueIdentity(name, keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// signedChainDoc signs a small manifest enveloped with id's key,
// embedding certs in KeyInfo, and returns the serialized document.
func signedChainDoc(t testing.TB, id *keymgmt.Identity, certs [][]byte) []byte {
	t.Helper()
	doc, err := xmldom.ParseString(chainDocXML)
	if err != nil {
		t.Fatal(err)
	}
	opts := xmldsig.SignOptions{Key: id.Key, KeyInfo: xmldsig.KeyInfoSpec{Certificates: certs}}
	if _, err := xmldsig.SignEnveloped(doc, nil, opts); err != nil {
		t.Fatal(err)
	}
	return doc.Bytes()
}

// verifyBytes parses raw and verifies its first signature.
func verifyBytes(raw []byte, opts xmldsig.VerifyOptions) (*xmldsig.VerifyResult, error) {
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		return nil, err
	}
	return xmldsig.VerifyDocument(doc, opts)
}

func TestChainMemoMissThenHit(t *testing.T) {
	root := newRoot(t, "Memo Root")
	id := newIdentity(t, root, "Memo Studio")
	raw := signedChainDoc(t, id, id.Chain)
	opts := xmldsig.VerifyOptions{Roots: root.Pool()}

	xmldsig.ResetChainMemo()
	for i, phase := range []string{"miss", "hit"} {
		res, err := verifyBytes(raw, opts)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if !res.CertificateChainValidated {
			t.Fatalf("%s: chain not reported validated", phase)
		}
		if got := xmldsig.ChainMemoLen(); got != 1 {
			t.Fatalf("after verify %d (%s): memo holds %d entries, want 1", i, phase, got)
		}
	}
}

func TestChainMemoKeyedOnRootPool(t *testing.T) {
	root := newRoot(t, "Trusted Root")
	other := newRoot(t, "Other Root")
	id := newIdentity(t, root, "Studio")
	raw := signedChainDoc(t, id, id.Chain)

	xmldsig.ResetChainMemo()
	if _, err := verifyBytes(raw, xmldsig.VerifyOptions{Roots: root.Pool()}); err != nil {
		t.Fatalf("trusted pool: %v", err)
	}
	_, err := verifyBytes(raw, xmldsig.VerifyOptions{Roots: other.Pool()})
	if !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
		t.Fatalf("other pool after a memoized success: err = %v, want ErrUntrustedCertificate", err)
	}
}

// shortLivedRoot creates a root authority whose certificate expires
// after validity, well before the identities it issues.
func shortLivedRoot(t testing.TB, validity time.Duration) *keymgmt.CA {
	t.Helper()
	key, err := keymgmt.GenerateKey(keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "Short-Lived Root"},
		NotBefore:             start.Add(-time.Hour),
		NotAfter:              start.Add(validity),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return &keymgmt.CA{Cert: cert, Key: key}
}

func TestChainMemoValidityWindow(t *testing.T) {
	root := newRoot(t, "Window Root")
	id := newIdentity(t, root, "Window Studio")
	// The leaf outlives this root, so the chain's window closes with
	// the root's NotAfter, not the leaf's.
	brief := shortLivedRoot(t, time.Hour)
	briefID := newIdentity(t, brief, "Brief Studio")

	cases := []struct {
		name string
		ca   *keymgmt.CA
		id   *keymgmt.Identity
		at   time.Time
	}{
		{"after-leaf-NotAfter", root, id, id.Cert.NotAfter.Add(time.Second)},
		{"before-leaf-NotBefore", root, id, id.Cert.NotBefore.Add(-time.Second)},
		{"after-root-NotAfter", brief, briefID, brief.Cert.NotAfter.Add(time.Second)},
	}
	for _, c := range cases {
		raw := signedChainDoc(t, c.id, c.id.Chain)
		opts := xmldsig.VerifyOptions{Roots: c.ca.Pool()}
		for _, warm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/warm=%v", c.name, warm), func(t *testing.T) {
				xmldsig.ResetChainMemo()
				if warm {
					if _, err := verifyBytes(raw, opts); err != nil {
						t.Fatalf("warming verify: %v", err)
					}
				}
				restore := xmldsig.SetClock(func() time.Time { return c.at })
				defer restore()
				if _, err := verifyBytes(raw, opts); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
					t.Fatalf("err = %v, want ErrUntrustedCertificate", err)
				}
			})
		}
	}
}

func TestChainMemoStoresNoFailure(t *testing.T) {
	root := newRoot(t, "Root")
	other := newRoot(t, "Unrelated Root")
	id := newIdentity(t, root, "Studio")
	raw := signedChainDoc(t, id, id.Chain)

	xmldsig.ResetChainMemo()
	if _, err := verifyBytes(raw, xmldsig.VerifyOptions{Roots: other.Pool()}); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
		t.Fatalf("err = %v, want ErrUntrustedCertificate", err)
	}
	if got := xmldsig.ChainMemoLen(); got != 0 {
		t.Fatalf("memo holds %d entries after a failed validation, want 0", got)
	}
}

func TestChainMemoBounded(t *testing.T) {
	root := newRoot(t, "Bound Root")
	id := newIdentity(t, root, "Bound Studio")
	pool := root.Pool()

	xmldsig.ResetChainMemo()
	for i := 0; i < xmldsig.ChainMemoCap+100; i++ {
		// A fresh serial per certificate makes every chain distinct.
		cert, err := root.IssueCertificate(id.Name, id.Key.Public())
		if err != nil {
			t.Fatal(err)
		}
		raw := signedChainDoc(t, id, [][]byte{cert.Raw, root.Cert.Raw})
		if _, err := verifyBytes(raw, xmldsig.VerifyOptions{Roots: pool}); err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
		if got := xmldsig.ChainMemoLen(); got > xmldsig.ChainMemoCap {
			t.Fatalf("chain %d: memo holds %d entries, cap %d", i, got, xmldsig.ChainMemoCap)
		}
	}
}

func TestChainMemoConcurrent(t *testing.T) {
	root := newRoot(t, "Concurrent Root")
	other := newRoot(t, "Concurrent Other Root")
	a := newIdentity(t, root, "Studio A")
	b := newIdentity(t, root, "Studio B")
	docs := [][]byte{signedChainDoc(t, a, a.Chain), signedChainDoc(t, b, b.Chain)}
	trusted := xmldsig.VerifyOptions{Roots: root.Pool()}
	untrusted := xmldsig.VerifyOptions{Roots: other.Pool()}

	xmldsig.ResetChainMemo()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				raw := docs[(g+i)%len(docs)]
				if _, err := verifyBytes(raw, trusted); err != nil {
					t.Errorf("goroutine %d: trusted verify: %v", g, err)
					return
				}
				if _, err := verifyBytes(raw, untrusted); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
					t.Errorf("goroutine %d: untrusted verify: err = %v, want ErrUntrustedCertificate", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := xmldsig.ChainMemoLen(); got != len(docs) {
		t.Fatalf("memo holds %d entries, want %d", got, len(docs))
	}
}

// TestVerifyLeavesIntermediatesUnchanged checks that certificates
// embedded in one document do not leak into the caller's
// intermediates pool, where they would help a later document that
// embeds only its leaf chain to the root.
func TestVerifyLeavesIntermediatesUnchanged(t *testing.T) {
	root := newRoot(t, "Licensor Root")
	other := newRoot(t, "Unrelated Root")
	studioCA, err := root.NewIntermediate("Studio CA", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	withCA := newIdentity(t, studioCA, "Studio Title A")
	leafOnly := newIdentity(t, studioCA, "Studio Title B")
	full := signedChainDoc(t, withCA, withCA.Chain)
	bare := signedChainDoc(t, leafOnly, [][]byte{leafOnly.Cert.Raw})

	xmldsig.ResetChainMemo()
	inter := x509.NewCertPool()
	before := inter.Clone()
	if _, err := verifyBytes(full, xmldsig.VerifyOptions{Roots: root.Pool(), Intermediates: inter}); err != nil {
		t.Fatalf("full chain: %v", err)
	}
	if !inter.Equal(before) {
		t.Fatal("a successful verify changed the caller's intermediates pool")
	}
	if _, err := verifyBytes(full, xmldsig.VerifyOptions{Roots: other.Pool(), Intermediates: inter}); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
		t.Fatalf("untrusted root: err = %v, want ErrUntrustedCertificate", err)
	}
	if !inter.Equal(before) {
		t.Fatal("a failed verify changed the caller's intermediates pool")
	}
	if _, err := verifyBytes(bare, xmldsig.VerifyOptions{Roots: root.Pool(), Intermediates: inter}); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
		t.Fatalf("leaf without its CA: err = %v, want ErrUntrustedCertificate", err)
	}
}
