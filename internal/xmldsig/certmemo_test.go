package xmldsig_test

import (
	"bytes"
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"runtime"
	"sync"
	"testing"

	"discsec/internal/core"
	"discsec/internal/keymgmt"
	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
)

// keyInfoOf builds a ds:KeyInfo element embedding ders in one
// ds:X509Data, wrapped the way a pretty-printing serializer would.
func keyInfoOf(t testing.TB, ders ...[]byte) *xmldom.Element {
	t.Helper()
	s := `<ds:KeyInfo xmlns:ds="http://www.w3.org/2000/09/xmldsig#"><ds:X509Data>`
	for _, der := range ders {
		s += "<ds:X509Certificate>\n  " + base64.StdEncoding.EncodeToString(der) + "\n</ds:X509Certificate>"
	}
	doc, err := xmldom.ParseString(s + `</ds:X509Data></ds:KeyInfo>`)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Root()
}

// parseKeyInfo parses a KeyInfo embedding ders, failing the test on
// error.
func parseKeyInfo(t testing.TB, ders ...[]byte) *xmldsig.ParsedKeyInfo {
	t.Helper()
	ki, err := xmldsig.ParseKeyInfo(keyInfoOf(t, ders...))
	if err != nil {
		t.Fatal(err)
	}
	return ki
}

// TestCertMemoSameDERSameCertificate: every verification of the same
// embedded DER shares one parse.
func TestCertMemoSameDERSameCertificate(t *testing.T) {
	root := newRoot(t, "Shared Root")
	id := newIdentity(t, root, "Shared Studio")
	raw := signedChainDoc(t, id, id.Chain)
	opts := xmldsig.VerifyOptions{Roots: root.Pool()}

	xmldsig.ResetMemos()
	first, err := verifyBytes(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := verifyBytes(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct := parseKeyInfo(t, id.Chain...)
	for i, c := range first.KeyInfo.Certificates {
		if second.KeyInfo.Certificates[i] != c || direct.Certificates[i] != c {
			t.Fatalf("certificate %d: the same DER yielded distinct parses", i)
		}
		if !bytes.Equal(c.Raw, id.Chain[i]) {
			t.Fatalf("certificate %d: memoized parse is of other bytes", i)
		}
	}
	if got := xmldsig.CertMemoLen(); got != len(id.Chain) {
		t.Fatalf("memo holds %d certificates, want %d", got, len(id.Chain))
	}
}

// TestCertMemoHitSkipsDecode: once a chain is memoized, parsing a
// ds:KeyInfo that embeds it decodes no base64 and copies no text to the
// heap. Its only allocations are the result and its certificate list,
// each smaller than either DER; decoding the two certificates, as
// every parse did when the memo was keyed by DER, costs at least one
// allocation of each DER's size.
func TestCertMemoHitSkipsDecode(t *testing.T) {
	root := newRoot(t, "Hit Root")
	id := newIdentity(t, root, "Hit Studio")
	ki := keyInfoOf(t, id.Chain...)
	xmldsig.ResetMemos()
	parse := func() {
		if _, err := xmldsig.ParseKeyInfo(ki); err != nil {
			t.Fatal(err)
		}
	}
	parse()
	if got := testing.AllocsPerRun(100, parse); got > 2 {
		t.Errorf("a memoized chain's KeyInfo made %.0f allocations, want at most 2", got)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	smallest := min(len(id.Chain[0]), len(id.Chain[1]))
	if perRun >= uint64(smallest) {
		t.Errorf("a memoized chain's KeyInfo allocated %d bytes, not less than a %d-byte DER", perRun, smallest)
	}
}

// flipLastByte returns der with its last byte (inside the issuer's
// signature) changed: still a parseable certificate, no longer one its
// issuer signed.
func flipLastByte(t testing.TB, der []byte) []byte {
	t.Helper()
	out := bytes.Clone(der)
	out[len(out)-1] ^= 0x01
	if _, err := x509.ParseCertificate(out); err != nil {
		t.Fatalf("tampered certificate no longer parses: %v", err)
	}
	return out
}

// TestCertMemoChangedByteMisses: a certificate one byte away from a
// memoized one is parsed and chain-checked afresh, so a forged or
// untrusted chain is rejected whether the memos are cold or warm.
func TestCertMemoChangedByteMisses(t *testing.T) {
	root := newRoot(t, "Tamper Root")
	other := newRoot(t, "Tamper Other Root")
	id := newIdentity(t, root, "Tamper Studio")
	stranger := newIdentity(t, other, "Stranger Studio")
	forged := flipLastByte(t, id.Chain[0])
	genuine := signedChainDoc(t, id, id.Chain)
	tampered := signedChainDoc(t, id, [][]byte{forged, id.Chain[1]})
	untrusted := signedChainDoc(t, stranger, stranger.Chain)
	opts := xmldsig.VerifyOptions{Roots: root.Pool()}

	xmldsig.ResetMemos()
	warm, err := verifyBytes(genuine, opts)
	if err != nil {
		t.Fatal(err)
	}
	ki := parseKeyInfo(t, forged)
	if ki.Certificates[0] == warm.KeyInfo.Certificates[0] || !bytes.Equal(ki.Certificates[0].Raw, forged) {
		t.Fatal("a certificate one byte away from a memoized one was served the memoized parse")
	}
	for _, phase := range []string{"warm", "warm-again", "cold"} {
		if phase == "cold" {
			xmldsig.ResetMemos()
		}
		if _, err := verifyBytes(tampered, opts); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
			t.Fatalf("%s: tampered leaf: err = %v, want ErrUntrustedCertificate", phase, err)
		}
		if _, err := verifyBytes(untrusted, opts); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
			t.Fatalf("%s: untrusted chain: err = %v, want ErrUntrustedCertificate", phase, err)
		}
	}
	if _, err := verifyBytes(genuine, opts); err != nil {
		t.Fatalf("genuine chain after the rejections: %v", err)
	}
}

// TestCertMemoStoresNoFailure: bytes that do not parse as a certificate
// are rejected every time and never memoized.
func TestCertMemoStoresNoFailure(t *testing.T) {
	root := newRoot(t, "Failure Root")
	id := newIdentity(t, root, "Failure Studio")
	xmldsig.ResetMemos()
	for _, der := range [][]byte{
		[]byte("not a certificate"),
		id.Chain[0][:len(id.Chain[0])/2],
		append(bytes.Clone(id.Chain[0]), 0),
	} {
		for try := 0; try < 2; try++ {
			if _, err := xmldsig.ParseKeyInfo(keyInfoOf(t, der)); err == nil {
				t.Fatalf("try %d: unparseable DER %x... accepted", try, der[:8])
			}
		}
	}
	if got := xmldsig.CertMemoLen(); got != 0 {
		t.Fatalf("memo holds %d entries after failed parses, want 0", got)
	}
}

func TestCertMemoBounded(t *testing.T) {
	root := newRoot(t, "Cert Bound Root")
	id := newIdentity(t, root, "Cert Bound Studio")
	xmldsig.ResetMemos()
	for i := 0; i < xmldsig.CertMemoCap+100; i++ {
		// A fresh serial per certificate makes every DER distinct.
		cert, err := root.IssueCertificate(id.Name, id.Key.Public())
		if err != nil {
			t.Fatal(err)
		}
		parseKeyInfo(t, cert.Raw)
		if got := xmldsig.CertMemoLen(); got > xmldsig.CertMemoCap {
			t.Fatalf("certificate %d: memo holds %d entries, cap %d", i, got, xmldsig.CertMemoCap)
		}
	}
}

// TestCertMemoFingerprint: the leaf fingerprint computed once per
// memoized certificate is byte-identical to a fresh core.KeyFingerprint,
// for every key type a certificate can carry.
func TestCertMemoFingerprint(t *testing.T) {
	root := newRoot(t, "Fingerprint Root")
	pool := root.Pool()
	_, edKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		key  crypto.Signer
		// signs reports whether xmldsig has a signature method for
		// the key, so a full verification can run.
		signs bool
	}{
		{"ecdsa", mustKey(t, keymgmt.ECDSAP256), true},
		{"rsa", mustKey(t, keymgmt.RSA2048), true},
		{"ed25519", edKey, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cert, err := root.IssueCertificate("Fingerprint "+tc.name, tc.key.Public())
			if err != nil {
				t.Fatal(err)
			}
			want := core.KeyFingerprint(tc.key.Public())
			if want == "" {
				t.Fatal("no fresh fingerprint")
			}
			chain := [][]byte{cert.Raw, root.Cert.Raw}
			xmldsig.ResetMemos()
			for _, phase := range []string{"cold", "warm"} {
				ki := parseKeyInfo(t, chain...)
				if got := xmldsig.LeafFingerprint(ki); got != want {
					t.Fatalf("%s: memoized fingerprint %s, fresh %s", phase, got, want)
				}
				if !tc.signs {
					continue
				}
				id := &keymgmt.Identity{Name: tc.name, Key: tc.key, Cert: cert, Chain: chain}
				res, err := verifyBytes(signedChainDoc(t, id, chain), xmldsig.VerifyOptions{Roots: pool})
				if err != nil {
					t.Fatalf("%s: verify: %v", phase, err)
				}
				if got := res.SignerKeyFingerprint(); got != want {
					t.Fatalf("%s: signer fingerprint %s, fresh %s", phase, got, want)
				}
			}
		})
	}
}

func mustKey(t testing.TB, alg keymgmt.KeyAlgorithm) crypto.Signer {
	t.Helper()
	k, err := keymgmt.GenerateKey(alg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCertMemoConcurrent: verifications sharing and resetting the memos
// from 8 goroutines agree with a single-threaded run (run under -race).
func TestCertMemoConcurrent(t *testing.T) {
	root := newRoot(t, "Cert Concurrent Root")
	other := newRoot(t, "Cert Concurrent Other Root")
	ids := []*keymgmt.Identity{newIdentity(t, root, "Studio A"), newIdentity(t, root, "Studio B")}
	var docs [][]byte
	var want []string
	for _, id := range ids {
		docs = append(docs, signedChainDoc(t, id, id.Chain))
		want = append(want, core.KeyFingerprint(id.Key.Public()))
	}
	trusted := xmldsig.VerifyOptions{Roots: root.Pool()}
	untrusted := xmldsig.VerifyOptions{Roots: other.Pool()}

	xmldsig.ResetMemos()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g == 0 && i%5 == 4 {
					xmldsig.ResetMemos()
				}
				d := (g + i) % len(docs)
				res, err := verifyBytes(docs[d], trusted)
				if err != nil {
					t.Errorf("goroutine %d: trusted verify: %v", g, err)
					return
				}
				if got := res.SignerKeyFingerprint(); got != want[d] {
					t.Errorf("goroutine %d: signer fingerprint %s, want %s", g, got, want[d])
					return
				}
				if _, err := verifyBytes(docs[d], untrusted); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
					t.Errorf("goroutine %d: untrusted verify: err = %v, want ErrUntrustedCertificate", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := xmldsig.CertMemoLen(); got > 3 {
		t.Fatalf("memo holds %d certificates, want at most 3 distinct", got)
	}
}

// TestChainMemoKeyedOnWholeSequence: the chain memo's key covers every
// embedded certificate, so a leaf validated together with its issuing
// CA does not vouch for the same leaf embedded without it.
func TestChainMemoKeyedOnWholeSequence(t *testing.T) {
	root := newRoot(t, "Sequence Root")
	studioCA, err := root.NewIntermediate("Sequence Studio CA", keymgmt.ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	id := newIdentity(t, studioCA, "Sequence Title")
	opts := xmldsig.VerifyOptions{Roots: root.Pool()}

	xmldsig.ResetMemos()
	if _, err := verifyBytes(signedChainDoc(t, id, id.Chain), opts); err != nil {
		t.Fatalf("leaf with its CA: %v", err)
	}
	bare := signedChainDoc(t, id, id.Chain[:1])
	if _, err := verifyBytes(bare, opts); !errors.Is(err, xmldsig.ErrUntrustedCertificate) {
		t.Fatalf("leaf without its CA after a memoized success: err = %v, want ErrUntrustedCertificate", err)
	}
}
