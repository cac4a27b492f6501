// Package keymgmt provides the key-management substrate the paper's §3.1
// requirement list calls for: an X.509 certificate authority (trusted
// root inside the player, per §5.5), certificate chain validation, key
// revocation, and an XKMS-style key information service (§4, §7) usable
// in-process or over HTTP.
package keymgmt

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"
)

// KeyAlgorithm selects the key type for generated identities.
type KeyAlgorithm int

// Supported key algorithms.
const (
	RSA2048 KeyAlgorithm = iota
	RSA3072
	ECDSAP256
)

// GenerateKey creates a private key of the given algorithm.
func GenerateKey(alg KeyAlgorithm) (crypto.Signer, error) {
	switch alg {
	case RSA2048:
		return rsa.GenerateKey(rand.Reader, 2048)
	case RSA3072:
		return rsa.GenerateKey(rand.Reader, 3072)
	case ECDSAP256:
		return ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	default:
		return nil, fmt.Errorf("keymgmt: unknown key algorithm %d", alg)
	}
}

// CA is a certificate authority: a signing certificate and its private
// key. A CA issues subordinate CAs and end-entity certificates.
type CA struct {
	Cert *x509.Certificate
	Key  crypto.Signer

	mu     sync.Mutex
	serial *big.Int
	now    func() time.Time
}

// caValidity is the certificate lifetime issued by this substrate.
const caValidity = 10 * 365 * 24 * time.Hour

// NewRootCA creates a self-signed root authority (the "trusted root
// certificate within the player" of the paper's §5.5).
func NewRootCA(commonName string, alg KeyAlgorithm) (*CA, error) {
	key, err := GenerateKey(alg)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{"DiscSec Test PKI"}},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(caValidity),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{Cert: cert, Key: key, serial: big.NewInt(1), now: time.Now}, nil
}

func (ca *CA) nextSerial() *big.Int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.serial == nil {
		ca.serial = big.NewInt(1)
	}
	ca.serial = new(big.Int).Add(ca.serial, big.NewInt(1))
	return new(big.Int).Set(ca.serial)
}

func (ca *CA) clock() time.Time {
	if ca.now != nil {
		return ca.now()
	}
	return time.Now()
}

// NewIntermediate issues a subordinate CA (e.g. a studio's signing
// authority under the format licensor's root).
func (ca *CA) NewIntermediate(commonName string, alg KeyAlgorithm) (*CA, error) {
	key, err := GenerateKey(alg)
	if err != nil {
		return nil, err
	}
	now := ca.clock()
	tmpl := &x509.Certificate{
		SerialNumber:          ca.nextSerial(),
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{"DiscSec Test PKI"}},
		NotBefore:             now.Add(-time.Hour),
		NotAfter:              now.Add(caValidity / 2),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLenZero:        true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, key.Public(), ca.Key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{Cert: cert, Key: key, serial: big.NewInt(1000), now: ca.now}, nil
}

// Identity is an end entity: a content creator, application author, or
// player device with a certified key pair.
type Identity struct {
	Name string
	Key  crypto.Signer
	Cert *x509.Certificate
	// Chain holds the DER certificates to embed in signatures: the
	// leaf, then the issuing CA's certificate. For an identity issued
	// by a root, that second certificate is the root itself.
	Chain [][]byte
}

// IssueIdentity creates a key pair and end-entity certificate signed by
// the CA.
func (ca *CA) IssueIdentity(commonName string, alg KeyAlgorithm) (*Identity, error) {
	key, err := GenerateKey(alg)
	if err != nil {
		return nil, err
	}
	cert, err := ca.IssueCertificate(commonName, key.Public())
	if err != nil {
		return nil, err
	}
	return &Identity{
		Name:  commonName,
		Key:   key,
		Cert:  cert,
		Chain: [][]byte{cert.Raw, ca.Cert.Raw},
	}, nil
}

// IssueCertificate certifies an externally generated public key.
func (ca *CA) IssueCertificate(commonName string, pub crypto.PublicKey) (*x509.Certificate, error) {
	now := ca.clock()
	tmpl := &x509.Certificate{
		SerialNumber: ca.nextSerial(),
		Subject:      pkix.Name{CommonName: commonName, Organization: []string{"DiscSec Test PKI"}},
		NotBefore:    now.Add(-time.Hour),
		NotAfter:     now.Add(caValidity / 4),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageCodeSigning, x509.ExtKeyUsageClientAuth, x509.ExtKeyUsageServerAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, pub, ca.Key)
	if err != nil {
		return nil, err
	}
	return x509.ParseCertificate(der)
}

// IssueServerCertificate creates a key pair and a TLS server certificate
// with the given subject alternative names (hostnames or IP literals),
// ready for a content server (paper §7: SSL/TLS between server and
// player).
func (ca *CA) IssueServerCertificate(commonName string, hosts []string, alg KeyAlgorithm) (tls.Certificate, error) {
	key, err := GenerateKey(alg)
	if err != nil {
		return tls.Certificate{}, err
	}
	now := ca.clock()
	tmpl := &x509.Certificate{
		SerialNumber: ca.nextSerial(),
		Subject:      pkix.Name{CommonName: commonName, Organization: []string{"DiscSec Test PKI"}},
		NotBefore:    now.Add(-time.Hour),
		NotAfter:     now.Add(caValidity / 4),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, key.Public(), ca.Key)
	if err != nil {
		return tls.Certificate{}, err
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{
		Certificate: [][]byte{der, ca.Cert.Raw},
		PrivateKey:  key,
		Leaf:        leaf,
	}, nil
}

// Pool returns a certificate pool containing only this CA, for use as a
// trust anchor set.
func (ca *CA) Pool() *x509.CertPool {
	p := x509.NewCertPool()
	p.AddCert(ca.Cert)
	return p
}

// VerifyChain validates leaf against the root pool with optional
// intermediates, returning the verified chain.
func VerifyChain(leaf *x509.Certificate, roots *x509.CertPool, intermediates ...*x509.Certificate) ([][]*x509.Certificate, error) {
	if roots == nil {
		return nil, errors.New("keymgmt: no trust anchors")
	}
	inter := x509.NewCertPool()
	for _, c := range intermediates {
		inter.AddCert(c)
	}
	return leaf.Verify(x509.VerifyOptions{
		Roots:         roots,
		Intermediates: inter,
		KeyUsages:     []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
}
