package xmldsig

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"

	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// KeyInfoSpec describes the ds:KeyInfo content a signer embeds so a
// verifier can locate or reconstruct the validation key (paper §5.5:
// certificate-based authentication inside the signature markup).
type KeyInfoSpec struct {
	// KeyName emits a ds:KeyName hint.
	KeyName string
	// IncludeKeyValue emits the public key as a ds:KeyValue
	// (RSAKeyValue). Only RSA keys are supported as bare key values;
	// other key types should travel in certificates.
	IncludeKeyValue bool
	// Certificates are DER-encoded X.509 certificates to embed in
	// ds:X509Data, leaf first.
	Certificates [][]byte
}

func (s KeyInfoSpec) empty() bool {
	return s.KeyName == "" && !s.IncludeKeyValue && len(s.Certificates) == 0
}

// buildKeyInfo constructs the ds:KeyInfo element, or nil when the spec is
// empty.
func buildKeyInfo(prefix string, spec KeyInfoSpec, pub crypto.PublicKey) (*xmldom.Element, error) {
	if spec.empty() {
		return nil, nil
	}
	ki := xmldom.NewElement(prefix + ":KeyInfo")
	if spec.KeyName != "" {
		ki.CreateChild(prefix + ":KeyName").SetText(spec.KeyName)
	}
	if spec.IncludeKeyValue {
		if pub == nil {
			return nil, errors.New("xmldsig: IncludeKeyValue set but no public key available")
		}
		kv := ki.CreateChild(prefix + ":KeyValue")
		switch k := pub.(type) {
		case *rsa.PublicKey:
			rkv := kv.CreateChild(prefix + ":RSAKeyValue")
			rkv.CreateChild(prefix + ":Modulus").SetText(base64.StdEncoding.EncodeToString(k.N.Bytes()))
			rkv.CreateChild(prefix + ":Exponent").SetText(base64.StdEncoding.EncodeToString(big.NewInt(int64(k.E)).Bytes()))
		default:
			return nil, fmt.Errorf("xmldsig: KeyValue unsupported for key type %T (embed a certificate instead)", pub)
		}
	}
	if len(spec.Certificates) > 0 {
		xd := ki.CreateChild(prefix + ":X509Data")
		for _, der := range spec.Certificates {
			xd.CreateChild(prefix + ":X509Certificate").SetText(base64.StdEncoding.EncodeToString(der))
		}
	}
	return ki, nil
}

// ParsedKeyInfo is the verifier-side view of a ds:KeyInfo element.
type ParsedKeyInfo struct {
	KeyName  string
	KeyValue crypto.PublicKey
	// Certificates are the embedded certificates, leaf first. Each is
	// the parsed-certificate memo's copy, shared with every other
	// ds:KeyInfo that embeds the same DER: read it, never modify it.
	Certificates []*x509.Certificate

	// chainSum is the SHA-256 of the DER sums of Certificates, in
	// order: the chain memo's name for the embedded sequence.
	chainSum [sha256.Size]byte
	// leafFingerprint is KeyFingerprint of the leaf's public key.
	leafFingerprint string
}

// ParseKeyInfo extracts key material hints from a ds:KeyInfo element. A
// nil element yields an empty result.
func ParseKeyInfo(ki *xmldom.Element) (*ParsedKeyInfo, error) {
	out := &ParsedKeyInfo{}
	if ki == nil {
		return out, nil
	}
	if kn := ki.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyName"); kn != nil {
		out.KeyName = kn.Text()
	}
	if kv := ki.FirstChildNamed(xmlsecuri.DSigNamespace, "KeyValue"); kv != nil {
		if rkv := kv.FirstChildNamed(xmlsecuri.DSigNamespace, "RSAKeyValue"); rkv != nil {
			pub, err := parseRSAKeyValue(rkv)
			if err != nil {
				return nil, err
			}
			out.KeyValue = pub
		}
	}
	// The DER sums, on the stack for chains of up to four certificates.
	var sumsBuf [4 * sha256.Size]byte
	sums := sumsBuf[:0]
	for _, xd := range ki.ChildElementsNamed(xmlsecuri.DSigNamespace, "X509Data") {
		for _, xc := range xd.ChildElementsNamed(xmlsecuri.DSigNamespace, "X509Certificate") {
			der, err := xmldom.DecodeBase64(xc.Text())
			if err != nil {
				return nil, fmt.Errorf("xmldsig: X509Certificate: %w", err)
			}
			pc, sum, err := parseCertificate(der)
			if err != nil {
				return nil, fmt.Errorf("xmldsig: X509Certificate: %w", err)
			}
			if len(out.Certificates) == 0 {
				out.leafFingerprint = pc.leafFingerprint()
			}
			out.Certificates = append(out.Certificates, pc.cert)
			sums = append(sums, sum[:]...)
		}
	}
	if len(out.Certificates) > 0 {
		out.chainSum = sha256.Sum256(sums)
	}
	return out, nil
}

// LeafPublicKey returns the strongest key hint available: the first
// certificate's subject key, else the bare KeyValue, else nil.
func (p *ParsedKeyInfo) LeafPublicKey() crypto.PublicKey {
	if len(p.Certificates) > 0 {
		return p.Certificates[0].PublicKey
	}
	return p.KeyValue
}

// KeyFingerprint derives the stable signer identity used for cache
// keying and revocation fan-out: the hex SHA-256 of the key's PKIX
// (SubjectPublicKeyInfo) encoding. Returns "" for a nil key or one the
// x509 package cannot marshal.
func KeyFingerprint(pub crypto.PublicKey) string {
	if pub == nil {
		return ""
	}
	der, err := x509.MarshalPKIXPublicKey(pub)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(der)
	return hex.EncodeToString(sum[:])
}

func parseRSAKeyValue(rkv *xmldom.Element) (*rsa.PublicKey, error) {
	modEl := rkv.FirstChildNamed(xmlsecuri.DSigNamespace, "Modulus")
	expEl := rkv.FirstChildNamed(xmlsecuri.DSigNamespace, "Exponent")
	if modEl == nil || expEl == nil {
		return nil, errors.New("xmldsig: RSAKeyValue missing Modulus or Exponent")
	}
	mod, err := xmldom.DecodeBase64(modEl.Text())
	if err != nil {
		return nil, fmt.Errorf("xmldsig: RSAKeyValue Modulus: %w", err)
	}
	exp, err := xmldom.DecodeBase64(expEl.Text())
	if err != nil {
		return nil, fmt.Errorf("xmldsig: RSAKeyValue Exponent: %w", err)
	}
	e := new(big.Int).SetBytes(exp)
	if !e.IsInt64() || e.Int64() <= 1 || e.Int64() > 1<<32 {
		return nil, errors.New("xmldsig: RSAKeyValue exponent out of range")
	}
	return &rsa.PublicKey{N: new(big.Int).SetBytes(mod), E: int(e.Int64())}, nil
}

// publicKeyOf extracts the public half of a signing key for KeyInfo
// emission.
func publicKeyOf(key crypto.Signer) crypto.PublicKey {
	if key == nil {
		return nil
	}
	return key.Public()
}
