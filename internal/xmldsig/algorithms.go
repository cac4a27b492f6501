// Package xmldsig implements XML-Signature Syntax and Processing (W3C
// Recommendation, 12 February 2002): signature generation and core
// validation for enveloped, enveloping, and detached signatures over XML
// and binary content.
//
// This is the player-side Verifier and authoring-side Signer substrate
// from the paper's §5 and §8 prototype architecture.
package xmldsig

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	_ "crypto/sha1" // registered for crypto.SHA1
	_ "crypto/sha256"
	_ "crypto/sha512"
	"errors"
	"fmt"
	"math/big"

	"discsec/internal/xmlsecuri"
)

// ErrUnsupportedAlgorithm is wrapped by errors reporting an algorithm
// identifier this implementation does not provide.
var ErrUnsupportedAlgorithm = errors.New("xmldsig: unsupported algorithm")

// HashByDigestURI maps a DigestMethod identifier to a crypto.Hash.
func HashByDigestURI(uri string) (crypto.Hash, error) {
	switch uri {
	case xmlsecuri.DigestSHA1:
		return crypto.SHA1, nil
	case xmlsecuri.DigestSHA256:
		return crypto.SHA256, nil
	case xmlsecuri.DigestSHA512:
		return crypto.SHA512, nil
	default:
		return 0, fmt.Errorf("%w: digest %q", ErrUnsupportedAlgorithm, uri)
	}
}

// hashBySignatureURI returns the hash a SignatureMethod uses over the
// canonicalized SignedInfo.
func hashBySignatureURI(uri string) (crypto.Hash, error) {
	switch uri {
	case xmlsecuri.SigRSASHA1, xmlsecuri.SigHMACSHA1:
		return crypto.SHA1, nil
	case xmlsecuri.SigRSASHA256, xmlsecuri.SigRSAPSSSHA256, xmlsecuri.SigECDSASHA256, xmlsecuri.SigHMACSHA256:
		return crypto.SHA256, nil
	case xmlsecuri.SigRSASHA512:
		return crypto.SHA512, nil
	default:
		return 0, fmt.Errorf("%w: signature method %q", ErrUnsupportedAlgorithm, uri)
	}
}

// computeSignatureValue produces the raw SignatureValue octets for the
// canonicalized SignedInfo under the given method. Exactly one of key
// (asymmetric) or hmacKey must be set.
func computeSignatureValue(method string, signedInfo []byte, key crypto.Signer, hmacKey []byte) ([]byte, error) {
	h, err := hashBySignatureURI(method)
	if err != nil {
		return nil, err
	}

	switch method {
	case xmlsecuri.SigHMACSHA1, xmlsecuri.SigHMACSHA256:
		if hmacKey == nil {
			return nil, errors.New("xmldsig: HMAC signature method requires an HMAC key")
		}
		mac := hmac.New(h.New, hmacKey)
		mac.Write(signedInfo)
		return mac.Sum(nil), nil
	}

	if key == nil {
		return nil, errors.New("xmldsig: signature method requires an asymmetric signing key")
	}
	hasher := h.New()
	hasher.Write(signedInfo)
	digest := hasher.Sum(nil)

	switch method {
	case xmlsecuri.SigRSASHA1, xmlsecuri.SigRSASHA256, xmlsecuri.SigRSASHA512:
		return key.Sign(rand.Reader, digest, h)
	case xmlsecuri.SigRSAPSSSHA256:
		return key.Sign(rand.Reader, digest, &rsa.PSSOptions{SaltLength: rsa.PSSSaltLengthEqualsHash, Hash: h})
	case xmlsecuri.SigECDSASHA256:
		ecKey, ok := key.(*ecdsa.PrivateKey)
		if !ok {
			return nil, fmt.Errorf("xmldsig: %s requires an ECDSA private key, have %T", method, key)
		}
		r, s, err := ecdsa.Sign(rand.Reader, ecKey, digest)
		if err != nil {
			return nil, err
		}
		return marshalECDSAXMLSig(r, s, ecKey.Curve.Params().BitSize), nil
	default:
		return nil, fmt.Errorf("%w: signature method %q", ErrUnsupportedAlgorithm, method)
	}
}

// verifyHMAC checks the MAC sig over the canonicalized SignedInfo.
func verifyHMAC(method string, signedInfo, sig, hmacKey []byte) error {
	h, err := hashBySignatureURI(method)
	if err != nil {
		return err
	}
	if hmacKey == nil {
		return errors.New("xmldsig: HMAC verification requires the shared key")
	}
	mac := hmac.New(h.New, hmacKey)
	mac.Write(signedInfo)
	if !hmac.Equal(mac.Sum(nil), sig) {
		return errors.New("xmldsig: HMAC signature mismatch")
	}
	return nil
}

// verifySignatureValue checks the asymmetric signature sig over digest,
// the hash h of the canonicalized SignedInfo that method names. It is a
// pure function of its arguments, which is what lets Verify memoize its
// successes.
func verifySignatureValue(method string, h crypto.Hash, digest, sig []byte, pub crypto.PublicKey) error {
	switch method {
	case xmlsecuri.SigRSASHA1, xmlsecuri.SigRSASHA256, xmlsecuri.SigRSASHA512:
		rsaPub, ok := pub.(*rsa.PublicKey)
		if !ok {
			return fmt.Errorf("xmldsig: %s requires an RSA public key, have %T", method, pub)
		}
		return rsa.VerifyPKCS1v15(rsaPub, h, digest, sig)
	case xmlsecuri.SigRSAPSSSHA256:
		rsaPub, ok := pub.(*rsa.PublicKey)
		if !ok {
			return fmt.Errorf("xmldsig: %s requires an RSA public key, have %T", method, pub)
		}
		return rsa.VerifyPSS(rsaPub, h, digest, sig, &rsa.PSSOptions{SaltLength: rsa.PSSSaltLengthEqualsHash, Hash: h})
	case xmlsecuri.SigECDSASHA256:
		ecPub, ok := pub.(*ecdsa.PublicKey)
		if !ok {
			return fmt.Errorf("xmldsig: %s requires an ECDSA public key, have %T", method, pub)
		}
		r, s, err := unmarshalECDSAXMLSig(sig, ecPub.Curve.Params().BitSize)
		if err != nil {
			return err
		}
		if !ecdsa.Verify(ecPub, digest, r, s) {
			return errors.New("xmldsig: ECDSA signature mismatch")
		}
		return nil
	default:
		return fmt.Errorf("%w: signature method %q", ErrUnsupportedAlgorithm, method)
	}
}

// marshalECDSAXMLSig encodes (r, s) in the XML-DSig raw concatenated
// form: two big-endian integers each padded to the curve octet length.
func marshalECDSAXMLSig(r, s *big.Int, curveBits int) []byte {
	octets := (curveBits + 7) / 8
	out := make([]byte, 2*octets)
	r.FillBytes(out[:octets])
	s.FillBytes(out[octets:])
	return out
}

// unmarshalECDSAXMLSig decodes the raw r||s form. XML-DSig 1.1 §6.4.3
// fixes each integer at the curve octet length (I2OSP with l = 32 for
// P-256), so any other length is malformed: a zero-padded 00||r||00||s
// would otherwise verify as a second encoding of the same signature.
func unmarshalECDSAXMLSig(sig []byte, curveBits int) (r, s *big.Int, err error) {
	octets := (curveBits + 7) / 8
	if len(sig) != 2*octets {
		return nil, nil, fmt.Errorf("xmldsig: ECDSA signature value is %d octets, want %d", len(sig), 2*octets)
	}
	return new(big.Int).SetBytes(sig[:octets]), new(big.Int).SetBytes(sig[octets:]), nil
}
