// Package dectrans implements the W3C "Decryption Transform for XML
// Signature" (Recommendation, 10 December 2002) processing order the
// paper's §7 relies on for end-to-end security: content is signed first
// and encrypted second, and the verifier must decrypt before validating —
// except for EncryptedData that already existed when the signature was
// produced (listed in dcrpt:Except).
//
// Processing order on the player (paper Fig. 9):
//
//	receive → Decrypt (this package) → Verify (xmldsig) → execute
package dectrans

import (
	"fmt"
	"strings"

	"discsec/internal/xmldom"
	"discsec/internal/xmldsig"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

// Result reports a completed decryption-transform pass.
type Result struct {
	// Decrypted is the number of EncryptedData structures decrypted.
	Decrypted int
	// Excepted is the number of EncryptedData structures left intact
	// because a dcrpt:Except listed them.
	Excepted int
}

// ProcessSignature decrypts every Element/Content-typed EncryptedData in
// the document except those the signature's decryption transforms list in
// dcrpt:Except, using the supplied key material. After it returns, the
// document is in the state xmldsig core validation expects.
func ProcessSignature(doc *xmldom.Document, sig *xmldom.Element, opts xmlenc.DecryptOptions) (Result, error) {
	exceptions, err := xmldsig.DecryptionExceptions(sig)
	if err != nil {
		return Result{}, err
	}
	return ProcessDocument(doc, exceptions, opts)
}

// ProcessDocument decrypts every structural EncryptedData in the document
// whose Id is not in the exceptions list (fragment URIs "#id" or bare
// ids). Decryption repeats until no non-excepted structures remain, so
// super-encrypted regions fully open.
func ProcessDocument(doc *xmldom.Document, exceptions []string, opts xmlenc.DecryptOptions) (Result, error) {
	var res Result
	var buf [16]*xmldom.Element
	for pass := 0; pass < 32; pass++ {
		eds := xmlenc.AppendEncryptedData(buf[:0], doc)
		targets := eds[:0]
		excepted := 0
		for _, ed := range eds {
			tp := ed.AttrValue("Type")
			if tp != xmlsecuri.EncTypeElement && tp != xmlsecuri.EncTypeContent {
				continue
			}
			if id := ed.AttrValue("Id"); id != "" && isExcepted(exceptions, id) {
				excepted++
				continue
			}
			targets = append(targets, ed)
		}
		if len(targets) == 0 {
			res.Excepted = excepted
			return res, nil
		}
		for _, ed := range targets {
			if err := xmlenc.DecryptElement(doc, ed, opts); err != nil {
				return res, fmt.Errorf("dectrans: decrypting %q: %w", ed.AttrValue("Id"), err)
			}
			res.Decrypted++
		}
	}
	return res, fmt.Errorf("dectrans: encryption nesting too deep")
}

// isExcepted reports whether id is among the exceptions. A signature
// lists a handful at most, so a scan beats building a set per pass.
func isExcepted(exceptions []string, id string) bool {
	for _, e := range exceptions {
		if strings.TrimPrefix(e, "#") == id {
			return true
		}
	}
	return false
}
