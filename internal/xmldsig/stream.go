package xmldsig

import (
	"fmt"
	"io"

	"discsec/internal/c14n"
	"discsec/internal/xmlstream"
)

// DigestDocumentReader computes the digest of a whole document's
// canonical form in a single streaming pass: the tokenizer feeds the
// incremental canonicalizer, which feeds the hash — no DOM, no
// canonical byte buffer, constant memory regardless of document size.
//
// Any canonicalization mode streams: a whole document has no ancestor
// context to import. The result is byte-identical to hashing
// c14n.CanonicalizeDocument(xmldom.Parse(r), c14nOpts): this is the
// digest the verification library keys its cache on, which is why the
// streaming cold path can share verdicts with the DOM path.
func DigestDocumentReader(r io.Reader, c14nOpts c14n.Options, digestURI string) ([]byte, error) {
	hh, err := HashByDigestURI(digestURI)
	if err != nil {
		return nil, err
	}
	h := hh.New()
	st, err := c14n.NewStream(h, c14nOpts)
	if err != nil {
		return nil, err
	}
	if err := xmlstream.Parse(r, xmlstream.Options{}, st); err != nil {
		return nil, fmt.Errorf("xmldsig: digest stream: %w", err)
	}
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("xmldsig: digest stream: %w", err)
	}
	return h.Sum(nil), nil
}

// HashReader digests raw octets streamed from r under the named digest
// algorithm — the streaming twin of hashing a dereferenced detached
// reference, for callers that can supply the payload as a reader
// instead of materializing it.
func HashReader(r io.Reader, digestURI string) ([]byte, error) {
	hh, err := HashByDigestURI(digestURI)
	if err != nil {
		return nil, err
	}
	h := hh.New()
	if _, err := io.Copy(h, r); err != nil {
		return nil, fmt.Errorf("xmldsig: hash stream: %w", err)
	}
	return h.Sum(nil), nil
}
