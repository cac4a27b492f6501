package library

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"discsec/internal/c14n"
	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlstream"
)

// CanonicalKey derives the content-addressed cache key: the hex SHA-256
// of the document's exclusive-C14N form. Canonicalizing before hashing
// is what makes the key wrapping-proof: two serializations of the same
// infoset key identically, while any structural change an attacker
// needs for a wrapping substitution (relocated signed subtree, injected
// sibling) changes the canonical octets and misses the cache.
//
// The key is computed over the document as stored (signatures and
// EncryptedData in place), before any verification mutates it.
// KeyBytes computes the same function straight from the document's
// bytes, without a tree.
func CanonicalKey(doc *xmldom.Document, rec *obs.Recorder) (string, error) {
	octets, err := c14n.CanonicalizeDocument(doc, c14n.Options{Exclusive: true, Recorder: rec})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(octets)
	return hex.EncodeToString(sum[:]), nil
}

// Front is one document read through the key front: the bytes as read
// and the cache key derived from them. Every serving form opens through
// it — library.OpenReader and OpenDocument, POST /verify, cluster
// edges and the origin — so a warm open is one tokenization feeding
// the canonicalizer and SHA-256, and builds no tree; only a miss parses
// Raw into the DOM verification needs.
type Front struct {
	// Key is the hex exclusive-C14N digest of Raw (CanonicalKey's
	// function).
	Key string
	// Raw is the document. It lives in a pooled buffer and is valid
	// until Release.
	Raw []byte

	buf *bytes.Buffer
}

var frontBufs = sync.Pool{New: newFrontBuf}

// newFrontBuf is the pool's first-touch factory: a declared function
// so ReadFront never builds a closure.
func newFrontBuf() any { return new(bytes.Buffer) }

// maxPooledFront bounds the buffers kept for reuse: one huge document
// does not pin its buffer in the pool.
const maxPooledFront = 4 << 20

// ReadFront reads r to EOF into a pooled buffer and derives the cache
// key from those bytes. The reader is consumed exactly once. Read and
// tokenizer failures wrap ErrBadDocument (and keep the underlying
// error reachable, e.g. an *http.MaxBytesError). Release the Front
// once nothing reads Raw any more.
func ReadFront(rec *obs.Recorder, r io.Reader) (Front, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	buf := frontBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		putFrontBuf(buf)
		return Front{}, fmt.Errorf("%w: %w", ErrBadDocument, err)
	}
	key, err := canonicalKey(rec, buf.Bytes())
	if err != nil {
		putFrontBuf(buf)
		return Front{}, fmt.Errorf("%w: %w", ErrBadDocument, err)
	}
	return Front{Key: key, Raw: buf.Bytes(), buf: buf}, nil
}

// Release returns the Front's buffer to the pool. Raw must not be used
// afterwards; releasing twice is harmless.
func (f *Front) Release() {
	if f.buf != nil {
		putFrontBuf(f.buf)
	}
	f.buf, f.Raw = nil, nil
}

func putFrontBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledFront {
		frontBufs.Put(buf)
	}
}

// KeyBytes derives the cache key of a resident document in one
// tokenization — scanner, incremental exclusive C14N, SHA-256 — with no
// tree. It is byte-identical to CanonicalKey over the parsed document.
func KeyBytes(rec *obs.Recorder, raw []byte) (string, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	return canonicalKey(rec, raw)
}

func canonicalKey(rec *obs.Recorder, raw []byte) (string, error) {
	h := sha256.New()
	st, err := c14n.NewStream(h, c14n.Options{Exclusive: true, Recorder: rec})
	if err != nil {
		return "", err
	}
	if err := xmlstream.ParseBytes(raw, xmlstream.Options{}, st); err != nil {
		return "", err
	}
	if err := st.Close(); err != nil {
		return "", err
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])), nil
}

// parseDoc is a fill's private DOM parse of the document bytes.
func parseDoc(rec *obs.Recorder, raw []byte) (*xmldom.Document, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	return xmldom.ParseBytes(raw)
}
