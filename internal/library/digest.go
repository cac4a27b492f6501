package library

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"

	"discsec/internal/c14n"
	"discsec/internal/memo"
	"discsec/internal/obs"
	"discsec/internal/xmlstream"
)

// Front is one document read through the key front: the bytes as read
// and the cache key derived from them. Every serving form opens through
// it — library.OpenReader and OpenDocument, POST /verify, cluster
// edges and the origin — so a warm open is one tag of the bytes and a
// key-memo hit (first-seen bytes take one tokenization feeding the
// canonicalizer and SHA-256), and builds no tree; only a miss parses
// Raw into the DOM verification needs.
type Front struct {
	// Key is the hex exclusive-C14N digest of Raw (KeyBytes'
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
	return readFront(rec, r, -1)
}

// ReadFrontLimit is ReadFront for a document of at most limit (≥ 0)
// bytes. It reads at most one byte more; a longer document fails with
// ErrTooLarge before any of it is keyed.
func ReadFrontLimit(rec *obs.Recorder, r io.Reader, limit int64) (Front, error) {
	if limit < math.MaxInt64 {
		r = io.LimitReader(r, limit+1)
	}
	return readFront(rec, r, limit)
}

// readFront is the front over r; limit < 0 means unbounded.
func readFront(rec *obs.Recorder, r io.Reader, limit int64) (Front, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	buf := frontBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		putFrontBuf(buf)
		return Front{}, fmt.Errorf("%w: %w", ErrBadDocument, err)
	}
	if limit >= 0 && int64(buf.Len()) > limit {
		putFrontBuf(buf)
		return Front{}, fmt.Errorf("%w: more than %d bytes", ErrTooLarge, limit)
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

// KeyBytes derives the content-addressed cache key of a resident
// document: the hex SHA-256 of its exclusive-C14N form, in one
// tokenization — scanner, incremental exclusive C14N, SHA-256 — with no
// tree. Canonicalizing before hashing is what makes the key
// wrapping-proof: two serializations of the same infoset key
// identically, while any structural change an attacker needs for a
// wrapping substitution (relocated signed subtree, injected sibling)
// changes the canonical octets and misses the cache. The key covers the
// document as stored (signatures and EncryptedData in place), before
// any verification mutates it.
func KeyBytes(rec *obs.Recorder, raw []byte) (string, error) {
	sp := rec.Start(obs.StageParse)
	defer sp.End()
	return canonicalKey(rec, raw)
}

// keyMemo sits in front of the canonical key: it maps a secret-keyed
// tag of a document's exact bytes (rawTag) to the key canonicalKey
// derived from them, so a repeat of those bytes is keyed by one GHASH
// pass instead of a tokenization, a canonicalization and a SHA-256. It
// caches a pure function, so it is process-wide. At most keyMemoCap
// entries, under 1 MiB, whatever the traffic.
const keyMemoCap = 8192

var keyMemo = memo.New[rawTag, string](keyMemoCap)

// keyTagger tags raw bytes for keyMemo. Its key is drawn once per
// process and never leaves it.
var keyTagger = newTagger()

// rawTag is the 128-bit GMAC tag of a document's bytes. Two distinct
// inputs of at most l blocks collide with probability at most
// (l+1)/2^128 while the tagger key is secret; two tags of known bytes
// reveal the GHASH key, so a tag is never printed, logged, counted or
// exported (SECURITY.md, "Cryptographic notes"). It has no methods on
// purpose.
type rawTag [16]byte

// tagger computes rawTags: AES-GCM sealing an empty plaintext with the
// bytes as additional data under one fixed nonce. The instance never
// encrypts, so the fixed nonce reuses no keystream; the tag is
// GHASH_H(bytes) masked by the constant E_K(J0). Where tagKernel is on,
// the GHASH kernel computes that same tag from key, which holds H's
// powers as the AEAD holds them in its product table: unexported and
// never printed.
type tagger struct {
	aead  cipher.AEAD
	nonce [12]byte
	key   ghashKey
}

// tagKernel selects the GHASH kernel (ghash_amd64.s) over Seal. It is
// on exactly where the CPU runs the kernel; tests clear it to run the
// Seal path there too.
var tagKernel = tagKernelCPU

// newTagger returns a tagger under a fresh key from crypto/rand.
func newTagger() *tagger {
	var key [16]byte
	if _, err := rand.Read(key[:]); err != nil {
		panic("library: drawing the key-memo tag key: " + err.Error())
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("library: key-memo tag cipher: " + err.Error())
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic("library: key-memo tag GCM: " + err.Error())
	}
	t := &tagger{aead: aead}
	t.key.init(block)
	return t
}

// tagBufs holds Seal's output: through the interface call both dst and
// the nonce escape, so a stack buffer would cost an allocation per tag.
var tagBufs = sync.Pool{New: newTagBuf}

func newTagBuf() any { return new(rawTag) }

// memoTag is raw's tag under t.
//
//discvet:hotpath every open of every form tags its bytes here, hit or miss
func (t *tagger) memoTag(raw []byte) rawTag {
	var tag rawTag
	if tagKernel {
		ghashTag(&t.key, raw, &tag)
		return tag
	}
	out := tagBufs.Get().(*rawTag)
	t.aead.Seal(out[:0], t.nonce[:], nil, raw)
	copy(tag[:], out[:])
	tagBufs.Put(out)
	return tag
}

// canonicalKey is the cache key of raw: memoized by raw's tag, computed
// by canonicalPass on a miss. Only successes are stored, so malformed
// bytes fail again on every call.
func canonicalKey(rec *obs.Recorder, raw []byte) (string, error) {
	tag := keyTagger.memoTag(raw)
	if key, ok := keyMemo.Get(tag); ok {
		rec.Inc("library.key_memo_hit")
		return key, nil
	}
	key, err := canonicalPass(rec, raw)
	if err != nil {
		return "", err
	}
	keyMemo.Put(tag, key)
	return key, nil
}

// canonicalPass derives the key in one tokenization: scanner,
// incremental exclusive C14N, SHA-256.
func canonicalPass(rec *obs.Recorder, raw []byte) (string, error) {
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
