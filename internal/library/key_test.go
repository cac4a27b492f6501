package library

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"discsec/internal/c14n"
	"discsec/internal/xmldom"
)

// referenceKey is the key through the DOM pipeline: parse, tree-walk
// exclusive canonicalization, hex SHA-256 of the canonical octets.
func referenceKey(data []byte) (string, error) {
	doc, err := xmldom.ParseBytes(data)
	if err != nil {
		return "", err
	}
	canon, err := c14n.CanonicalizeDocument(doc, c14n.Options{Exclusive: true})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// FuzzKeyDifferential holds the production key pass to the DOM
// pipeline: for every input, KeyBytes with the key memo cold, KeyBytes
// again with it warm, and the DOM reference either all reject or all
// give one key. Only successes are memoized, so a rejected input must
// be rejected again on the second call. Seeds mirror the xmldom parser
// fuzz corpus so both fuzzers explore the same space.
func FuzzKeyDifferential(f *testing.F) {
	seeds := []string{
		`<r/>`,
		`<a xmlns="urn:d" xmlns:p="urn:p"><p:b k="v">t</p:b><!-- c --><?pi d?></a>`,
		`<r>&amp;&lt;&#65;<![CDATA[x]]></r>`,
		`<a><b></a></b>`,
		`<!DOCTYPE r><r/>`,
		`<r a="1" a="2"/>`,
		"<r>\xff\xfe</r>",
		`<a:b xmlns:a=""/>`,
		`<a xmlns:x="urn:x"><x:b xmlns:x="urn:y" x:k="v"/></a>`,
		`<a xmlns:x="urn:x" x:k="v"><x:b/><c xmlns=""/></a>`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keyMemo.Reset()
		cold, cerr := KeyBytes(nil, data)
		warm, werr := KeyBytes(nil, data)
		want, rerr := referenceKey(data)
		if (cerr == nil) != (werr == nil) || (cerr == nil) != (rerr == nil) {
			t.Fatalf("verdicts diverge on %q: cold %v, warm %v, DOM %v", data, cerr, werr, rerr)
		}
		if rerr != nil {
			return
		}
		if cold != want || warm != want {
			t.Fatalf("key divergence on %q:\ncold %s\nwarm %s\ndom  %s", data, cold, warm, want)
		}
	})
}

// clipDoc is a manifest-shaped document with a fixed token structure
// whose one text payload is repeats KiB long: the multi-megabyte clip
// for the scale tests.
func clipDoc(repeats int) []byte {
	body := bytes.Repeat([]byte("0123456789abcdef"), 64)
	var b bytes.Buffer
	b.WriteString(`<cluster xmlns="urn:disc"><track id="t1"><clip enc="none">`)
	for i := 0; i < repeats; i++ {
		b.Write(body)
	}
	b.WriteString(`</clip></track></cluster>`)
	return b.Bytes()
}

// TestKeyMatchesDOMOnLargeClip: a ~2 MiB clip keys identically through
// the key pass and the DOM pipeline (guards the text path at scale).
func TestKeyMatchesDOMOnLargeClip(t *testing.T) {
	raw := clipDoc(2048)
	keyMemo.Reset()
	got, err := KeyBytes(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("large-clip key mismatch: key pass %s, DOM %s", got, want)
	}
}

// TestCanonicalPassAllocsFlat: with the token structure fixed, the key
// pass allocates per token, never per byte, so its allocation count
// does not scale with the payload.
func TestCanonicalPassAllocsFlat(t *testing.T) {
	allocs := func(repeats int) float64 {
		raw := clipDoc(repeats)
		return testing.AllocsPerRun(3, func() {
			if _, err := canonicalPass(nil, raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(256)  // ~256 KiB
	large := allocs(4096) // ~4 MiB: 16x the payload
	if large > 2*small+32 {
		t.Errorf("allocations scale with payload: %v allocs at 256KiB vs %v at 4MiB", small, large)
	}
}

// TestKeyHeapCeiling: keying a resident clip far larger than the
// ceiling must not grow the live heap by anything near the clip size;
// the pass retains no tree and no canonical byte buffer.
func TestKeyHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB key pass")
	}
	raw := clipDoc(32 << 10) // ~32 MiB

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	key, err := canonicalPass(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(raw)

	if len(key) != 2*sha256.Size {
		t.Fatalf("key length %d", len(key))
	}
	// The ceiling covers scanner state and allocator noise, not the
	// payload.
	const ceiling = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > ceiling {
		t.Errorf("live heap grew %d bytes keying a %d-byte clip (ceiling %d)", grew, len(raw), ceiling)
	}
}

// TestKeyAllocCeiling: keying the same ~32 MiB clip allocates a small
// constant, not the clip: the canonicalizer escapes a long text run in
// buffer-sized slices instead of staging it whole (it allocated 33.6 MB
// when it did).
func TestKeyAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-MB key pass")
	}
	raw := clipDoc(32 << 10) // ~32 MiB
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := canonicalPass(nil, raw); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 2 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("keying a %d-byte clip allocated %d bytes", len(raw), alloc)
	if alloc > ceiling {
		t.Errorf("keying a %d-byte clip allocated %d bytes (ceiling %d)", len(raw), alloc, ceiling)
	}
}
