package xmlstream_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"discsec/internal/c14n"
	"discsec/internal/library"
	"discsec/internal/xmlstream"
)

// TestCacheKeyPinnedToOracle pins the verdict cache key across the
// tokenizer change: for every committed corpus document, the key the
// library's front derives (scanner → streaming exclusive C14N →
// SHA-256, from a reader and from resident bytes) is byte-identical to
// the key derived through the reference encoding/xml tokenizer. A
// drift here would silently turn every resident verdict into a miss —
// or worse, make two different documents share one.
func TestCacheKeyPinnedToOracle(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "cluster-*.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		st, err := c14n.NewStream(h, c14n.Options{Exclusive: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := xmlstream.OracleParse(bytes.NewReader(raw), xmlstream.Options{}, st); err != nil {
			t.Fatalf("%s: oracle: %v", path, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		want := hex.EncodeToString(h.Sum(nil))

		f, err := library.ReadFront(nil, bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: front: %v", path, err)
		}
		if f.Key != want {
			t.Errorf("%s: front key %s, oracle key %s", path, f.Key, want)
		}
		if !bytes.Equal(f.Raw, raw) {
			t.Errorf("%s: front kept %d bytes, document has %d", path, len(f.Raw), len(raw))
		}
		f.Release()
		if got, err := library.KeyBytes(nil, raw); err != nil || got != want {
			t.Errorf("%s: KeyBytes = %s, %v; oracle key %s", path, got, err, want)
		}
	}
}
