package library_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"discsec/internal/library"
	"discsec/internal/obs"
	"discsec/internal/xmldom"
)

// sampleDocs loads the tokenizer's committed corpus: signed, partially
// encrypted cluster documents at three sizes. (Their signer is a
// fixture key of the process that wrote them, so they are for keying
// and tokenizing, not for verification.)
func sampleDocs(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "xmlstream", "testdata", "cluster-*.xml"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus: %v", err)
	}
	docs := map[string][]byte{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		docs[strings.TrimSuffix(filepath.Base(p), ".xml")] = raw
	}
	return docs
}

// TestWarmHitBuildsNoDOM: a warm open is the key front and a lookup —
// no tree. Its allocation count, through either entry point, stays
// far below what parsing the same document into a DOM costs.
func TestWarmHitBuildsNoDOM(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	ctx := context.Background()
	for _, seed := range []uint64{80, 81} {
		name := fmt.Sprintf("seed %d", seed)
		raw := indexBytes(t, buildImage(t, seed))
		lib := newLib(obs.NewRecorder())
		if _, st, err := lib.OpenDocument(ctx, raw); err != nil || st != library.StatusMiss {
			t.Fatalf("%s: fill: status=%q err=%v", name, st, err)
		}
		hit := func(st library.Status, err error) {
			if err != nil || st != library.StatusHit {
				t.Fatalf("%s: warm open: status=%q err=%v", name, st, err)
			}
		}
		bytesHit := testing.AllocsPerRun(50, func() {
			_, st, err := lib.OpenDocument(ctx, raw)
			hit(st, err)
		})
		readerHit := testing.AllocsPerRun(50, func() {
			_, st, err := lib.OpenReader(ctx, bytes.NewReader(raw))
			hit(st, err)
		})
		dom := testing.AllocsPerRun(50, func() {
			if _, err := xmldom.ParseBytes(raw); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: warm OpenDocument %.0f allocs, warm OpenReader %.0f, xmldom.ParseBytes %.0f", name, bytesHit, readerHit, dom)
		if bytesHit > dom/10 || readerHit > dom/10 {
			t.Errorf("%s: warm hit allocates %.0f (bytes) / %.0f (reader) times, not far below one DOM parse (%.0f)", name, bytesHit, readerHit, dom)
		}
	}
}

// BenchmarkKeyFront measures the key front a warm open runs — read the
// document into a pooled buffer, one tokenization through streaming
// exclusive C14N into SHA-256 — over the committed corpus; it is the
// operation the benchmark suite's library.key replay row times.
func BenchmarkKeyFront(b *testing.B) {
	for _, name := range []string{"cluster-small", "cluster-medium", "cluster-large"} {
		raw := sampleDocs(b)[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := library.ReadFront(nil, bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				f.Release()
			}
		})
	}
}
