package c14n

import (
	"os"
	"testing"

	"discsec/internal/xmldom"
)

// corpusSizes names the committed corpus documents shared with the
// tokenizer benchmarks.
var corpusSizes = []string{"small", "medium", "large"}

func loadCorpusDoc(tb testing.TB, size string) *xmldom.Document {
	tb.Helper()
	data, err := os.ReadFile("../xmlstream/testdata/cluster-" + size + ".xml")
	if err != nil {
		tb.Fatal(err)
	}
	doc, err := xmldom.ParseBytes(data)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// BenchmarkCanonicalize measures DOM canonicalization over the committed
// corpus: the walk into the core in exclusive mode (the cache-key and
// reference-digest mode) and inclusive mode, and the reference tree
// walker in exclusive mode for comparison.
func BenchmarkCanonicalize(b *testing.B) {
	rows := []struct {
		name  string
		opts  Options
		canon func(*xmldom.Document, Options) ([]byte, error)
	}{
		{"exclusive", Options{Exclusive: true}, CanonicalizeDocument},
		{"inclusive", Options{}, CanonicalizeDocument},
		{"oracle-exclusive", Options{Exclusive: true}, oracleCanonicalizeDocument},
	}
	for _, size := range corpusSizes {
		doc := loadCorpusDoc(b, size)
		out, err := CanonicalizeDocument(doc, Options{Exclusive: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			b.Run(size+"/"+row.name, func(b *testing.B) {
				b.SetBytes(int64(len(out)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := row.canon(doc, row.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestDOMCanonicalizeSteadyStateAllocs bounds the allocations of DOM
// canonicalization once the Stream's scratch is pooled: the Stream
// handle, the output buffer and its backing array, whatever the
// document's size or namespace structure.
func TestDOMCanonicalizeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	doc := loadCorpusDoc(t, "small")
	for _, opts := range []Options{{Exclusive: true}, {}} {
		canon := func() {
			if _, err := CanonicalizeDocument(doc, opts); err != nil {
				t.Fatal(err)
			}
		}
		canon()
		if allocs := testing.AllocsPerRun(200, canon); allocs > 3 {
			t.Errorf("opts %+v: steady-state DOM canonicalization allocates %.1f/op, want at most 3", opts, allocs)
		}
	}
}
