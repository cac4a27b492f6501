package xmlstream

import (
	"bytes"
	"testing"
)

// BenchmarkTokenize measures the tokenizer alone over the committed
// corpus, driven the way the benchmark suite's xmlstream.tokenize
// replay row drives it: Parse over a bytes.Reader, no handlers. It
// reports MB/s and allocs/op per document size; the oracle rows run the
// reference tokenizer over the same bytes for comparison.
func BenchmarkTokenize(b *testing.B) {
	for _, doc := range corpus(b) {
		b.Run(doc.name, func(b *testing.B) {
			b.SetBytes(int64(len(doc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Parse(bytes.NewReader(doc.data), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(doc.name+"/oracle", func(b *testing.B) {
			b.SetBytes(int64(len(doc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := oracleParse(bytes.NewReader(doc.data), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
