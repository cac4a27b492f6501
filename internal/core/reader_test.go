package core_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"discsec/internal/core"
	"discsec/internal/xmldom"
	"discsec/internal/xmlstream"
)

// readerForms are the three layers that take a document as an
// io.Reader: the tokenizer, the DOM parser on it, and the open on that.
var readerForms = []struct {
	name  string
	parse func(r io.Reader) error
}{
	{"xmlstream.Parse", func(r io.Reader) error { return xmlstream.Parse(r, xmlstream.Options{}) }},
	{"xmldom.Parse", func(r io.Reader) error {
		doc, err := xmldom.Parse(r)
		if err == nil {
			doc.Release()
		}
		return err
	}},
	{"core.OpenReader", func(r io.Reader) error {
		_, err := (&core.Opener{}).OpenReader(context.Background(), r)
		return err
	}},
}

// stuckReader returns neither bytes nor an error, forever.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// TestReaderFormsFailStuckReader: a reader that never makes progress
// fails every form with io.ErrNoProgress instead of spinning.
func TestReaderFormsFailStuckReader(t *testing.T) {
	for _, f := range readerForms {
		if err := f.parse(stuckReader{}); !errors.Is(err, io.ErrNoProgress) {
			t.Errorf("%s: err = %v, want io.ErrNoProgress", f.name, err)
		}
	}
}

// TestReaderFormsWrapReadError: a read error in the middle of a
// document fails every form, and errors.Is reaches it.
func TestReaderFormsWrapReadError(t *testing.T) {
	cause := errors.New("connection reset mid-body")
	for _, f := range readerForms {
		r := io.MultiReader(strings.NewReader(`<cluster><track Id="t1">`), iotest.ErrReader(cause))
		if err := f.parse(r); !errors.Is(err, cause) {
			t.Errorf("%s: err = %v, want it to wrap %v", f.name, err, cause)
		}
	}
}

// TestReaderFormsDropLargeBuffers: the buffer a form reads a document
// into goes back to its pool only up to the pool's bound (1 MiB for the
// parser, 512 KiB for a DOM arena). A 128 KiB document parsed twice
// reuses the buffer, so the repeat allocates a fraction of it; a 2 MiB
// document's repeat allocates at least its size again, because the
// buffer was dropped rather than pinned in the pool. Both documents are
// one element and whitespace, which the tokenizer drops, so the buffer
// is nearly all a parse allocates.
func TestReaderFormsDropLargeBuffers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	doc := func(n int) []byte { return append([]byte("<r/>"), bytes.Repeat([]byte(" "), n)...) }
	small, large := doc(128<<10), doc(2<<20)
	for _, f := range readerForms {
		repeat := func(raw []byte) uint64 {
			f.parse(bytes.NewReader(raw))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f.parse(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// Under -race sync.Pool drops items at random, so reuse is not
		// guaranteed; dropping still is.
		if got := repeat(small); !raceEnabled && got > uint64(len(small))/4 {
			t.Errorf("%s: repeat of a %d-byte document allocated %d bytes; its buffer was not reused", f.name, len(small), got)
		}
		if got := repeat(large); got < uint64(len(large)) {
			t.Errorf("%s: repeat of a %d-byte document allocated %d bytes; its buffer stayed in the pool", f.name, len(large), got)
		}
	}
}
