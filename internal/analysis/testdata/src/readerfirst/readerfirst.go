// Fixture for the readerfirst analyzer: payloads buffered with
// io.ReadAll must not be re-wrapped in a reader just to call a
// streaming verification entry.
package fixture

import (
	"bytes"
	"context"
	"io"
	"strings"

	"discsec/internal/core"
	"discsec/internal/library"
	"discsec/internal/player"
	"discsec/internal/xmldom"
)

// Inline wrap: the buffer flows straight back into a reader argument.
func inlineWrap(ctx context.Context, op *core.Opener, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	_, err = op.OpenReader(ctx, bytes.NewReader(buf)) // want readerfirst
	return err
}

// Two-step wrap: the reader is built first, then passed.
func twoStepWrap(ctx context.Context, lib *library.Library, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	br := bytes.NewReader(buf)
	_, _, err = lib.OpenReader(ctx, br) // want readerfirst
	return err
}

// String conversion does not launder the buffer.
func stringWrap(ctx context.Context, e *player.Engine, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	_, err = e.LoadFrom(ctx, strings.NewReader(string(buf))) // want readerfirst
	return err
}

// Plain functions are entries too, not just methods.
func parseWrap(r io.Reader) (*xmldom.Document, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return xmldom.Parse(bytes.NewReader(buf)) // want readerfirst
}

// A bytes.Buffer over the buffer is a wrap too.
func bufferWrap(r io.Reader) (*xmldom.Document, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return xmldom.ParseWithOptions(bytes.NewBuffer(buf), xmldom.ParseOptions{}) // want readerfirst
}

// Clean: the original reader flows straight through.
func passThrough(ctx context.Context, op *core.Opener, r io.Reader) error {
	_, err := op.OpenReader(ctx, r)
	return err
}

// Clean: resident bytes use the []byte form of the API.
func byteForm(ctx context.Context, op *core.Opener, r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	_, err = op.Open(ctx, buf)
	return err
}

// Clean: a reader over bytes that were never an io.ReadAll buffer.
func residentBytes(ctx context.Context, op *core.Opener, raw []byte) error {
	_, err := op.OpenReader(ctx, bytes.NewReader(raw))
	return err
}
