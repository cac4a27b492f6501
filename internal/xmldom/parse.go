package xmldom

import (
	"io"
	"strings"

	"discsec/internal/xmlstream"
)

// ParseOptions controls document parsing.
type ParseOptions struct {
	// MaxDepth bounds element nesting; 0 means the default of 512.
	MaxDepth int
	// MaxTokens bounds the total token count; 0 means the default of
	// 4 * 1024 * 1024.
	MaxTokens int
}

// ErrDoctype is returned when a document contains a DOCTYPE
// declaration; there is no opt-in. It is the xmlstream sentinel: the
// tokenizer under this parser is where the rejection happens.
var ErrDoctype = xmlstream.ErrDoctype

// Parse reads an XML document with default options.
func Parse(r io.Reader) (*Document, error) {
	return ParseWithOptions(r, ParseOptions{})
}

// ParseString parses an XML document from a string with default options.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// ParseBytes parses an XML document from a byte slice with default
// options, scanning the slice in place.
func ParseBytes(b []byte) (*Document, error) {
	builder := NewStreamBuilder()
	if err := xmlstream.ParseBytes(b, xmlstream.Options{}, builder); err != nil {
		return nil, err
	}
	return builder.Document(), nil
}

// ParseWithOptions reads an XML document through the hardened streaming
// tokenizer (internal/xmlstream), which preserves namespace prefixes
// exactly as written and enforces the well-formedness the raw tokenizer
// does not (matching end tags, single document element, duplicate
// attribute rejection) plus the security limits in opts. The tree is
// materialized by a StreamBuilder, so a DOM parse and a streaming pass
// over the same input see the identical token stream.
func ParseWithOptions(r io.Reader, opts ParseOptions) (*Document, error) {
	b := NewStreamBuilder()
	err := xmlstream.Parse(r, xmlstream.Options{MaxDepth: opts.MaxDepth, MaxTokens: opts.MaxTokens}, b)
	if err != nil {
		return nil, err
	}
	return b.Document(), nil
}
