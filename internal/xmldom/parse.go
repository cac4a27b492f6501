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
		// Nothing outside the builder saw the partial tree.
		builder.doc.Release()
		return nil, err
	}
	return builder.Document(), nil
}

// The synthetic root ParseFragment wraps a fragment in.
const fragmentOpen, fragmentClose = "<xmldom-fragment-wrapper>", "</xmldom-fragment-wrapper>"

// ParseFragment parses b, which may hold several sibling nodes (the
// plaintext of a decrypted Content-typed region, say), into detached
// nodes allocated from d's arena, so d's Release hands them back with
// the rest of its tree. A document without an arena gets nodes the GC
// reclaims. The wrapped input is arena scratch too: the builder copies
// every string out of it.
func (d *Document) ParseFragment(b []byte) ([]Node, error) {
	a := d.arena
	if a == nil {
		a = getArena()
	}
	a.wrap = append(append(append(a.wrap[:0], fragmentOpen...), b...), fragmentClose...)
	if err := xmlstream.ParseBytes(a.wrap, xmlstream.Options{}, newBuilder(nil, a)); err != nil {
		return nil, err
	}
	nodes := a.pending[0].(*Element).Children
	a.pending = a.pending[:0]
	for _, n := range nodes {
		n.setParent(nil)
	}
	return nodes, nil
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
		b.doc.Release()
		return nil, err
	}
	return b.Document(), nil
}
