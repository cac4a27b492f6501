package xmldom

import (
	"io"
	"strings"

	"discsec/internal/xmlstream"
)

// ErrDoctype is returned when a document contains a DOCTYPE
// declaration; there is no opt-in. It is the xmlstream sentinel: the
// tokenizer under this parser is where the rejection happens.
var ErrDoctype = xmlstream.ErrDoctype

// Parse reads an XML document from r to EOF into its arena and parses
// it as ParseBytes does, through the hardened tokenizer
// (internal/xmlstream), which preserves namespace prefixes exactly as
// written and enforces the well-formedness the raw tokenizer does not
// (matching end tags, single document element, duplicate attribute
// rejection) plus its default security limits (512 levels of nesting,
// 4 Mi tokens). A read error fails the parse before any token is
// scanned; errors.Is reaches it.
func Parse(r io.Reader) (*Document, error) {
	a := getArena()
	var err error
	if a.wrap, err = xmlstream.ReadAll(a.wrap[:0], r); err != nil {
		a.release()
		return nil, err
	}
	return parse(a, a.wrap)
}

// ParseString parses an XML document from a string with default options.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// ParseBytes parses an XML document from a byte slice with default
// options, scanning the slice in place.
func ParseBytes(b []byte) (*Document, error) {
	return parse(getArena(), b)
}

// parse builds b into a new document backed by a, its character slab
// sized from len(b).
func parse(a *arena, b []byte) (*Document, error) {
	builder := newBuilder(&Document{}, a, len(b))
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
	if err := xmlstream.ParseBytes(a.wrap, xmlstream.Options{}, newBuilder(nil, a, len(b))); err != nil {
		return nil, err
	}
	nodes := a.pending[0].(*Element).Children
	a.pending = a.pending[:0]
	for _, n := range nodes {
		n.setParent(nil)
	}
	return nodes, nil
}
