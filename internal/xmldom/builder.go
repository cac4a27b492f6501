package xmldom

import "discsec/internal/xmlstream"

// StreamBuilder is an xmlstream.Handler that materializes the token
// stream as a Document. It is how Parse builds its tree, and
// it composes with other handlers so a single tokenization pass can
// build the DOM while, say, incremental canonicalization digests the
// same tokens.
//
// Elements, text nodes, their character data, attribute slices and
// child slices come from the document's pooled arena; Document.Release
// hands them back. Children are collected on a pending stack and carved
// when their parent closes, as exact-size slices, so building a child
// list never regrows one.
// The builder itself lives in the arena and is valid until the
// document is released.
//
// Well-formedness and security limits are enforced by the tokenizer
// before tokens reach the builder, so the builder itself cannot fail.
type StreamBuilder struct {
	doc *Document
	a   *arena

	// open is the text node the current run of Text calls builds. Its
	// first chunk is its Data; later chunks gather in the arena's
	// merged buffer and are written back once, when the next non-text
	// event closes the run, so a text node arriving in many chunks
	// costs linear, not quadratic, copying.
	open *Text
}

// newBuilder readies a's builder to build into doc from an input of n
// bytes; doc is nil for a fragment, whose nodes the caller takes from
// the pending list.
func newBuilder(doc *Document, a *arena, n int) *StreamBuilder {
	if doc != nil {
		doc.arena = a
	}
	a.begin()
	a.chars.want = min(n, charChunk)
	b := &a.builder
	*b = StreamBuilder{doc: doc, a: a}
	return b
}

// Document returns the built tree. Valid after a successful
// xmlstream.Parse pass.
func (b *StreamBuilder) Document() *Document {
	b.closeText()
	if a := b.a; len(a.pending) > 0 {
		b.doc.Children = a.carveNodes(a.pending)
		a.pending = a.pending[:0]
	}
	return b.doc
}

// closeText ends the current text run.
func (b *StreamBuilder) closeText() {
	if b.open != nil && len(b.a.merged) > 0 {
		b.open.Data = b.a.carveString(b.a.merged)
	}
	b.open, b.a.merged = nil, b.a.merged[:0]
}

// parent is the element the next node belongs to, nil at top level.
func (b *StreamBuilder) parent() *Element {
	if n := len(b.a.stack); n > 0 {
		return b.a.stack[n-1]
	}
	return nil
}

// StartElement implements xmlstream.Handler.
func (b *StreamBuilder) StartElement(prefix, local string, attrs []xmlstream.Attr) error {
	b.closeText()
	a := b.a
	e := a.elems.one()
	*e = Element{Prefix: prefix, Local: local, Attrs: a.carveAttrs(attrs), parent: b.parent()}
	a.pending = append(a.pending, e)
	a.stack = append(a.stack, e)
	a.marks = append(a.marks, len(a.pending))
	return nil
}

// EndElement implements xmlstream.Handler: the element's children are
// final, so their slice is carved.
func (b *StreamBuilder) EndElement(prefix, local string) error {
	b.closeText()
	a := b.a
	n := len(a.stack) - 1
	mark := a.marks[n]
	a.stack[n].Children = a.carveNodes(a.pending[mark:])
	a.pending = a.pending[:mark]
	a.stack, a.marks = a.stack[:n], a.marks[:n]
	return nil
}

// Text implements xmlstream.Handler. Adjacent character data chunks
// (CDATA boundaries, long runs) merge into one node so the tree has a
// normal form.
func (b *StreamBuilder) Text(data []byte) error {
	a := b.a
	if b.open == nil {
		t := a.texts.one()
		*t = Text{Data: a.carveString(data), parent: b.parent()}
		a.pending = append(a.pending, t)
		b.open = t
		return nil
	}
	if len(a.merged) == 0 {
		a.merged = append(a.merged, b.open.Data...)
	}
	a.merged = append(a.merged, data...)
	return nil
}

// Comment implements xmlstream.Handler.
func (b *StreamBuilder) Comment(data []byte) error {
	b.closeText()
	b.a.pending = append(b.a.pending, &Comment{Data: string(data), parent: b.parent()})
	return nil
}

// ProcInst implements xmlstream.Handler.
func (b *StreamBuilder) ProcInst(target string, data []byte) error {
	b.closeText()
	b.a.pending = append(b.a.pending, &ProcInst{Target: target, Data: string(data), parent: b.parent()})
	return nil
}
