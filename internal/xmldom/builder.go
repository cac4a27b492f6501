package xmldom

import "discsec/internal/xmlstream"

// StreamBuilder is an xmlstream.Handler that materializes the token
// stream as a Document. It is how ParseWithOptions builds its tree, and
// it composes with other handlers so a single tokenization pass can
// build the DOM while, say, incremental canonicalization digests the
// same tokens.
//
// Well-formedness and security limits are enforced by xmlstream.Parse
// before tokens reach the builder, so the builder itself cannot fail.
type StreamBuilder struct {
	doc   *Document
	stack []*Element

	// open is the text node the current run of Text calls builds. Its
	// first chunk is its Data; later chunks gather in merged and are
	// written back once, when the next non-text event closes the run,
	// so a text node arriving in many chunks costs linear, not
	// quadratic, copying.
	open   *Text
	merged []byte
}

// NewStreamBuilder returns a builder for one document.
func NewStreamBuilder() *StreamBuilder {
	return &StreamBuilder{doc: &Document{}}
}

// Document returns the built tree. Valid after a successful
// xmlstream.Parse pass.
func (b *StreamBuilder) Document() *Document {
	b.closeText()
	return b.doc
}

// closeText ends the current text run.
func (b *StreamBuilder) closeText() {
	if b.open != nil && len(b.merged) > 0 {
		b.open.Data = string(b.merged)
	}
	b.open, b.merged = nil, b.merged[:0]
}

// StartElement implements xmlstream.Handler.
func (b *StreamBuilder) StartElement(prefix, local string, attrs []xmlstream.Attr) error {
	b.closeText()
	e := &Element{Prefix: prefix, Local: local}
	if len(attrs) > 0 {
		e.Attrs = make([]Attr, len(attrs))
		for i, a := range attrs {
			e.Attrs[i] = Attr{Prefix: a.Prefix, Local: a.Local, Value: a.Value}
		}
	}
	if len(b.stack) == 0 {
		b.doc.Children = append(b.doc.Children, e)
	} else {
		b.stack[len(b.stack)-1].AppendChild(e)
	}
	b.stack = append(b.stack, e)
	return nil
}

// EndElement implements xmlstream.Handler.
func (b *StreamBuilder) EndElement(prefix, local string) error {
	b.closeText()
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

// Text implements xmlstream.Handler. Adjacent character data chunks
// (CDATA boundaries, long runs) merge into one node so the tree has a
// normal form.
func (b *StreamBuilder) Text(data []byte) error {
	if b.open == nil {
		b.open = &Text{Data: string(data)}
		b.stack[len(b.stack)-1].AppendChild(b.open)
		return nil
	}
	if len(b.merged) == 0 {
		b.merged = append(b.merged, b.open.Data...)
	}
	b.merged = append(b.merged, data...)
	return nil
}

// Comment implements xmlstream.Handler.
func (b *StreamBuilder) Comment(data []byte) error {
	b.closeText()
	c := &Comment{Data: string(data)}
	if len(b.stack) == 0 {
		b.doc.Children = append(b.doc.Children, c)
	} else {
		b.stack[len(b.stack)-1].AppendChild(c)
	}
	return nil
}

// ProcInst implements xmlstream.Handler.
func (b *StreamBuilder) ProcInst(target string, data []byte) error {
	b.closeText()
	pi := &ProcInst{Target: target, Data: string(data)}
	if len(b.stack) == 0 {
		b.doc.Children = append(b.doc.Children, pi)
	} else {
		b.stack[len(b.stack)-1].AppendChild(pi)
	}
	return nil
}
