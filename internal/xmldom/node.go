// Package xmldom implements a namespace-aware XML document object model.
//
// The model preserves the lexical form of the parsed document — element and
// attribute prefixes, attribute order, comments, and processing
// instructions — which is required by Canonical XML and by the XML
// Signature and XML Encryption processing rules built on top of it.
//
// The package is deliberately self-contained: parsing is built over the raw
// tokenizer of encoding/xml, and serialization follows the escaping rules
// of the XML 1.0 recommendation. Higher layers (internal/c14n,
// internal/xmldsig, internal/xmlenc) apply their own canonical output
// rules on top of this tree.
package xmldom

import (
	"fmt"
	"strings"

	"discsec/internal/xmlstream"
)

// Well-known namespace URIs used throughout the security stack.
const (
	XMLNamespace   = "http://www.w3.org/XML/1998/namespace"
	XMLNSNamespace = "http://www.w3.org/2000/xmlns/"
)

// NodeType identifies the concrete kind of a Node.
type NodeType int

// Node kinds. DocumentNode is the root container; the remaining kinds can
// appear as children of a Document (comments, PIs, one element) or of an
// Element.
const (
	DocumentNode NodeType = iota + 1
	ElementNode
	TextNode
	CommentNode
	ProcInstNode
)

func (t NodeType) String() string {
	switch t {
	case DocumentNode:
		return "document"
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	case ProcInstNode:
		return "processing-instruction"
	default:
		return fmt.Sprintf("NodeType(%d)", int(t))
	}
}

// Node is implemented by every member of the document tree.
type Node interface {
	// Type reports the concrete node kind.
	Type() NodeType
	// ParentElement returns the enclosing element, or nil for top-level
	// nodes (direct children of the Document) and detached nodes.
	ParentElement() *Element
	// setParent records the enclosing element; it does not detach the
	// node from a previous parent.
	setParent(*Element)
	// CloneNode returns a deep copy of the node with a nil parent.
	CloneNode() Node
}

// Attr is a single attribute, the tokenizer's own type: namespace
// declarations (xmlns and xmlns:*) are stored as ordinary attributes,
// and its IsNamespaceDecl and DeclaredPrefix methods tell them apart.
type Attr = xmlstream.Attr

// Document is the root of a parsed XML document. Children holds the
// document element along with any top-level comments and processing
// instructions, in document order.
type Document struct {
	Children []Node
}

// Type implements Node.
func (d *Document) Type() NodeType { return DocumentNode }

// ParentElement implements Node; a document has no parent.
func (d *Document) ParentElement() *Element { return nil }

func (d *Document) setParent(*Element) {}

// CloneNode returns a deep copy of the document.
func (d *Document) CloneNode() Node { return d.Clone() }

// Clone returns a deep copy of the document.
func (d *Document) Clone() *Document {
	out := &Document{}
	for _, c := range d.Children {
		out.Children = append(out.Children, c.CloneNode())
	}
	return out
}

// Root returns the document element, or nil if the document is empty.
func (d *Document) Root() *Element {
	for _, c := range d.Children {
		if e, ok := c.(*Element); ok {
			return e
		}
	}
	return nil
}

// SetRoot replaces the document element (or appends one if none exists),
// keeping surrounding comments and processing instructions in place.
func (d *Document) SetRoot(e *Element) {
	e.Detach()
	for i, c := range d.Children {
		if _, ok := c.(*Element); ok {
			d.Children[i] = e
			return
		}
	}
	d.Children = append(d.Children, e)
}

// Element is an XML element node.
type Element struct {
	// Prefix is the namespace prefix of the element name, possibly empty.
	Prefix string
	// Local is the local part of the element name.
	Local string
	// Attrs lists the attributes, including namespace declarations, in
	// document order.
	Attrs []Attr
	// Children lists child nodes in document order.
	Children []Node

	parent *Element
}

// NewElement returns a detached element. The name may carry a prefix
// ("ds:Signature").
func NewElement(name string) *Element {
	prefix, local := SplitQName(name)
	return &Element{Prefix: prefix, Local: local}
}

// SplitQName splits a qualified name into prefix and local part.
func SplitQName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// Type implements Node.
func (e *Element) Type() NodeType { return ElementNode }

// ParentElement implements Node.
func (e *Element) ParentElement() *Element { return e.parent }

func (e *Element) setParent(p *Element) { e.parent = p }

// Name returns the lexical element name (prefix:local or local).
func (e *Element) Name() string {
	if e.Prefix == "" {
		return e.Local
	}
	return e.Prefix + ":" + e.Local
}

// CloneNode implements Node.
func (e *Element) CloneNode() Node { return e.Clone() }

// Clone returns a deep copy of the element subtree with a nil parent.
func (e *Element) Clone() *Element {
	out := &Element{Prefix: e.Prefix, Local: e.Local}
	out.Attrs = append([]Attr(nil), e.Attrs...)
	for _, c := range e.Children {
		cc := c.CloneNode()
		cc.setParent(out)
		out.Children = append(out.Children, cc)
	}
	return out
}

// AppendChild adds n as the last child of e, detaching it from any
// previous parent, and returns e for chaining.
func (e *Element) AppendChild(n Node) *Element {
	detach(n)
	n.setParent(e)
	e.Children = append(e.Children, n)
	return e
}

// InsertChildAt inserts n at index i among e's children (clamped to the
// valid range), detaching it from any previous parent.
func (e *Element) InsertChildAt(i int, n Node) {
	detach(n)
	n.setParent(e)
	if i < 0 {
		i = 0
	}
	if i > len(e.Children) {
		i = len(e.Children)
	}
	e.Children = append(e.Children, nil)
	copy(e.Children[i+1:], e.Children[i:])
	e.Children[i] = n
}

// RemoveChild removes n from e's children, returning true if it was
// present. The removed node's parent is cleared.
func (e *Element) RemoveChild(n Node) bool {
	for i, c := range e.Children {
		if c == n {
			e.Children = append(e.Children[:i], e.Children[i+1:]...)
			n.setParent(nil)
			return true
		}
	}
	return false
}

// ReplaceChild substitutes repl for old among e's children, returning true
// if old was present.
func (e *Element) ReplaceChild(old, repl Node) bool {
	for i, c := range e.Children {
		if c == old {
			detach(repl)
			repl.setParent(e)
			e.Children[i] = repl
			old.setParent(nil)
			return true
		}
	}
	return false
}

// Detach removes e from its parent, if any.
func (e *Element) Detach() {
	detach(e)
}

func detach(n Node) {
	p := n.ParentElement()
	if p == nil {
		return
	}
	p.RemoveChild(n)
}

// ChildIndex returns the index of n among e's children, or -1.
func (e *Element) ChildIndex(n Node) int {
	for i, c := range e.Children {
		if c == n {
			return i
		}
	}
	return -1
}

// Attr returns the value of the named attribute (lexical name, possibly
// prefixed) and whether it is present.
func (e *Element) Attr(name string) (string, bool) {
	prefix, local := SplitQName(name)
	for _, a := range e.Attrs {
		if a.Prefix == prefix && a.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the value of the named attribute or "" when absent.
func (e *Element) AttrValue(name string) string {
	v, _ := e.Attr(name)
	return v
}

// SetAttr sets the named attribute, replacing an existing one with the
// same prefix and local part, and returns e for chaining.
func (e *Element) SetAttr(name, value string) *Element {
	prefix, local := SplitQName(name)
	for i, a := range e.Attrs {
		if a.Prefix == prefix && a.Local == local {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Prefix: prefix, Local: local, Value: value})
	return e
}

// RemoveAttr deletes the named attribute, reporting whether it existed.
func (e *Element) RemoveAttr(name string) bool {
	prefix, local := SplitQName(name)
	for i, a := range e.Attrs {
		if a.Prefix == prefix && a.Local == local {
			e.Attrs = append(e.Attrs[:i], e.Attrs[i+1:]...)
			return true
		}
	}
	return false
}

// ChildElements returns the element children in document order.
func (e *Element) ChildElements() []*Element {
	var out []*Element
	for _, c := range e.Children {
		if ce, ok := c.(*Element); ok {
			out = append(out, ce)
		}
	}
	return out
}

// FirstChildElement returns the first child element with the given local
// name (any namespace); an empty name matches any element. Returns nil if
// none matches.
func (e *Element) FirstChildElement(local string) *Element {
	for _, c := range e.Children {
		if ce, ok := c.(*Element); ok && (local == "" || ce.Local == local) {
			return ce
		}
	}
	return nil
}

// ChildElementsNamed returns child elements matching namespace URI and
// local name. An empty ns matches any namespace.
func (e *Element) ChildElementsNamed(ns, local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		ce, ok := c.(*Element)
		if !ok || ce.Local != local {
			continue
		}
		if ns != "" && ce.NamespaceURI() != ns {
			continue
		}
		out = append(out, ce)
	}
	return out
}

// FirstChildNamed returns the first child element matching namespace URI
// and local name, or nil.
func (e *Element) FirstChildNamed(ns, local string) *Element {
	for _, c := range e.Children {
		ce, ok := c.(*Element)
		if !ok || ce.Local != local {
			continue
		}
		if ns != "" && ce.NamespaceURI() != ns {
			continue
		}
		return ce
	}
	return nil
}

// Text returns the concatenation of all directly contained text nodes.
func (e *Element) Text() string {
	var b strings.Builder
	for _, c := range e.Children {
		if t, ok := c.(*Text); ok {
			b.WriteString(t.Data)
		}
	}
	return b.String()
}

// SetText replaces all children with a single text node and returns e.
func (e *Element) SetText(s string) *Element {
	for _, c := range e.Children {
		c.setParent(nil)
	}
	e.Children = e.Children[:0]
	e.AppendChild(&Text{Data: s})
	return e
}

// AddText appends a text node and returns e for chaining.
func (e *Element) AddText(s string) *Element {
	e.AppendChild(&Text{Data: s})
	return e
}

// CreateChild appends a new element with the given (possibly prefixed)
// name and returns the new child.
func (e *Element) CreateChild(name string) *Element {
	c := NewElement(name)
	e.AppendChild(c)
	return c
}

// Walk visits e and every descendant node in document order. If fn
// returns false for an element, its subtree is skipped.
func (e *Element) Walk(fn func(Node) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		if ce, ok := c.(*Element); ok {
			ce.Walk(fn)
		} else {
			fn(c)
		}
	}
}

// Descendants returns all descendant elements (excluding e) in document
// order.
func (e *Element) Descendants() []*Element {
	var out []*Element
	for _, c := range e.Children {
		if ce, ok := c.(*Element); ok {
			out = append(out, ce)
			out = append(out, ce.Descendants()...)
		}
	}
	return out
}

// Text is a character-data node. CDATA sections parse into Text nodes.
type Text struct {
	Data string

	parent *Element
}

// Type implements Node.
func (t *Text) Type() NodeType { return TextNode }

// ParentElement implements Node.
func (t *Text) ParentElement() *Element { return t.parent }

func (t *Text) setParent(p *Element) { t.parent = p }

// CloneNode implements Node.
func (t *Text) CloneNode() Node { return &Text{Data: t.Data} }

// Comment is an XML comment node.
type Comment struct {
	Data string

	parent *Element
}

// Type implements Node.
func (c *Comment) Type() NodeType { return CommentNode }

// ParentElement implements Node.
func (c *Comment) ParentElement() *Element { return c.parent }

func (c *Comment) setParent(p *Element) { c.parent = p }

// CloneNode implements Node.
func (c *Comment) CloneNode() Node { return &Comment{Data: c.Data} }

// ProcInst is a processing-instruction node.
type ProcInst struct {
	Target string
	Data   string

	parent *Element
}

// Type implements Node.
func (p *ProcInst) Type() NodeType { return ProcInstNode }

// ParentElement implements Node.
func (p *ProcInst) ParentElement() *Element { return p.parent }

func (p *ProcInst) setParent(e *Element) { p.parent = e }

// CloneNode implements Node.
func (p *ProcInst) CloneNode() Node { return &ProcInst{Target: p.Target, Data: p.Data} }
