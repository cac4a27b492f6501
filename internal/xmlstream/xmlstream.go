// Package xmlstream is the module's single hardened XML tokenizer: a
// SAX-style parser that feeds handlers one token at a time, never
// building a tree.
//
// It exists so the cold verification path can be a single pass — the
// same token stream that builds a DOM (xmldom.StreamBuilder) can
// simultaneously drive incremental canonicalization and digesting
// (c14n.Stream), which is how the verification library computes its
// cache key without building a tree at all. Because xmldom's tree
// parser is itself built on this package, streaming and DOM pipelines
// agree on accept/reject verdicts by construction; the differential
// fuzz targets pin that property.
//
// The tokenizer is a byte-level scanner (scan.go) over one resident
// input: ParseBytes scans the caller's slice in place, and Parse reads
// its reader to EOF into the pooled parser's buffer and scans that. It
// accepts exactly the grammar the system needs — elements, attributes,
// character data, CDATA sections, comments, processing instructions,
// the five predefined entities and character references — and rejects
// every document type declaration. A reference tokenizer built on
// encoding/xml lives in the package tests; FuzzTokenizerDifferential
// holds the two to the same accept/reject verdicts and token streams.
//
// The hardening the XML security processing model requires lives here,
// below every consumer: DOCTYPE rejection (entity expansion, default
// attributes), element nesting depth and total token limits, duplicate
// attribute rejection, matching end tags, and a single document
// element. Namespace prefixes are preserved exactly as written — this
// is a raw tokenizer, not a namespace-resolving one — because
// canonicalization and signature processing need the author's prefixes.
package xmlstream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Options controls parsing limits.
type Options struct {
	// MaxDepth bounds element nesting; 0 means the default of 512.
	MaxDepth int
	// MaxTokens bounds the total token count; 0 means the default of
	// 4 * 1024 * 1024. A character-data run, a CDATA section, a
	// comment, a processing instruction (the XML declaration
	// included), and each start and end tag count one token; an empty
	// element tag counts two.
	MaxTokens int
}

const (
	defaultMaxDepth  = 512
	defaultMaxTokens = 4 << 20
)

// ErrDoctype is returned when a document contains a document type
// declaration. The XML security processing model treats DTDs (entity
// expansion, default attributes) as an attack surface, so they are
// always rejected.
var ErrDoctype = errors.New("xmlstream: document type declarations are not allowed")

// Attr is one attribute exactly as written: prefix split from local
// name, namespace declarations included.
type Attr struct {
	// Prefix is the namespace prefix ("ds" in ds:Id), empty when the
	// name has none.
	Prefix string
	// Local is the local part of the name.
	Local string
	// Value is the value after entity and character reference
	// expansion.
	Value string
}

// Name renders the attribute name as written.
func (a Attr) Name() string {
	if a.Prefix == "" {
		return a.Local
	}
	return a.Prefix + ":" + a.Local
}

// IsNamespaceDecl reports whether the attribute declares a namespace
// (xmlns="..." or xmlns:p="...").
func (a Attr) IsNamespaceDecl() bool {
	return (a.Prefix == "" && a.Local == "xmlns") || a.Prefix == "xmlns"
}

// DeclaredPrefix returns the prefix a namespace declaration binds
// ("" for the default namespace).
func (a Attr) DeclaredPrefix() string {
	if a.Prefix == "xmlns" {
		return a.Local
	}
	return ""
}

// Handler receives the token stream. The attrs slice and byte payloads
// are reused between calls and are only valid for the duration of the
// call; a handler that retains them must copy. Names and attribute
// values are ordinary strings and may be kept.
//
// Character data inside the root element may arrive in chunks — at
// CDATA boundaries, and anywhere inside a long run — so consecutive
// Text calls are one logical text node. Every run of character data
// and every CDATA section produces at least one Text call (an empty
// CDATA section produces one empty call). Whitespace-only character
// data outside the document element is dropped by the parser, as is
// the XML declaration.
type Handler interface {
	StartElement(prefix, local string, attrs []Attr) error
	EndElement(prefix, local string) error
	Text(data []byte) error
	Comment(data []byte) error
	ProcInst(target string, data []byte) error
}

// name is one open element on the parser stack.
type name struct {
	prefix, local string
}

var parserPool = sync.Pool{New: newParser}

// newParser is the pool's first-touch factory: a declared function so
// Parse never builds a closure.
func newParser() any {
	return &parser{
		stack: make([]name, 0, 32),
		attrs: make([]Attr, 0, 16),
	}
}

// Parse tokenizes one XML document from r, feeding every token to each
// handler in order. It reads r to EOF into the pooled parser's buffer
// (ReadAll) and scans those bytes as ParseBytes does. It enforces
// well-formedness (matching end tags, single document element, no
// duplicate attributes) plus the security limits in opts, and returns
// the first error from the input, the grammar, the limits, or a
// handler.
//
//discvet:hotpath per-token dispatch of the verification pipeline; input, stack and attribute buffers are pooled, allocation only on error paths
func Parse(r io.Reader, opts Options, handlers ...Handler) error {
	p := getParser(opts, handlers)
	defer putParser(p)
	var err error
	if p.in, err = ReadAll(p.in[:0], r); err != nil {
		return err
	}
	p.buf = p.in
	return p.run()
}

// ParseBytes tokenizes a resident document: the scanner works on data
// in place, and character data that needs no unescaping reaches
// handlers as subslices of data.
//
//discvet:hotpath the key front scans every warm open through here
func ParseBytes(data []byte, opts Options, handlers ...Handler) error {
	p := getParser(opts, handlers)
	defer putParser(p)
	p.buf = data
	return p.run()
}

// ReadAll appends what r yields up to EOF to dst and returns the
// extended slice. Read errors are wrapped, so errors.Is and errors.As
// reach them, and a reader that returns neither bytes nor an error 100
// times in a row fails with io.ErrNoProgress.
func ReadAll(dst []byte, r io.Reader) ([]byte, error) {
	for empty := 0; ; {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		switch {
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, errRead(err)
		case n > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				return dst, errRead(io.ErrNoProgress)
			}
		}
	}
}

func getParser(opts Options, handlers []Handler) *parser {
	p := parserPool.Get().(*parser)
	p.maxDepth = opts.MaxDepth
	if p.maxDepth <= 0 {
		p.maxDepth = defaultMaxDepth
	}
	p.maxTokens = opts.MaxTokens
	if p.maxTokens <= 0 {
		p.maxTokens = defaultMaxTokens
	}
	// Copying the handlers keeps the caller's variadic slice off the
	// heap.
	p.handlers = append(p.handlers[:0], handlers...)
	p.stack = p.stack[:0]
	p.pos = 0
	p.tokens, p.sawRoot = 0, false
	return p
}

// maxPooled and maxPooledAttrs bound the scratch a parser keeps across
// documents: a buffer grown past them by one huge document read by
// Parse, one huge construct (or one element with a huge attribute list)
// is dropped rather than pinned in the pool.
const (
	maxPooled      = 1 << 20
	maxPooledAttrs = 1 << 10
)

//discvet:coldpath pool return is once per document
func putParser(p *parser) {
	p.buf = nil
	clear(p.handlers)
	p.handlers = p.handlers[:0]
	if cap(p.in) > maxPooled {
		p.in = nil
	}
	if cap(p.text) > maxPooled {
		p.text = nil
	}
	if cap(p.val) > maxPooled {
		p.val = nil
	}
	if cap(p.attrs) > maxPooledAttrs {
		p.attrs = make([]Attr, 0, 16)
	}
	parserPool.Put(p)
}

// run is the token loop: character data until the next '<', markup
// from there, until the input ends.
func (p *parser) run() error {
	for p.pos < len(p.buf) {
		var err error
		if p.buf[p.pos] == '<' {
			err = p.markup()
		} else {
			err = p.chars(false)
		}
		if err != nil {
			return err
		}
	}
	if len(p.stack) != 0 {
		top := p.stack[len(p.stack)-1]
		return errUnclosed(top.prefix, top.local)
	}
	if !p.sawRoot {
		return errNoRoot()
	}
	return nil
}

// token counts one token against the limit.
func (p *parser) token() error {
	p.tokens++
	if p.tokens > p.maxTokens {
		return errTokenLimit(p.maxTokens)
	}
	return nil
}

// startElement applies the document-level checks to a scanned start
// tag (its attributes are in p.attrs) and dispatches it.
func (p *parser) startElement(prefix, local string) error {
	if err := p.token(); err != nil {
		return err
	}
	if len(p.stack) == 0 && p.sawRoot {
		return errMultipleRoots()
	}
	if len(p.stack) >= p.maxDepth {
		return errDepthLimit(p.maxDepth)
	}
	if err := checkDuplicateAttrs(p.attrs, prefix, local); err != nil {
		return err
	}
	p.stack = append(p.stack, name{prefix: prefix, local: local})
	p.sawRoot = true
	for _, h := range p.handlers {
		if err := h.StartElement(prefix, local, p.attrs); err != nil {
			return err
		}
	}
	return nil
}

// endElement matches an end tag (or the implicit end of an empty
// element tag) against the open element and dispatches it.
func (p *parser) endElement(prefix, local string) error {
	if err := p.token(); err != nil {
		return err
	}
	if len(p.stack) == 0 {
		return errUnexpectedEnd(prefix, local)
	}
	top := p.stack[len(p.stack)-1]
	if top.prefix != prefix || top.local != local {
		return errEndMismatch(prefix, local, top)
	}
	p.stack = p.stack[:len(p.stack)-1]
	for _, h := range p.handlers {
		if err := h.EndElement(prefix, local); err != nil {
			return err
		}
	}
	return nil
}

// emitText hands one chunk of character data to the handlers. Outside
// the document element only whitespace is allowed, and it is dropped.
// Chunks always end on a rune boundary, so checking them one at a time
// is checking the run.
func (p *parser) emitText(data []byte) error {
	if len(p.stack) == 0 {
		if len(bytes.TrimSpace(data)) > 0 {
			return errStrayCharData()
		}
		return nil
	}
	for _, h := range p.handlers {
		if err := h.Text(data); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) emitComment(data []byte) error {
	for _, h := range p.handlers {
		if err := h.Comment(data); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) emitProcInst(target string, data []byte) error {
	for _, h := range p.handlers {
		if err := h.ProcInst(target, data); err != nil {
			return err
		}
	}
	return nil
}

// checkDuplicateAttrs rejects repeated attribute names. The common
// small-attribute case is a quadratic scan over the pooled buffer (no
// allocation); pathological attribute counts fall back to a map so
// adversarial inputs stay linear.
//
//discvet:hotpath runs on every start tag; must not allocate for ordinary elements
func checkDuplicateAttrs(attrs []Attr, prefix, local string) error {
	if len(attrs) < 2 {
		return nil
	}
	if len(attrs) > 16 {
		return checkDuplicateAttrsLarge(attrs, prefix, local)
	}
	for i := 1; i < len(attrs); i++ {
		for j := 0; j < i; j++ {
			if attrs[i].Prefix == attrs[j].Prefix && attrs[i].Local == attrs[j].Local {
				return errDuplicateAttr(attrs[i], prefix, local)
			}
		}
	}
	return nil
}

//discvet:coldpath rare wide elements; the map keeps hostile attribute lists linear
func checkDuplicateAttrsLarge(attrs []Attr, prefix, local string) error {
	seen := make(map[Attr]struct{}, len(attrs))
	for _, a := range attrs {
		k := Attr{Prefix: a.Prefix, Local: a.Local}
		if _, dup := seen[k]; dup {
			return errDuplicateAttr(a, prefix, local)
		}
		seen[k] = struct{}{}
	}
	return nil
}

// Error constructors live off the hot path: the per-token loop only
// calls them when the parse is already failing.

//discvet:coldpath error path
func errRead(err error) error { return fmt.Errorf("xmlstream: parse: %w", err) }

//discvet:coldpath error path
func errSyntax(offset int, msg string) error {
	return fmt.Errorf("xmlstream: parse: syntax error at byte %d: %s", offset, msg)
}

//discvet:coldpath error path
func errTokenLimit(n int) error { return fmt.Errorf("xmlstream: parse: token limit %d exceeded", n) }

//discvet:coldpath error path
func errDepthLimit(n int) error {
	return fmt.Errorf("xmlstream: parse: nesting depth limit %d exceeded", n)
}

//discvet:coldpath error path
func errMultipleRoots() error { return errors.New("xmlstream: parse: multiple document elements") }

//discvet:coldpath error path
func errStrayCharData() error {
	return errors.New("xmlstream: parse: character data outside document element")
}

//discvet:coldpath error path
func errNoRoot() error { return errors.New("xmlstream: parse: no document element") }

//discvet:coldpath error path
func errUnexpectedEnd(prefix, local string) error {
	return fmt.Errorf("xmlstream: parse: unexpected end tag </%s>", rawName(prefix, local))
}

//discvet:coldpath error path
func errEndMismatch(prefix, local string, top name) error {
	return fmt.Errorf("xmlstream: parse: end tag </%s> does not match <%s>", rawName(prefix, local), rawName(top.prefix, top.local))
}

//discvet:coldpath error path
func errUnclosed(prefix, local string) error {
	return fmt.Errorf("xmlstream: parse: unclosed element <%s>", rawName(prefix, local))
}

//discvet:coldpath error path
func errDuplicateAttr(a Attr, prefix, local string) error {
	return fmt.Errorf("xmlstream: parse: duplicate attribute %q on <%s>", a.Name(), rawName(prefix, local))
}

func rawName(prefix, local string) string {
	if prefix == "" {
		return local
	}
	return prefix + ":" + local
}
