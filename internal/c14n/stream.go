package c14n

import (
	"io"
	"math/bits"
	"sync"

	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlstream"
)

// Stream is the canonicalizer: an xmlstream.Handler that writes the
// canonical form to w as events arrive, in one pass, holding only the
// open-element namespace context — never the tree. Every mode runs
// here: fed a document's token stream it canonicalizes the document,
// and Canonicalize, CanonicalizeExcept and CanonicalizeDocument feed it
// a DOM walk. The differential tests pin it against the reference tree
// walker in oracle_test.go.
//
// A document subset (an apex element with ancestors) inherits context
// a forward pass never sees; the DOM entry points seed it before the
// walk. A token stream is always a whole document, with no ancestors.
//
// A Stream is single-use and not safe for concurrent use. Call Close
// after the parse to flush buffered output.
type Stream struct {
	w    io.Writer
	opts Options
	sp   obs.Span
	err  error

	// scratch holds the output buffer and the per-element state. It is
	// pooled: NewStream takes one, Close returns it.
	*scratch

	depth    int
	seenRoot bool
}

// scratch is the reusable part of a Stream.
type scratch struct {
	// buf batches canonical bytes so the writer (typically a hash)
	// sees large writes; it is reused, never retained.
	buf []byte

	// scope holds the in-scope namespace declarations of the open
	// elements in document order; the latest binding of a prefix wins,
	// so lookups scan backward. rendered holds the declarations output
	// ancestors actually emitted (the exclusive-C14N rendered context).
	scope         []nsBinding
	scopeMarks    []int
	rendered      []nsBinding
	renderedMarks []int

	// inherited holds the xml:lang, xml:space and xml:base an inclusive
	// subset apex imports from its nearest ancestors.
	inherited []xmlstream.Attr

	// Per-element scratch, reused across elements.
	utilized []string
	nsOut    []nsBinding
	attrOut  []attrEntry
}

var scratchPool = sync.Pool{New: newScratch}

// newScratch is the pool's first-touch factory: a declared function so
// NewStream never builds a closure.
func newScratch() any {
	return &scratch{buf: make([]byte, 0, streamFlushAt)}
}

// release empties the scratch for its next Stream. Strings the last
// document left behind are cleared so the pool does not pin them; a
// buffer one huge token grew far past the flush threshold is dropped.
func (sc *scratch) release() {
	if cap(sc.buf) > 4*streamFlushAt {
		sc.buf = make([]byte, 0, streamFlushAt)
	}
	sc.buf = sc.buf[:0]
	sc.scope = clearBindings(sc.scope)
	sc.rendered = clearBindings(sc.rendered)
	sc.nsOut = clearBindings(sc.nsOut)
	sc.scopeMarks, sc.renderedMarks = sc.scopeMarks[:0], sc.renderedMarks[:0]
	clear(sc.utilized[:cap(sc.utilized)])
	sc.utilized = sc.utilized[:0]
	clear(sc.attrOut[:cap(sc.attrOut)])
	sc.attrOut = sc.attrOut[:0]
	clear(sc.inherited[:cap(sc.inherited)])
	sc.inherited = sc.inherited[:0]
}

func clearBindings(b []nsBinding) []nsBinding {
	clear(b[:cap(b)])
	return b[:0]
}

type nsBinding struct {
	prefix, uri string
}

type attrEntry struct {
	uri    string
	prefix string
	local  string
	value  string
}

// streamFlushAt is the buffered-byte threshold that triggers a write
// to the underlying writer.
const streamFlushAt = 32 << 10

// NewStream builds a streaming canonicalizer writing to w. When
// opts.Recorder is set, one obs.StageC14N span covers NewStream through
// Close. The error is always nil.
func NewStream(w io.Writer, opts Options) (*Stream, error) {
	return newStream(w, opts), nil
}

func newStream(w io.Writer, opts Options) *Stream {
	s := new(Stream)
	s.init(w, opts)
	return s
}

// init readies a zero Stream.
func (s *Stream) init(w io.Writer, opts Options) {
	*s = Stream{
		w:       w,
		opts:    opts,
		sp:      opts.Recorder.Start(obs.StageC14N),
		scratch: scratchPool.Get().(*scratch),
	}
}

// Close flushes buffered canonical bytes, ends the span, and returns
// the Stream's buffers to the pool. It must be called after a
// successful parse; the canonical output is complete only once Close
// returns nil. The Stream must not be fed tokens after Close; calling
// Close again only reports the first result.
func (s *Stream) Close() error {
	if s.scratch == nil {
		return s.err
	}
	s.flush()
	s.sp.End()
	sc := s.scratch
	s.scratch = nil
	sc.release()
	scratchPool.Put(sc)
	return s.err
}

// StartElement implements xmlstream.Handler.
//
//discvet:hotpath per-token canonicalization of every streamed verification; scratch buffers are struct fields, reused
func (s *Stream) StartElement(prefix, local string, attrs []xmlstream.Attr) error {
	apex := s.depth == 0
	mark := len(s.scope)
	s.scopeMarks = append(s.scopeMarks, mark)
	s.renderedMarks = append(s.renderedMarks, len(s.rendered))
	for _, a := range attrs {
		if a.IsNamespaceDecl() {
			s.scope = append(s.scope, nsBinding{prefix: a.DeclaredPrefix(), uri: a.Value})
		}
	}

	// Candidate prefixes. Exclusive: the visibly utilized ones — the
	// element's own, those of its non-namespace attributes, and the
	// InclusiveNamespaces PrefixList. Inclusive: every in-scope prefix
	// at the apex; below it the element's own declarations, since every
	// other binding equals the parent's.
	s.utilized = s.utilized[:0]
	switch {
	case s.opts.Exclusive:
		s.utilized = append(s.utilized, prefix)
		for _, a := range attrs {
			if !a.IsNamespaceDecl() && a.Prefix != "" {
				s.utilized = appendUnique(s.utilized, a.Prefix)
			}
		}
		for _, p := range s.opts.InclusivePrefixes {
			if p == "#default" {
				p = ""
			}
			s.utilized = appendUnique(s.utilized, p)
		}
	case apex:
		for _, b := range s.scope {
			s.utilized = appendUnique(s.utilized, b.prefix)
		}
	default:
		for _, b := range s.scope[mark:] {
			s.utilized = append(s.utilized, b.prefix)
		}
	}

	// Emit each candidate binding unless an output ancestor already
	// rendered the identical one. In inclusive mode the rendered
	// context below the apex is the parent's scope, so this renders
	// exactly the declarations that differ from it.
	s.nsOut = s.nsOut[:0]
	for _, p := range s.utilized {
		uri := lookupBinding(s.scope, p)
		if p == "xml" && uri == xmldom.XMLNamespace {
			continue
		}
		prev, has := lookupBindingOK(s.rendered, p)
		if p == "" && uri == "" {
			// xmlns="" is rendered only to cancel an inherited
			// non-empty default namespace.
			if has && prev != "" {
				s.emitNS("", "")
			}
			continue
		}
		if uri == "" && s.opts.Exclusive {
			// Unbound non-default prefix: nothing to declare.
			continue
		}
		if !has || prev != uri {
			s.emitNS(p, uri)
		}
	}
	sortBindings(s.nsOut)

	// Non-namespace attributes in canonical order: ascending by
	// (namespace URI, local name), document order for ties.
	s.attrOut = s.attrOut[:0]
	for _, a := range attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		s.attrOut = append(s.attrOut, attrEntry{uri: s.attrNS(a), prefix: a.Prefix, local: a.Local, value: a.Value})
	}
	if apex {
		for _, a := range s.inherited {
			if !hasXMLAttr(attrs, a.Local) {
				s.attrOut = append(s.attrOut, attrEntry{uri: xmldom.XMLNamespace, prefix: a.Prefix, local: a.Local, value: a.Value})
			}
		}
	}
	sortAttrEntries(s.attrOut)

	s.buf = append(s.buf, '<')
	s.buf = appendQName(s.buf, prefix, local)
	for _, ns := range s.nsOut {
		if ns.prefix == "" {
			s.buf = append(s.buf, ` xmlns="`...)
		} else {
			s.buf = append(s.buf, ` xmlns:`...)
			s.buf = append(s.buf, ns.prefix...)
			s.buf = append(s.buf, `="`...)
		}
		s.buf = appendAttrValue(s.buf, ns.uri)
		s.buf = append(s.buf, '"')
	}
	for _, a := range s.attrOut {
		s.buf = append(s.buf, ' ')
		s.buf = appendQName(s.buf, a.prefix, a.local)
		s.buf = append(s.buf, `="`...)
		s.buf = appendAttrValue(s.buf, a.value)
		s.buf = append(s.buf, '"')
	}
	s.buf = append(s.buf, '>')

	s.depth++
	s.seenRoot = true
	s.maybeFlush()
	return s.err
}

// EndElement implements xmlstream.Handler.
//
//discvet:hotpath runs on every end tag of a streamed verification
func (s *Stream) EndElement(prefix, local string) error {
	s.buf = append(s.buf, '<', '/')
	s.buf = appendQName(s.buf, prefix, local)
	s.buf = append(s.buf, '>')

	n := len(s.scopeMarks) - 1
	s.scope = s.scope[:s.scopeMarks[n]]
	s.scopeMarks = s.scopeMarks[:n]
	s.rendered = s.rendered[:s.renderedMarks[n]]
	s.renderedMarks = s.renderedMarks[:n]
	s.depth--
	s.maybeFlush()
	return s.err
}

// Text implements xmlstream.Handler. Chunked character data escapes
// identically to the merged text node: the canonical escaping is
// byte-local.
func (s *Stream) Text(data []byte) error { return text(s, data) }

// Comment implements xmlstream.Handler, honoring WithComments and the
// top-level newline placement of the recommendation.
func (s *Stream) Comment(data []byte) error { return comment(s, data) }

// ProcInst implements xmlstream.Handler.
func (s *Stream) ProcInst(target string, data []byte) error { return procInst(s, target, data) }

// text, comment and procInst take token bytes and DOM strings alike, so
// neither is copied on the way to the escapers. A text run is escaped
// in slices that fill the buffer up to streamFlushAt, so a clip's
// megabytes of character data never stage whole in the buffer; the
// escaping is byte-local, so where the slices fall does not matter.
//
//discvet:hotpath character data dominates clip payloads; must not allocate per chunk
func text[T string | []byte](s *Stream, data T) error {
	if s.depth == 0 {
		// Whitespace between top-level constructs is not part of the
		// canonical form.
		return nil
	}
	for room := streamFlushAt - len(s.buf); len(data) > room; room = streamFlushAt - len(s.buf) {
		if room > 0 {
			s.buf = appendText(s.buf, data[:room])
			data = data[room:]
		}
		s.flush()
	}
	s.buf = appendText(s.buf, data)
	s.maybeFlush()
	return s.err
}

func comment[T string | []byte](s *Stream, data T) error {
	if !s.opts.WithComments {
		return nil
	}
	if s.depth == 0 && s.seenRoot {
		s.buf = append(s.buf, '\n')
	}
	s.buf = append(s.buf, `<!--`...)
	s.buf = append(s.buf, data...)
	s.buf = append(s.buf, `-->`...)
	if s.depth == 0 && !s.seenRoot {
		s.buf = append(s.buf, '\n')
	}
	s.maybeFlush()
	return s.err
}

func procInst[T string | []byte](s *Stream, target string, data T) error {
	if s.depth == 0 && s.seenRoot {
		s.buf = append(s.buf, '\n')
	}
	s.buf = append(s.buf, `<?`...)
	s.buf = append(s.buf, target...)
	if len(data) != 0 {
		s.buf = append(s.buf, ' ')
		s.buf = append(s.buf, data...)
	}
	s.buf = append(s.buf, `?>`...)
	if s.depth == 0 && !s.seenRoot {
		s.buf = append(s.buf, '\n')
	}
	s.maybeFlush()
	return s.err
}

// attrNS resolves an attribute's namespace URI: unprefixed attributes
// are in no namespace, xml: is fixed, everything else goes through the
// live scope.
//
//discvet:hotpath attribute ordering on every start tag
func (s *Stream) attrNS(a xmlstream.Attr) string {
	if a.Prefix == "" {
		return ""
	}
	if a.Prefix == "xml" {
		return xmldom.XMLNamespace
	}
	return lookupBinding(s.scope, a.Prefix)
}

//discvet:hotpath namespace emission on every start tag
func (s *Stream) emitNS(prefix, uri string) {
	s.nsOut = append(s.nsOut, nsBinding{prefix: prefix, uri: uri})
	s.rendered = append(s.rendered, nsBinding{prefix: prefix, uri: uri})
}

//discvet:hotpath buffered writes keep the hash fed without per-token Write calls
func (s *Stream) maybeFlush() {
	if len(s.buf) >= streamFlushAt {
		s.flush()
	}
}

func (s *Stream) flush() {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// lookupBinding scans the declaration stack backward so the nearest
// declaration of a prefix wins; absent prefixes resolve to "".
//
//discvet:hotpath namespace resolution on every start tag
func lookupBinding(stack []nsBinding, prefix string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].prefix == prefix {
			return stack[i].uri
		}
	}
	return ""
}

//discvet:hotpath rendered-context probe on every start tag
func lookupBindingOK(stack []nsBinding, prefix string) (string, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].prefix == prefix {
			return stack[i].uri, true
		}
	}
	return "", false
}

// hasXMLAttr reports whether attrs carries xml:local.
//
//discvet:hotpath inherited xml:* attributes at a subset apex
func hasXMLAttr(attrs []xmlstream.Attr, local string) bool {
	for _, a := range attrs {
		if a.Prefix == "xml" && a.Local == local {
			return true
		}
	}
	return false
}

//discvet:hotpath utilized-prefix dedup on every start tag
func appendUnique(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}

// sortBindings is an in-place insertion sort by prefix: element
// namespace lists are tiny and sort.Slice would allocate a closure on
// the hot path.
//
//discvet:hotpath namespace ordering on every start tag
func sortBindings(b []nsBinding) {
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].prefix < b[j-1].prefix; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// sortAttrEntries is a stable in-place insertion sort by (uri, local):
// equal keys keep document order.
//
//discvet:hotpath attribute ordering on every start tag
func sortAttrEntries(a []attrEntry) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && attrEntryLess(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

//discvet:hotpath attribute ordering comparator
func attrEntryLess(x, y attrEntry) bool {
	if x.uri != y.uri {
		return x.uri < y.uri
	}
	return x.local < y.local
}

//discvet:hotpath qualified-name rendering on every tag
func appendQName(dst []byte, prefix, local string) []byte {
	if prefix != "" {
		dst = append(dst, prefix...)
		dst = append(dst, ':')
	}
	return append(dst, local...)
}

// appendText escapes character data per the canonical form: & < > CR.
//
//discvet:hotpath inner loop of every digest canonicalization; must not allocate per byte
func appendText[T string | []byte](dst []byte, s T) []byte {
	last := 0
	for i := textSpecial(s, 0); i < len(s); i = textSpecial(s, i+1) {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		default: // '\r'
			rep = "&#xD;"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, rep...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// textSpecial returns the index of the first byte at or after i that
// appendText escapes (& < > CR), or len(s). Clean runs are passed over
// eight bytes at a time with the scanner's xmlstream.LanesHolding.
//
//discvet:hotpath word skip under appendText on every reference digest
func textSpecial[T string | []byte](s T, i int) int {
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		if m := xmlstream.LanesHolding(x, '&') | xmlstream.LanesHolding(x, '<') |
			xmlstream.LanesHolding(x, '>') | xmlstream.LanesHolding(x, '\r'); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(s); i++ {
		switch s[i] {
		case '&', '<', '>', '\r':
			return i
		}
	}
	return i
}

// appendAttrValue escapes attribute values per the canonical form:
// & < " TAB LF CR.
//
//discvet:hotpath attribute rendering on every start tag
func appendAttrValue(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '"':
			rep = "&quot;"
		case '\t':
			rep = "&#x9;"
		case '\n':
			rep = "&#xA;"
		case '\r':
			rep = "&#xD;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, rep...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}
