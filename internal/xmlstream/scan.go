package xmlstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// The scanner. Input sits in a window, buf[pos:end]; everything before
// pos is consumed. Markup constructs (tags, comments, processing
// instructions) are scanned whole: when one runs past the end of the
// window the scan stops with errMore, more() keeps the construct's
// bytes, reads on, and the construct is scanned again from its start.
// Character data never restarts — it is handed to handlers in chunks,
// so a long text node needs no more window than a short one.
//
// The byte-level grammar follows what encoding/xml's strict raw
// tokenizer accepts, which is what this package was built on before:
// CR and CRLF become LF in character data and attribute values (and
// nowhere else), attribute values are not whitespace-normalized, only
// the five predefined entities and character references exist, and
// character data, CDATA and attribute values must be UTF-8 made of XML
// Chars. Comments and processing instructions pass through as raw bytes.

const (
	// windowSize is the read window a parser starts with and keeps in
	// the pool.
	windowSize = 32 << 10
	// minRead is the least a refill asks of the reader; refills also ask
	// for at least as much as is kept, so re-scanning a construct that
	// straddles refills stays linear in its size.
	minRead = 4 << 10
	// textChunk is the size at which assembled character data is handed
	// on, bounding the text buffer for arbitrarily long text nodes.
	textChunk = 32 << 10
	// internSlots is the size of the interning table, a two-way
	// set-associative cache: a new string evicts the older of its set's
	// two, so hostile inputs with endless distinct names cost
	// allocations, not memory.
	internSlots = 1024
	// internLen is the longest attribute value that is interned; longer
	// values get their own string.
	internLen = 64
)

// errMore is the scanner's internal signal that a markup construct runs
// past the end of the window. It never escapes Parse.
var errMore = errors.New("xmlstream: more input needed")

// parser holds the pooled per-parse state.
type parser struct {
	r        io.Reader
	buf      []byte // the window, or the whole input under ParseBytes
	pos, end int    // buf[pos:end] is the unread input
	base     int64  // input offset of buf[0], for error messages
	eof      bool   // nothing follows buf[:end]
	least    int    // minimum refill size

	window []byte              // pooled window storage
	text   []byte              // character data assembled for handlers
	val    []byte              // an attribute value being unescaped
	names  [internSlots]string // interned names and short attribute values

	stack    []name
	attrs    []Attr
	handlers []Handler

	maxDepth, maxTokens int
	tokens              int
	sawRoot             bool
}

// Byte classes: a zero entry is a byte the scanning loops pass over
// without a second look.
var textClass, cdataClass, attrClass [256]byte

func init() {
	for c := 0; c < 256; c++ {
		odd := byte(0)
		if c >= utf8.RuneSelf || c < 0x20 && c != '\t' && c != '\n' {
			odd = 1
		}
		textClass[c], cdataClass[c], attrClass[c] = odd, odd, odd
	}
	for _, c := range []byte("<&]\r") {
		textClass[c] = 1
	}
	for _, c := range []byte("]\r") {
		cdataClass[c] = 1
	}
	for _, c := range []byte("<&\r\"'") {
		attrClass[c] = 1
	}
}

// more reads further input into the window, keeping buf[pos:end]. It
// reports false, with no error, once the input is exhausted.
func (p *parser) more() (bool, error) {
	if p.eof {
		return false, nil
	}
	keep := p.end - p.pos
	if p.pos > 0 {
		copy(p.buf, p.buf[p.pos:p.end])
		p.base += int64(p.pos)
		p.pos, p.end = 0, keep
	}
	want := max(keep, p.least)
	if keep+want > len(p.buf) {
		p.grow(keep + want)
	}
	got, empty := 0, 0
	for got < want {
		n, err := p.r.Read(p.buf[p.end:])
		p.end += n
		got += n
		if err == io.EOF {
			p.eof = true
			break
		}
		if err != nil {
			return false, errRead(err)
		}
		if n == 0 {
			if empty++; empty == 100 {
				return false, errRead(io.ErrNoProgress)
			}
		}
	}
	return got > 0, nil
}

// grow replaces the window with one of at least n bytes.
func (p *parser) grow(n int) {
	size := max(2*len(p.buf), windowSize)
	for size < n {
		size *= 2
	}
	w := make([]byte, size)
	copy(w, p.buf[:p.end])
	p.buf, p.window = w, w
}

// syntax builds a syntax error located at buf[i].
func (p *parser) syntax(i int, msg string) error {
	return errSyntax(p.base+int64(i), msg)
}

// markup scans the construct starting with '<' at pos, refilling the
// window until it is complete.
func (p *parser) markup() error {
	for {
		err := p.markupOnce()
		if err != errMore {
			return err
		}
		ok, rerr := p.more()
		if rerr != nil {
			return rerr
		}
		if !ok {
			return p.syntax(p.end, "unexpected EOF")
		}
	}
}

func (p *parser) markupOnce() error {
	b := p.buf[p.pos:p.end]
	if len(b) < 2 {
		return errMore
	}
	switch b[1] {
	case '/':
		return p.endTag(b)
	case '?':
		return p.procInst(b)
	case '!':
		if len(b) < 3 {
			return errMore
		}
		switch b[2] {
		case '-':
			return p.comment(b)
		case '[':
			const open = "<![CDATA["
			if len(b) < len(open) {
				return errMore
			}
			if string(b[:len(open)]) != open {
				return p.syntax(p.pos, "invalid <![ sequence")
			}
			p.pos += len(open)
			return p.chars(true)
		}
		return ErrDoctype
	}
	return p.startTag(b)
}

// skipSpace returns the index of the first non-whitespace byte at or
// after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// qname scans the name at b[i] and splits it at its colon the way a
// raw tokenizer does: a name with a colon at either end keeps it in the
// local part, a name with two colons is an error.
func (p *parser) qname(b []byte, i int) (prefix, local string, next int, err error) {
	j, seen := i, byte(0)
	for j < len(b) && nameByte[b[j]] {
		seen |= b[j]
		j++
	}
	if j == len(b) {
		return "", "", 0, errMore
	}
	if j == i {
		return "", "", 0, p.syntax(p.pos+i, "expected name")
	}
	nb := b[i:j]
	if seen < utf8.RuneSelf && !nameStartByte[nb[0]] || seen >= utf8.RuneSelf && !validName(nb) {
		return "", "", 0, p.syntax(p.pos+i, "invalid XML name")
	}
	if c := bytes.IndexByte(nb, ':'); c >= 0 {
		if bytes.IndexByte(nb[c+1:], ':') >= 0 {
			return "", "", 0, p.syntax(p.pos+i, "name with more than one colon")
		}
		if c > 0 && c < len(nb)-1 {
			return p.intern(nb[:c]), p.intern(nb[c+1:]), j, nil
		}
	}
	return "", p.intern(nb), j, nil
}

// intern returns the string for b, reusing an earlier one with the
// same bytes so repeated names and values cost no allocation.
func (p *parser) intern(b []byte) string {
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	set := p.names[2*(h%(internSlots/2)):][:2]
	if set[0] == string(b) {
		return set[0]
	}
	if set[1] != string(b) {
		set[1] = string(b)
	}
	set[0], set[1] = set[1], set[0]
	return set[0]
}

func (p *parser) startTag(b []byte) error {
	prefix, local, i, err := p.qname(b, 1)
	if err != nil {
		return err
	}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		i = skipSpace(b, i)
		if i == len(b) {
			return errMore
		}
		if b[i] == '>' {
			i++
			break
		}
		if b[i] == '/' {
			if i+1 == len(b) {
				return errMore
			}
			if b[i+1] != '>' {
				return p.syntax(p.pos+i, "expected /> in element")
			}
			empty = true
			i += 2
			break
		}
		ap, al, j, err := p.qname(b, i)
		if err != nil {
			return err
		}
		j = skipSpace(b, j)
		if j == len(b) {
			return errMore
		}
		if b[j] != '=' {
			return p.syntax(p.pos+j, "attribute name without = in element")
		}
		j = skipSpace(b, j+1)
		if j == len(b) {
			return errMore
		}
		if q := b[j]; q != '"' && q != '\'' {
			return p.syntax(p.pos+j, "unquoted or missing attribute value in element")
		}
		v, k, err := p.attrValue(b, j+1, b[j])
		if err != nil {
			return err
		}
		p.attrs = append(p.attrs, Attr{Prefix: ap, Local: al, Value: v})
		i = k
	}
	p.pos += i
	if err := p.startElement(prefix, local); err != nil {
		return err
	}
	if empty {
		return p.endElement(prefix, local)
	}
	return nil
}

// attrValue scans a quoted attribute value starting after the quote at
// b[i-1]. Values without references or CRs are sliced straight from
// the window; the rest are unescaped into p.val.
func (p *parser) attrValue(b []byte, i int, quote byte) (string, int, error) {
	start, esc := i, false
	for i < len(b) {
		c := b[i]
		if attrClass[c] == 0 || (c == '"' || c == '\'') && c != quote {
			if esc {
				p.val = append(p.val, c)
			}
			i++
			continue
		}
		switch {
		case c == quote:
			v := b[start:i]
			if esc {
				v = p.val
			}
			if len(v) > internLen {
				return string(v), i + 1, nil
			}
			return p.intern(v), i + 1, nil
		case c == '<':
			return "", 0, p.syntax(p.pos+i, "unescaped < inside quoted string")
		case c == '&' || c == '\r':
			if !esc {
				p.val = append(p.val[:0], b[start:i]...)
				esc = true
			}
			if c == '\r' {
				if i+1 == len(b) {
					return "", 0, errMore
				}
				p.val = append(p.val, '\n')
				i++
				if b[i] == '\n' {
					i++
				}
				continue
			}
			var n int
			var err error
			if p.val, n, err = p.reference(p.val, b[i:], p.pos+i); err != nil {
				return "", 0, err
			}
			i += n
		case c >= utf8.RuneSelf:
			n, err := p.checkRune(b[i:], p.pos+i)
			if err != nil {
				return "", 0, err
			}
			if esc {
				p.val = append(p.val, b[i:i+n]...)
			}
			i += n
		default:
			return "", 0, p.syntax(p.pos+i, "illegal character in attribute value")
		}
	}
	return "", 0, errMore
}

var (
	commentEnd = []byte("--")
	piEnd      = []byte("?>")
)

// predefined are the only entity references the grammar knows.
var predefined = [...]struct {
	ref string // the reference after '&', ';' included
	ch  byte
}{
	{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'},
}

// reference decodes the entity or character reference at b[0] == '&'
// onto dst and reports how many input bytes it spans. at is b's offset
// in the window, for errors.
func (p *parser) reference(dst, b []byte, at int) ([]byte, int, error) {
	if len(b) > 1 && b[1] == '#' {
		return p.charRef(dst, b, at)
	}
	for _, e := range predefined {
		if len(b) > len(e.ref) && string(b[1:1+len(e.ref)]) == e.ref {
			return append(dst, e.ch), 1 + len(e.ref), nil
		}
	}
	if len(b) < 6 && !p.eof {
		return dst, 0, errMore
	}
	return dst, 0, p.syntax(at, "invalid character entity")
}

// charRef decodes &#NNN; or &#xHHH;. The referenced character must be
// an XML Char; a surrogate code point decodes as U+FFFD, as a rune
// conversion does.
func (p *parser) charRef(dst, b []byte, at int) ([]byte, int, error) {
	i, base := 2, uint32(10)
	if i < len(b) && b[i] == 'x' {
		i, base = 3, 16
	}
	var v uint32
	digits := 0
	for ; i < len(b); i++ {
		c := b[i]
		var d uint32
		switch {
		case '0' <= c && c <= '9':
			d = uint32(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = uint32(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			goto end
		}
		digits++
		if v <= utf8.MaxRune {
			v = v*base + d
		}
	}
end:
	if i == len(b) {
		if !p.eof {
			return dst, 0, errMore
		}
		return dst, 0, p.syntax(at, "unterminated character reference")
	}
	if b[i] != ';' || digits == 0 || v > utf8.MaxRune {
		return dst, 0, p.syntax(at, "invalid character reference")
	}
	r := rune(v)
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError
	}
	if !isChar(r) {
		return dst, 0, p.syntax(at, "character reference to an illegal character")
	}
	return utf8.AppendRune(dst, r), i + 1, nil
}

// checkRune validates the multi-byte UTF-8 sequence at b[0] and returns
// its length.
func (p *parser) checkRune(b []byte, at int) (int, error) {
	if !utf8.FullRune(b) {
		if !p.eof {
			return 0, errMore
		}
		return 0, p.syntax(at, "invalid UTF-8")
	}
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n == 1 {
		return 0, p.syntax(at, "invalid UTF-8")
	}
	if !isChar(r) {
		return 0, p.syntax(at, "illegal character")
	}
	return n, nil
}

// isChar reports whether r is in the XML Char production.
func isChar(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= utf8.MaxRune
}

func (p *parser) endTag(b []byte) error {
	prefix, local, i, err := p.qname(b, 2)
	if err != nil {
		return err
	}
	i = skipSpace(b, i)
	if i == len(b) {
		return errMore
	}
	if b[i] != '>' {
		return p.syntax(p.pos+i, "invalid characters in end tag")
	}
	p.pos += i + 1
	return p.endElement(prefix, local)
}

func (p *parser) comment(b []byte) error {
	if len(b) < 4 {
		return errMore
	}
	if b[3] != '-' {
		return p.syntax(p.pos, "invalid sequence <!- not part of <!--")
	}
	// The first "--" after the opening must close the comment.
	k := bytes.Index(b[4:], commentEnd)
	if k < 0 || 4+k+2 >= len(b) {
		return errMore
	}
	k += 4
	if b[k+2] != '>' {
		return p.syntax(p.pos+k, `invalid sequence "--" not allowed in comments`)
	}
	p.pos += k + 3
	if err := p.token(); err != nil {
		return err
	}
	return p.emitComment(b[4:k])
}

func (p *parser) procInst(b []byte) error {
	i := 2
	for i < len(b) && nameByte[b[i]] {
		i++
	}
	if i == len(b) {
		return errMore
	}
	target := b[2:i]
	if len(target) == 0 {
		return p.syntax(p.pos, "expected target name after <?")
	}
	if !validName(target) {
		return p.syntax(p.pos+2, "invalid XML name")
	}
	i = skipSpace(b, i)
	k := bytes.Index(b[i:], piEnd)
	if k < 0 {
		return errMore
	}
	data := b[i : i+k]
	p.pos += i + k + 2
	if err := p.token(); err != nil {
		return err
	}
	if string(target) == "xml" {
		// The XML declaration is not part of the data model, but what it
		// declares must be what the scanner reads.
		return p.checkDecl(data)
	}
	return p.emitProcInst(p.intern(target), data)
}

// checkDecl rejects XML declarations for other versions or encodings.
func (p *parser) checkDecl(data []byte) error {
	if v := declParam(data, "version"); v != "" && v != "1.0" {
		return errUnsupportedDecl("version", v)
	}
	if enc := declParam(data, "encoding"); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return errUnsupportedDecl("encoding", enc)
	}
	return nil
}

// declParam returns the quoted value of param="..." (or '...') in an
// XML declaration's body, "" when absent or unterminated.
func declParam(data []byte, param string) string {
	s := string(data)
	key := param + "="
	for i := 0; i < len(s); {
		k := strings.Index(s[i:], key)
		if k < 0 || i+k+len(key) >= len(s) {
			return ""
		}
		at := i + k + len(key)
		i = at + 1
		if q := s[at]; q == '\'' || q == '"' {
			end := strings.IndexByte(s[i:], q)
			if end < 0 {
				return ""
			}
			return s[i : i+end]
		}
	}
	return ""
}

// chars scans one run of character data starting at pos — a text run
// up to the next '<', or with cdata the body of a CDATA section up to
// "]]>" — and hands it to the handlers. Plain bytes are passed over a
// word at a time (charsRun); only references and CRs copy, into p.text.
// Pieces are handed on when the window runs out or p.text fills, so
// the run is delivered as one or more chunks.
func (p *parser) chars(cdata bool) error {
	if err := p.token(); err != nil {
		return err
	}
	p.text = p.text[:0]
	sent := false // a chunk of this run has been handed on
	for {
		b := p.buf[:p.end]
		i := p.pos
		seg := i // start of the bytes not yet copied or handed on
	scan:
		for {
			i = charsRun(b, i, cdata)
			if i == len(b) {
				break
			}
			switch c := b[i]; {
			case c == '<':
				p.pos = i
				return p.endChars(b[seg:i], sent)
			case c == ']':
				if i+2 >= len(b) && !p.eof {
					break scan
				}
				if i+2 < len(b) && b[i+1] == ']' && b[i+2] == '>' {
					if !cdata {
						return p.syntax(i, "unescaped ]]> not in CDATA section")
					}
					p.pos = i + 3
					return p.endChars(b[seg:i], sent)
				}
				i++
			case c == '&':
				p.text = append(p.text, b[seg:i]...)
				seg = i
				var n int
				var err error
				p.text, n, err = p.reference(p.text, b[i:], i)
				if err == errMore {
					break scan
				}
				if err != nil {
					return err
				}
				i += n
				seg = i
			case c == '\r':
				if i+1 == len(b) && !p.eof {
					break scan
				}
				p.text = append(p.text, b[seg:i]...)
				p.text = append(p.text, '\n')
				i++
				if i < len(b) && b[i] == '\n' {
					i++
				}
				seg = i
			case c >= utf8.RuneSelf:
				n, err := p.checkRune(b[i:], i)
				if err == errMore {
					break scan
				}
				if err != nil {
					return err
				}
				i += n
			default:
				return p.syntax(i, "illegal character in character data")
			}
			if len(p.text) >= textChunk {
				if err := p.flushText(); err != nil {
					return err
				}
				sent = true
			}
		}
		// The window is spent (or ends inside a reference, a CR, a
		// rune, or a possible "]]>"): hand on what is complete, keep
		// the rest, read on.
		if len(p.text) == 0 {
			if i > seg {
				if err := p.emitText(b[seg:i]); err != nil {
					return err
				}
				sent = true
			}
		} else {
			p.text = append(p.text, b[seg:i]...)
			if len(p.text) >= textChunk {
				if err := p.flushText(); err != nil {
					return err
				}
				sent = true
			}
		}
		p.pos = i
		ok, err := p.more()
		if err != nil {
			return err
		}
		if !ok && p.pos == p.end {
			if cdata {
				return p.syntax(p.end, "unexpected EOF in CDATA section")
			}
			return p.endChars(nil, sent)
		}
	}
}

// Word-at-a-time constants: a byte's lowest and highest bit in each of
// the eight lanes of a uint64.
const (
	lanesLow  = 0x0101010101010101
	lanesHigh = 0x8080808080808080
)

// charsRun returns the index of the first byte at or after i that the
// text class (with cdata, the CDATA class) marks, or len(b). Clean runs
// are passed over eight bytes at a time. A word is suspect when a lane
// holds a byte >= 0x80, a control byte (below 0x20, which covers CR),
// or a delimiter: ']', and outside CDATA '<' and '&'. Each test sets
// the high bit of the lowest lane it matches exactly (a borrow only
// marks lanes above a true match), so the trailing-zero count finds the
// first suspect byte; the table settles it, since TAB and LF are
// control bytes the classes pass.
//
//discvet:hotpath the scanner's inner loop over all character data
func charsRun(b []byte, i int, cdata bool) int {
	class := &textClass
	if cdata {
		class = &cdataClass
	}
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:])
		m := x&lanesHigh | (x-0x20*lanesLow)&^x&lanesHigh | LanesHolding(x, ']')
		if !cdata {
			m |= LanesHolding(x, '<') | LanesHolding(x, '&')
		}
		if m == 0 {
			i += 8
			continue
		}
		if i += bits.TrailingZeros64(m) >> 3; class[b[i]] != 0 {
			return i
		}
		i++
	}
	for i < len(b) && class[b[i]] == 0 {
		i++
	}
	return i
}

// LanesHolding is the word-skip primitive of the scanner and of the
// canonicalizer's escaping. It sets the high bit of the lowest of the
// eight byte lanes of x that holds c (and possibly of lanes above it),
// and is zero when no lane does.
// A lane of v is zero where x holds c, and (v-lanesLow)&^v&lanesHigh
// marks the lowest zero lane exactly (a borrow only marks lanes above a
// true zero), so bits.TrailingZeros64 of the result, shifted right by
// three, is the index of the first such byte.
//
//discvet:hotpath word-skip primitive
func LanesHolding(x uint64, c byte) uint64 {
	v := x ^ uint64(c)*lanesLow
	return (v - lanesLow) &^ v & lanesHigh
}

// endChars hands on the last piece of a run. A run that fits the window
// and needed no unescaping reaches handlers straight from the input;
// an empty CDATA section still produces its one Text call.
func (p *parser) endChars(last []byte, sent bool) error {
	if len(p.text) == 0 {
		if len(last) > 0 || !sent {
			return p.emitText(last)
		}
		return nil
	}
	p.text = append(p.text, last...)
	return p.flushText()
}

func (p *parser) flushText() error {
	err := p.emitText(p.text)
	p.text = p.text[:0]
	return err
}

//discvet:coldpath error path
func errUnsupportedDecl(what, v string) error {
	return errors.New("xmlstream: parse: unsupported XML declaration " + what + " " + strings.ToValidUTF8(v, "?"))
}
