package xmlstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// The scanner. The whole input is resident in buf, and buf[:pos] is
// consumed. Markup constructs (tags, comments, processing
// instructions) are scanned whole; one that the input ends inside fails
// with an "unexpected EOF" syntax error at the input's length.
// Character data that needs no unescaping reaches handlers as a
// subslice of buf; references and CRs are unescaped into a buffer that
// is handed on once it holds textChunk bytes.
//
// The byte-level grammar follows what encoding/xml's strict raw
// tokenizer accepts, which is what this package was built on before:
// CR and CRLF become LF in character data and attribute values (and
// nowhere else), attribute values are not whitespace-normalized, only
// the five predefined entities and character references exist, and
// character data, CDATA and attribute values must be UTF-8 made of XML
// Chars. Comments and processing instructions pass through as raw bytes.

const (
	// textChunk is the size at which unescaped character data is handed
	// on.
	textChunk = 32 << 10
	// internSlots is the size of the interning table, a two-way
	// set-associative cache: a new string evicts the older of its set's
	// two, so hostile inputs with endless distinct names cost
	// allocations, not memory.
	internSlots = 1024
	// internLen is the longest name or attribute value that is
	// interned; longer ones get their own string, so the table holds at
	// most internSlots*internLen bytes.
	internLen = 64
)

// errCut is the scanner's internal signal that a markup construct runs
// past the end of the input. markup turns it into a syntax error; it
// never escapes Parse.
var errCut = errors.New("xmlstream: construct cut off by the end of the input")

// parser holds the pooled per-parse state.
type parser struct {
	buf []byte // the input, resident whole
	pos int    // buf[:pos] is consumed

	in    []byte              // pooled storage Parse reads its input into
	text  []byte              // character data assembled for handlers
	val   []byte              // an attribute value being unescaped
	names [internSlots]string // interned names and short attribute values

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

// markup scans the construct starting with '<' at pos.
func (p *parser) markup() error {
	if err := p.scanMarkup(); err != errCut {
		return err
	}
	return errSyntax(len(p.buf), "unexpected EOF")
}

func (p *parser) scanMarkup() error {
	b := p.buf[p.pos:]
	if len(b) < 2 {
		return errCut
	}
	switch b[1] {
	case '/':
		return p.endTag(b)
	case '?':
		return p.procInst(b)
	case '!':
		if len(b) < 3 {
			return errCut
		}
		switch b[2] {
		case '-':
			return p.comment(b)
		case '[':
			const open = "<![CDATA["
			if len(b) < len(open) {
				return errCut
			}
			if string(b[:len(open)]) != open {
				return errSyntax(p.pos, "invalid <![ sequence")
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
// local part, a name with two colons is an error. The scan loop notes
// the first colon and whether another follows.
func (p *parser) qname(b []byte, i int) (prefix, local string, next int, err error) {
	j, seen, colon, colons := i, byte(0), -1, 0
	for j < len(b) && nameByte[b[j]] {
		if b[j] == ':' {
			if colons++; colon < 0 {
				colon = j - i
			}
		}
		seen |= b[j]
		j++
	}
	if j == len(b) {
		return "", "", 0, errCut
	}
	if j == i {
		return "", "", 0, errSyntax(p.pos+i, "expected name")
	}
	nb := b[i:j]
	if seen < utf8.RuneSelf && !nameStartByte[nb[0]] || seen >= utf8.RuneSelf && !validName(nb) {
		return "", "", 0, errSyntax(p.pos+i, "invalid XML name")
	}
	if colons > 1 {
		return "", "", 0, errSyntax(p.pos+i, "name with more than one colon")
	}
	if colon > 0 && colon < len(nb)-1 {
		return p.intern(nb[:colon]), p.intern(nb[colon+1:]), j, nil
	}
	return "", p.intern(nb), j, nil
}

// Interning hash multipliers: the 64-bit golden ratio and a large odd
// constant with well-spread bits.
const (
	internMul0 = 0x9e3779b97f4a7c15
	internMul1 = 0xbf58476d1ce4e5b9
)

// internHash hashes b for the interning table a word at a time: the
// length and up to three loads (first, middle and last eight bytes;
// shorter names load what they have) folded in by multiply-xorshift.
// Names and short values up to 24 bytes are covered whole; longer ones
// are sampled, which only costs a collision in a two-way set.
//
//discvet:hotpath runs for every element, attribute name and short value
func internHash(b []byte) uint32 {
	n := len(b)
	var x, y, z uint64
	switch {
	case n >= 8:
		x = binary.LittleEndian.Uint64(b)
		y = binary.LittleEndian.Uint64(b[(n-8)/2:])
		z = binary.LittleEndian.Uint64(b[n-8:])
	case n >= 4:
		x = uint64(binary.LittleEndian.Uint32(b))
		z = uint64(binary.LittleEndian.Uint32(b[n-4:]))
	case n > 0:
		x = uint64(b[0]) | uint64(b[n/2])<<8 | uint64(b[n-1])<<16
	}
	h := (uint64(n) ^ x) * internMul0
	h = (h ^ h>>31 ^ y) * internMul1
	h = (h ^ h>>29 ^ z) * internMul0
	return uint32(h >> 32)
}

// intern returns the string for b, reusing an earlier one with the
// same bytes so repeated names and values cost no allocation.
func (p *parser) intern(b []byte) string {
	if len(b) > internLen {
		return string(b)
	}
	h := internHash(b)
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
			return errCut
		}
		if b[i] == '>' {
			i++
			break
		}
		if b[i] == '/' {
			if i+1 == len(b) {
				return errCut
			}
			if b[i+1] != '>' {
				return errSyntax(p.pos+i, "expected /> in element")
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
			return errCut
		}
		if b[j] != '=' {
			return errSyntax(p.pos+j, "attribute name without = in element")
		}
		j = skipSpace(b, j+1)
		if j == len(b) {
			return errCut
		}
		if q := b[j]; q != '"' && q != '\'' {
			return errSyntax(p.pos+j, "unquoted or missing attribute value in element")
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
// the input; the rest are unescaped into p.val. Plain bytes are passed
// over a word at a time (attrRun).
func (p *parser) attrValue(b []byte, i int, quote byte) (string, int, error) {
	start, esc := i, false
	for {
		j := attrRun(b, i, quote)
		if esc {
			p.val = append(p.val, b[i:j]...)
		}
		if i = j; i == len(b) {
			return "", 0, errCut
		}
		switch c := b[i]; {
		case c == quote:
			v := b[start:i]
			if esc {
				v = p.val
			}
			return p.intern(v), i + 1, nil
		case c == '<':
			return "", 0, errSyntax(p.pos+i, "unescaped < inside quoted string")
		case c == '&' || c == '\r':
			if !esc {
				p.val = append(p.val[:0], b[start:i]...)
				esc = true
			}
			if c == '\r' {
				if i+1 == len(b) {
					return "", 0, errCut
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
			if p.val, n, err = reference(p.val, b[i:], p.pos+i); err != nil {
				return "", 0, err
			}
			i += n
		case c >= utf8.RuneSelf:
			n, err := checkRune(b[i:], p.pos+i)
			if err != nil {
				return "", 0, err
			}
			if esc {
				p.val = append(p.val, b[i:i+n]...)
			}
			i += n
		default:
			return "", 0, errSyntax(p.pos+i, "illegal character in attribute value")
		}
	}
}

// attrStops reports whether attrValue must look at c inside a value
// quoted with quote: the closing quote, or a byte the attribute class
// marks other than the other quote character.
func attrStops(c, quote byte) bool {
	return c == quote || attrClass[c] != 0 && c != '"' && c != '\''
}

// attrRun returns the index of the first byte at or after i that
// attrStops, or len(b). It is charsRun's word skip for attribute
// values: a word is suspect when a lane holds a byte >= 0x80, a control
// byte (which covers CR), either quote, '<' or '&', and the byte loop
// takes over at the first suspect byte.
//
//discvet:hotpath the scanner's inner loop over attribute values
func attrRun(b []byte, i int, quote byte) int {
	for i+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[i:])
		m := x&lanesHigh | (x-0x20*lanesLow)&^x&lanesHigh |
			LanesHolding(x, '"') | LanesHolding(x, '\'') | LanesHolding(x, '<') | LanesHolding(x, '&')
		if m == 0 {
			i += 8
			continue
		}
		if i += bits.TrailingZeros64(m) >> 3; attrStops(b[i], quote) {
			return i
		}
		i++
	}
	for i < len(b) && !attrStops(b[i], quote) {
		i++
	}
	return i
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
// in the input, for errors.
func reference(dst, b []byte, at int) ([]byte, int, error) {
	if len(b) > 1 && b[1] == '#' {
		return charRef(dst, b, at)
	}
	for _, e := range predefined {
		if len(b) > len(e.ref) && string(b[1:1+len(e.ref)]) == e.ref {
			return append(dst, e.ch), 1 + len(e.ref), nil
		}
	}
	return dst, 0, errSyntax(at, "invalid character entity")
}

// charRef decodes &#NNN; or &#xHHH;. The referenced character must be
// an XML Char; a surrogate code point decodes as U+FFFD, as a rune
// conversion does.
func charRef(dst, b []byte, at int) ([]byte, int, error) {
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
		return dst, 0, errSyntax(at, "unterminated character reference")
	}
	if b[i] != ';' || digits == 0 || v > utf8.MaxRune {
		return dst, 0, errSyntax(at, "invalid character reference")
	}
	r := rune(v)
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError
	}
	if !isChar(r) {
		return dst, 0, errSyntax(at, "character reference to an illegal character")
	}
	return utf8.AppendRune(dst, r), i + 1, nil
}

// checkRune validates the multi-byte UTF-8 sequence at b[0] and returns
// its length. A sequence cut off by the end of the input is invalid.
func checkRune(b []byte, at int) (int, error) {
	r, n := utf8.DecodeRune(b)
	if r == utf8.RuneError && n == 1 {
		return 0, errSyntax(at, "invalid UTF-8")
	}
	if !isChar(r) {
		return 0, errSyntax(at, "illegal character")
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

// endTag scans an end tag. One that names the open element, as written
// (prefix:local), is matched in place: the name bytes, optional space,
// '>' (neither of which can continue a name). Anything else — another
// name, an error, a tag cut off by the end of the input — goes through
// qname and endElement's mismatch check.
func (p *parser) endTag(b []byte) error {
	if n := len(p.stack); n > 0 {
		if i := closesOpen(b, p.stack[n-1]); i > 0 {
			top := p.stack[n-1]
			p.pos += i + 1
			return p.endElement(top.prefix, top.local)
		}
	}
	prefix, local, i, err := p.qname(b, 2)
	if err != nil {
		return err
	}
	i = skipSpace(b, i)
	if i == len(b) {
		return errCut
	}
	if b[i] != '>' {
		return errSyntax(p.pos+i, "invalid characters in end tag")
	}
	p.pos += i + 1
	return p.endElement(prefix, local)
}

// closesOpen returns the index of the '>' of the end tag at b when it
// names open exactly as written, else -1.
func closesOpen(b []byte, open name) int {
	i := 2
	if open.prefix != "" {
		if i = hasAt(b, i, open.prefix); i < 0 || i == len(b) || b[i] != ':' {
			return -1
		}
		i++
	}
	if i = hasAt(b, i, open.local); i < 0 {
		return -1
	}
	if i = skipSpace(b, i); i == len(b) || b[i] != '>' {
		return -1
	}
	return i
}

// hasAt returns the index after s when b holds s at i, else -1.
func hasAt(b []byte, i int, s string) int {
	if len(b)-i < len(s) || string(b[i:i+len(s)]) != s {
		return -1
	}
	return i + len(s)
}

func (p *parser) comment(b []byte) error {
	if len(b) < 4 {
		return errCut
	}
	if b[3] != '-' {
		return errSyntax(p.pos, "invalid sequence <!- not part of <!--")
	}
	// The first "--" after the opening must close the comment.
	k := bytes.Index(b[4:], commentEnd)
	if k < 0 || 4+k+2 >= len(b) {
		return errCut
	}
	k += 4
	if b[k+2] != '>' {
		return errSyntax(p.pos+k, `invalid sequence "--" not allowed in comments`)
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
		return errCut
	}
	target := b[2:i]
	if len(target) == 0 {
		return errSyntax(p.pos, "expected target name after <?")
	}
	if !validName(target) {
		return errSyntax(p.pos+2, "invalid XML name")
	}
	i = skipSpace(b, i)
	k := bytes.Index(b[i:], piEnd)
	if k < 0 {
		return errCut
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
	if v := declParam(data, declVersion); len(v) > 0 && string(v) != "1.0" {
		return errUnsupportedDecl("version", string(v))
	}
	if enc := declParam(data, declEncoding); len(enc) > 0 && !bytes.EqualFold(enc, utf8Name) {
		return errUnsupportedDecl("encoding", string(enc))
	}
	return nil
}

var (
	declVersion  = []byte("version=")
	declEncoding = []byte("encoding=")
	utf8Name     = []byte("utf-8")
)

// declParam returns the quoted value after key (param=) in an XML
// declaration's body, read in place; empty when absent or unterminated.
func declParam(data, key []byte) []byte {
	for i := 0; i < len(data); {
		k := bytes.Index(data[i:], key)
		if k < 0 || i+k+len(key) >= len(data) {
			return nil
		}
		at := i + k + len(key)
		i = at + 1
		if q := data[at]; q == '\'' || q == '"' {
			end := bytes.IndexByte(data[i:], q)
			if end < 0 {
				return nil
			}
			return data[i : i+end]
		}
	}
	return nil
}

// chars scans one run of character data starting at pos — a text run
// up to the next '<' or the end of the input, or with cdata the body of
// a CDATA section up to "]]>" — and hands it to the handlers. Plain
// bytes are passed over a word at a time (charsRun); only references
// and CRs copy, into p.text, which is handed on once it holds textChunk
// bytes, so the run is delivered as one or more chunks.
func (p *parser) chars(cdata bool) error {
	if err := p.token(); err != nil {
		return err
	}
	p.text = p.text[:0]
	b, i := p.buf, p.pos
	seg := i      // start of the bytes not yet copied or handed on
	sent := false // a chunk of this run has been handed on
	for {
		i = charsRun(b, i, cdata)
		if i == len(b) {
			if cdata {
				return errSyntax(i, "unexpected EOF in CDATA section")
			}
			p.pos = i
			return p.endChars(b[seg:i], sent)
		}
		switch c := b[i]; {
		case c == '<':
			p.pos = i
			return p.endChars(b[seg:i], sent)
		case c == ']':
			if i+2 < len(b) && b[i+1] == ']' && b[i+2] == '>' {
				if !cdata {
					return errSyntax(i, "unescaped ]]> not in CDATA section")
				}
				p.pos = i + 3
				return p.endChars(b[seg:i], sent)
			}
			i++
		case c == '&':
			p.text = append(p.text, b[seg:i]...)
			var n int
			var err error
			if p.text, n, err = reference(p.text, b[i:], i); err != nil {
				return err
			}
			i += n
			seg = i
		case c == '\r':
			p.text = append(p.text, b[seg:i]...)
			p.text = append(p.text, '\n')
			i++
			if i < len(b) && b[i] == '\n' {
				i++
			}
			seg = i
		case c >= utf8.RuneSelf:
			n, err := checkRune(b[i:], i)
			if err != nil {
				return err
			}
			i += n
		default:
			return errSyntax(i, "illegal character in character data")
		}
		if len(p.text) >= textChunk {
			if err := p.flushText(); err != nil {
				return err
			}
			sent = true
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

// endChars hands on the last piece of a run. A run that needed no
// unescaping reaches handlers straight from the input, in one call; an
// empty CDATA section still produces its one Text call.
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
