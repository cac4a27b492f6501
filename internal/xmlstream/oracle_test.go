package xmlstream

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// oracleParse is the reference tokenizer: the token loop this package
// ran on encoding/xml's strict raw tokenizer before it had a scanner of
// its own. It is test-only — production code may not import
// encoding/xml — and exists to hold the scanner to the same verdicts
// and token streams (FuzzTokenizerDifferential) and to derive reference
// cache keys (see export_test.go).
func oracleParse(r io.Reader, opts Options, handlers ...Handler) error {
	maxDepth := opts.MaxDepth
	if maxDepth <= 0 {
		maxDepth = defaultMaxDepth
	}
	maxTokens := opts.MaxTokens
	if maxTokens <= 0 {
		maxTokens = defaultMaxTokens
	}
	dec := xml.NewDecoder(r)
	dec.Strict = true

	var stack []name
	var attrs []Attr
	tokens := 0
	sawRoot := false
	for {
		tok, err := dec.RawToken()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		tokens++
		if tokens > maxTokens {
			return errTokenLimit(maxTokens)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == 0 && sawRoot {
				return errMultipleRoots()
			}
			if len(stack) >= maxDepth {
				return errDepthLimit(maxDepth)
			}
			attrs = attrs[:0]
			for _, a := range t.Attr {
				attrs = append(attrs, Attr{Prefix: a.Name.Space, Local: a.Name.Local, Value: a.Value})
			}
			if err := checkDuplicateAttrs(attrs, t.Name.Space, t.Name.Local); err != nil {
				return err
			}
			stack = append(stack, name{prefix: t.Name.Space, local: t.Name.Local})
			sawRoot = true
			for _, h := range handlers {
				if err := h.StartElement(t.Name.Space, t.Name.Local, attrs); err != nil {
					return err
				}
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return errUnexpectedEnd(t.Name.Space, t.Name.Local)
			}
			top := stack[len(stack)-1]
			if top.prefix != t.Name.Space || top.local != t.Name.Local {
				return errEndMismatch(t.Name.Space, t.Name.Local, top)
			}
			stack = stack[:len(stack)-1]
			for _, h := range handlers {
				if err := h.EndElement(t.Name.Space, t.Name.Local); err != nil {
					return err
				}
			}
		case xml.CharData:
			if len(stack) == 0 {
				if len(bytes.TrimSpace(t)) > 0 {
					return errStrayCharData()
				}
				continue
			}
			for _, h := range handlers {
				if err := h.Text(t); err != nil {
					return err
				}
			}
		case xml.Comment:
			for _, h := range handlers {
				if err := h.Comment(t); err != nil {
					return err
				}
			}
		case xml.ProcInst:
			if t.Target == "xml" {
				continue
			}
			for _, h := range handlers {
				if err := h.ProcInst(t.Target, t.Inst); err != nil {
					return err
				}
			}
		case xml.Directive:
			return ErrDoctype
		}
	}
	if len(stack) != 0 {
		top := stack[len(stack)-1]
		return errUnclosed(top.prefix, top.local)
	}
	if !sawRoot {
		return errNoRoot()
	}
	return nil
}

// eventLog flattens a token stream into comparable lines, merging
// adjacent Text calls into one text node: how text is chunked is the
// tokenizer's business, what the chunks add up to is not.
type eventLog struct {
	events []string
	text   []byte // the text node being merged
	inText bool
}

func (l *eventLog) add(ev string) {
	l.flush()
	l.events = append(l.events, ev)
}

func (l *eventLog) flush() {
	if l.inText {
		l.events = append(l.events, "text "+string(l.text))
		l.text, l.inText = l.text[:0], false
	}
}

// String renders the whole log, one event per line.
func (l *eventLog) String() string {
	l.flush()
	return strings.Join(l.events, "\n")
}

func (l *eventLog) StartElement(prefix, local string, attrs []Attr) error {
	var b strings.Builder
	fmt.Fprintf(&b, "start %q %q", prefix, local)
	for _, a := range attrs {
		fmt.Fprintf(&b, " %q:%q=%q", a.Prefix, a.Local, a.Value)
	}
	l.add(b.String())
	return nil
}

func (l *eventLog) EndElement(prefix, local string) error {
	l.add(fmt.Sprintf("end %q %q", prefix, local))
	return nil
}

func (l *eventLog) Text(data []byte) error {
	l.text = append(l.text, data...)
	l.inText = true
	return nil
}

func (l *eventLog) Comment(data []byte) error {
	l.add(fmt.Sprintf("comment %q", data))
	return nil
}

func (l *eventLog) ProcInst(target string, data []byte) error {
	l.add(fmt.Sprintf("pi %q %q", target, data))
	return nil
}

// tokenizerSeeds cover every construct of the grammar and the edges
// where the scanner's byte-level choices could drift from the oracle.
var tokenizerSeeds = []string{
	`<r/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a xmlns:p="urn:p" k="v"><p:b>hi</p:b><!-- c --><?app data?></a>`,
	`<?xml version="1.1"?><r/>`,
	`<?xml version='1.0' encoding='latin-1'?><r/>`,
	`<?xml encoding="utf-8"?><r/>`,
	`<r>&amp;&lt;&gt;&apos;&quot;&#65;&#x42;&#x1F600;&#0000000000000067;</r>`,
	`<r>&#0;</r>`, `<r>&#xD800;</r>`, `<r>&#xFFFE;</r>`, `<r>&#x110000;</r>`, `<r>&#X41;</r>`, `<r>&#;</r>`,
	`<r>&lt</r>`, `<r>&bogus;</r>`, `<r>&</r>`, `<r a="&amp;&#9;&#10;"/>`,
	"<r a=\"x\r\ny\rz\">a\r\nb\rc\r</r>",
	"<r>\r</r>", "<r><![CDATA[\r\n]]></r>", "<!--\r\n--><r/>",
	`<r><![CDATA[<&]]]]></r>`, `<r><![CDATA[]]></r>`, `<r>a<![CDATA[b]]>c</r>`, `<r>]]></r>`, `<r>]]]></r>`, `<r>]] ></r>`,
	`<r><![CDATA[x</r>`, `<r><![CDAT[x]]></r>`,
	`<r><!-- a -- b --></r>`, `<r><!----></r>`, `<r><!---></r>`, `<r><!-x--></r>`,
	`<r><?pi?><?pi ?><?pi  a ?b?><?p:i:x d?></r>`, `<r><?xml-stylesheet href="a"?></r>`, `<r><? x?></r>`,
	`<!DOCTYPE r><r/>`, `<r><!ENTITY x "y"></r>`, `<!DOCTYPE r [<!ENTITY x "<!-- -->">]><r/>`,
	`<a><b></a></b>`, `<a/><b/>`, `   `, `x<a/>`, "<r/>\u00a0\u2003", "\ufeff<r/>", "<r/>  \n\t",
	`<r a="1" a="2"/>`, `<r p:a="1" p:a="2"/>`, `<r a="1" b='2'c="3"/>`, `<r a = "1" />`, `<r a=1/>`, `<r a/>`,
	`<r a="<"/>`, `<r a="'"  b='"'/>`, `<r a="]]>"/>`, `<r / >`, `< r/>`, `</r>`, `<r></r >`, `<r></ r>`,
	`<a:b xmlns:a=""/>`, `<a:b:c/>`, `<:a/>`, `<a:/>`, `<a xmlns:="x"/>`, `<1a/>`, `<-a/>`, `<a.b-c_d/>`,
	"<\u00e9l\u00e8ve \u00e0=\"\u00e7\"/>", "<a\u00b7b/>", "<\u00b7a/>", "<a\u0300/>", "<\u0300/>", "<\u4e00/>", "<\U00010000/>",
	"<r>\xff\xfe</r>", "<r>\xed\xa0\x80</r>", "<r>\x01</r>", "<r>\x7f\u0085\ufffd</r>", "<r>\xef\xbf\xbe</r>", "<r a=\"\xc3\"/>",
	"<r\xc3\xa9/>", "<r>\xc3", "<r>", "<r", "<", "<r a=\"", "<r a='x", "<r><!--", "<r><?pi", "<r>&#x41",
	`<a xmlns:x="urn:x"><x:b xmlns:x="urn:y" x:k="v"/></a>`,
	`<r>` + strings.Repeat("0123456789abcdef", 300) + `</r>`,
}

// tokenizerRun is one way of driving the scanner over an input.
type tokenizerRun struct {
	name string
	run  func(data []byte, opts Options, h Handler) error
}

var tokenizerRuns = []tokenizerRun{
	{"bytes", func(data []byte, opts Options, h Handler) error { return ParseBytes(data, opts, h) }},
	{"reader", func(data []byte, opts Options, h Handler) error { return Parse(bytes.NewReader(data), opts, h) }},
	{"one-byte", func(data []byte, opts Options, h Handler) error {
		return parseReader(iotest.OneByteReader(bytes.NewReader(data)), opts, 1, []Handler{h})
	}},
	{"half", func(data []byte, opts Options, h Handler) error {
		return parseReader(iotest.HalfReader(bytes.NewReader(data)), opts, 1, []Handler{h})
	}},
}

// checkAgainstOracle runs every scanner form over data and fails on
// any accept/reject or token-stream divergence from the oracle.
func checkAgainstOracle(t *testing.T, data []byte, opts Options) {
	t.Helper()
	want := &eventLog{}
	werr := oracleParse(bytes.NewReader(data), opts, want)
	for _, r := range tokenizerRuns {
		got := &eventLog{}
		gerr := r.run(data, opts, got)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: scanner err = %v, oracle err = %v on %q", r.name, gerr, werr, data)
		}
		if werr != nil {
			continue
		}
		if g, w := got.String(), want.String(); g != w {
			t.Fatalf("%s: token streams diverge on %q:\nscanner %q\noracle  %q", r.name, data, g, w)
		}
	}
}

func TestTokenizerMatchesOracleOnSeeds(t *testing.T) {
	for _, s := range tokenizerSeeds {
		checkAgainstOracle(t, []byte(s), Options{})
		checkAgainstOracle(t, []byte(s), Options{MaxDepth: 2, MaxTokens: 6})
	}
	for _, doc := range corpus(t) {
		checkAgainstOracle(t, doc.data, Options{})
	}
}

// FuzzTokenizerDifferential holds the scanner to the reference
// tokenizer: for every input both accept or both reject, and accepted
// inputs yield the same token stream (adjacent text merged), whether
// the scanner reads from a slice, a reader, or a reader that dribbles
// one byte at a time into refills of one byte. A second pass under
// tight limits pins the token and depth accounting.
func FuzzTokenizerDifferential(f *testing.F) {
	for _, s := range tokenizerSeeds {
		f.Add([]byte(s))
	}
	for _, s := range wordSkipSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data, Options{})
		checkAgainstOracle(t, data, Options{MaxDepth: 3, MaxTokens: 12})
	})
}

// TestNameTablesMatchOracle checks the scanner's name-character tables
// rune by rune: every rune from U+0080 to U+FFFF (and a stride through
// the supplementary planes) must start and continue names exactly when
// the reference tokenizer says so.
func TestNameTablesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("walks the Basic Multilingual Plane")
	}
	for r := rune(0x80); r <= utf8.MaxRune; r++ {
		if r > 0xFFFF {
			r += 251
		}
		if 0xD800 <= r && r <= 0xDFFF {
			continue
		}
		for _, doc := range []string{"<" + string(r) + "/>", "<a" + string(r) + "/>"} {
			want := oracleParse(strings.NewReader(doc), Options{}) == nil
			if got := ParseBytes([]byte(doc), Options{}) == nil; got != want {
				t.Fatalf("%q (U+%04X): scanner accepts=%v, oracle accepts=%v", doc, r, got, want)
			}
		}
	}
}

// corpusDoc is one committed sample document.
type corpusDoc struct {
	name string
	data []byte
}

// corpus loads the committed sample documents: signed, partially
// encrypted cluster documents at three sizes.
func corpus(tb testing.TB) []corpusDoc {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "cluster-*.xml"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus under testdata: %v", err)
	}
	var docs []corpusDoc
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, corpusDoc{name: strings.TrimSuffix(filepath.Base(p), ".xml"), data: data})
	}
	return docs
}
