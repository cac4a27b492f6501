package c14n

import (
	"bytes"
	"strings"
	"testing"

	"discsec/internal/xmldom"
	"discsec/internal/xmlstream"
)

// streamCanonical runs one tokenization pass through a Stream and
// returns the canonical bytes.
func streamCanonical(data []byte, opts Options) ([]byte, error) {
	var buf bytes.Buffer
	st, err := NewStream(&buf, opts)
	if err != nil {
		return nil, err
	}
	if err := xmlstream.Parse(bytes.NewReader(data), xmlstream.Options{}, st); err != nil {
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// streamDiffCases are documents exercising every namespace and escaping
// rule the canonicalizer implements.
var streamDiffCases = []struct {
	name string
	doc  string
}{
	{"plain", `<a><b>text</b></a>`},
	{"attr-order", `<a zeta="1" alpha="2" beta="3"/>`},
	{"prefixed-attrs", `<a xmlns:x="urn:x" xmlns:b="urn:b" x:r="1" b:q="2" plain="3"/>`},
	{"same-uri-two-prefixes", `<a xmlns:x="urn:u" xmlns:y="urn:u" y:k="1" x:k2="2"/>`},
	{"default-ns", `<a xmlns="urn:d"><b/></a>`},
	{"default-cancel", `<a xmlns="urn:d"><b xmlns=""><c/></b></a>`},
	{"redeclare-same", `<x:a xmlns:x="urn:x"><x:b xmlns:x="urn:x"/></x:a>`},
	{"redeclare-different", `<x:a xmlns:x="urn:1"><x:b xmlns:x="urn:2"/><x:c/></x:a>`},
	{"unused-ns-dropped", `<a xmlns:unused="urn:nope"><b>t</b></a>`},
	{"deep-utilization", `<a xmlns:x="urn:x"><b><c x:attr="v"/></b></a>`},
	{"xml-prefix", `<a xml:lang="en" xml:space="preserve"><b xml:base="u"/></a>`},
	{"escapes-text", "<a>&amp;&lt;&gt;\"'\r\n\ttail</a>"},
	{"escapes-attr", "<a v=\"&amp;&lt;&quot;\t\n\rx\"/>"},
	{"cdata-merge", `<a>pre<![CDATA[<raw&>]]>post</a>`},
	{"entities", `<a>&#65;&#x42;c</a>`},
	{"comments-inside", `<a>x<!--inner-->y</a>`},
	{"pi-inside", `<a><?target data?></a>`},
	{"pi-no-data", `<a><?target?></a>`},
	{"top-level-pi-comment", `<?before b?><!--pre--><a/><!--post--><?after a?>`},
	{"whitespace-outside", "\n  <a/>  \n"},
	{"empty-vs-open", `<a></a>`},
	{"undeclare-prefix", `<a xmlns:x="urn:x"><b xmlns:x=""><c x:k="v"/></b></a>`},
	{"xml-ns-declared", `<a xmlns:xml="http://www.w3.org/XML/1998/namespace" xml:lang="en"/>`},
	{"mixed", `<s:doc xmlns:s="urn:sig" xmlns:o="urn:o" id="r"><s:part o:x="1">v</s:part><o:tail/></s:doc>`},
}

// streamModes are the option sets the token-stream differential covers:
// the exclusive modes the cache keys use and the two inclusive modes.
var streamModes = []struct {
	name string
	opts Options
}{
	{"excl", Options{Exclusive: true}},
	{"excl-comments", Options{Exclusive: true, WithComments: true}},
	{"excl-inclusive-prefixes", Options{Exclusive: true, InclusivePrefixes: []string{"x", "#default"}}},
	{"incl", Options{}},
	{"incl-comments", Options{WithComments: true}},
}

// TestStreamMatchesTreeWalker pins that feeding the tokenizer's events
// to the core produces byte-identical output to the reference tree
// walker and to the DOM walk, for every case in every mode.
func TestStreamMatchesTreeWalker(t *testing.T) {
	for _, tc := range streamDiffCases {
		for _, m := range streamModes {
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				doc, err := xmldom.ParseString(tc.doc)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				got, err := streamCanonical([]byte(tc.doc), m.opts)
				if err != nil {
					t.Fatalf("stream canonicalize: %v", err)
				}
				checkStreamAgainstTree(t, doc, got, m.opts)
			})
		}
	}
}

// checkStreamAgainstTree compares the token-stream canonical form of a
// document with the reference walker's and the DOM walk's.
func checkStreamAgainstTree(t *testing.T, doc *xmldom.Document, got []byte, opts Options) {
	t.Helper()
	want, err := oracleCanonicalizeDocument(doc, opts)
	if err != nil {
		t.Fatalf("oracle canonicalize: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream diverges from tree walker (opts %+v):\n tree:   %q\n stream: %q", opts, want, got)
	}
	dom, err := CanonicalizeDocument(doc, opts)
	if err != nil {
		t.Fatalf("DOM canonicalize: %v", err)
	}
	if !bytes.Equal(got, dom) {
		t.Fatalf("stream diverges from DOM walk (opts %+v):\n dom:    %q\n stream: %q", opts, dom, got)
	}
}

// TestStreamChunkedText pins that chunked character data (the handler
// contract allows splits at CDATA and entity boundaries) escapes
// identically to the merged form.
func TestStreamChunkedText(t *testing.T) {
	var buf bytes.Buffer
	st, err := NewStream(&buf, Options{Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartElement("", "a", nil); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"x&", "<", "", "\r", ">y"} {
		if err := st.Text([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.EndElement("", "a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := `<a>x&amp;&lt;&#xD;&gt;y</a>`
	if buf.String() != want {
		t.Fatalf("chunked text: got %q want %q", buf.String(), want)
	}
}

// TestStreamLongTextSliced: a text run several flush thresholds long,
// delivered in one Text call after a buffered start tag, is escaped
// slice by slice; escapes on and around each slice boundary come out
// as escaping the whole run does, and each write to the writer is about
// one slice.
func TestStreamLongTextSliced(t *testing.T) {
	run := []byte(strings.Repeat("abcdefgh", 3*streamFlushAt/8+5))
	for _, at := range []int{0, 1, streamFlushAt - 4, streamFlushAt - 3, streamFlushAt - 2, 2*streamFlushAt - 3, len(run) - 1} {
		run[at] = "&<>\r"[at%4]
	}
	var out bytes.Buffer
	w := &maxWriter{w: &out}
	st, err := NewStream(w, Options{Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.StartElement("", "r", nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Text(run); err != nil {
		t.Fatal(err)
	}
	if err := st.EndElement("", "r"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := append(oracleAppendText([]byte("<r>"), string(run)), "</r>"...)
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("sliced escaping diverges from escaping the whole run (%d vs %d bytes)", out.Len(), len(want))
	}
	// The run holds a few escapes, so one escaped slice is a little
	// over streamFlushAt; staging the run whole writes three times that.
	if w.max > 2*streamFlushAt {
		t.Fatalf("largest write %d bytes, want about one slice (%d)", w.max, streamFlushAt)
	}
}

// maxWriter records the largest single write.
type maxWriter struct {
	w   *bytes.Buffer
	max int
}

func (m *maxWriter) Write(p []byte) (int, error) {
	m.max = max(m.max, len(p))
	return m.w.Write(p)
}

// TestStreamSteadyStateAllocs backs the hotpathalloc annotations with a
// runtime measurement: once warm, feeding tokens through the
// canonicalizer allocates nothing.
func TestStreamSteadyStateAllocs(t *testing.T) {
	st, err := NewStream(&countWriter{}, Options{Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []xmlstream.Attr{
		{Prefix: "xmlns", Local: "x", Value: "urn:x"},
		{Prefix: "x", Local: "k", Value: "v&v"},
		{Prefix: "", Local: "plain", Value: "p"},
	}
	text := []byte(strings.Repeat("payload & <data> ", 8))
	// Warm the scratch buffers.
	feed(st, attrs, text)
	allocs := testing.AllocsPerRun(200, func() { feed(st, attrs, text) })
	if allocs > 0 {
		t.Fatalf("streaming canonicalizer allocates %.1f/op in steady state; hot path must be alloc-free", allocs)
	}
}

// TestKeyPassSteadyStateAllocs measures a whole key pass — NewStream,
// one tokenization feeding it, Close — once warm. The flush buffer and
// the per-element scratch come from the pool and the tokenizer interns
// names and short values, so the Stream handle itself is the only
// allocation left; the 32 KiB buffer is not re-made per document.
func TestKeyPassSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	doc := []byte(`<a xmlns="urn:a" xmlns:p="urn:p"><p:b k="v" p:q="w">text &amp; ` +
		strings.Repeat("more ", 2000) + `</p:b><c Id="c1"/><!-- note --></a>`)
	w := &countWriter{}
	pass := func() {
		st, err := NewStream(w, Options{Exclusive: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := xmlstream.ParseBytes(doc, xmlstream.Options{}, st); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(200, pass); allocs > 1 {
		t.Fatalf("steady-state key pass allocates %.1f/op, want at most the Stream handle", allocs)
	}
}

func feed(st *Stream, attrs []xmlstream.Attr, text []byte) {
	st.StartElement("x", "el", attrs)
	st.Text(text)
	st.StartElement("", "inner", nil)
	st.Text(text)
	st.EndElement("", "inner")
	st.EndElement("x", "el")
}

// countWriter discards output without growing: a bytes.Buffer would
// reallocate and pollute the alloc measurement.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// FuzzStreamDifferential is the streaming-vs-DOM agreement fuzz target:
// any input the parser accepts must canonicalize to the same bytes
// through the tokenizer-fed core, the reference tree walker and the DOM
// walk, in the exclusive and the inclusive modes.
func FuzzStreamDifferential(f *testing.F) {
	for _, tc := range streamDiffCases {
		f.Add([]byte(tc.doc))
	}
	f.Add([]byte(`<a xmlns:x="urn:&quot;x&quot;" x:a="1"/>`))
	f.Add([]byte("<a>" + strings.Repeat("<b>", 40) + strings.Repeat("</b>", 40) + "</a>"))
	f.Add([]byte(`<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>`))
	for _, d := range wordSkipDocs {
		f.Add([]byte(d))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := xmldom.ParseBytes(data)
		for _, m := range streamModes {
			got, serr := streamCanonical(data, m.opts)
			if err != nil {
				if serr == nil {
					t.Fatalf("DOM parse rejected input but stream accepted it: %v", err)
				}
				return
			}
			if serr != nil {
				t.Fatalf("DOM parse accepted input but stream rejected it: %v", serr)
			}
			checkStreamAgainstTree(t, doc, got, m.opts)
		}
	})
}
