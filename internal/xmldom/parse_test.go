package xmldom

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	doc, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return doc
}

func TestParseSimpleElement(t *testing.T) {
	doc := mustParse(t, `<root a="1" b="two">hello</root>`)
	root := doc.Root()
	if root == nil {
		t.Fatal("no root element")
	}
	if root.Local != "root" || root.Prefix != "" {
		t.Errorf("root name = %q prefix %q", root.Local, root.Prefix)
	}
	if got := root.AttrValue("a"); got != "1" {
		t.Errorf("attr a = %q, want 1", got)
	}
	if got := root.AttrValue("b"); got != "two" {
		t.Errorf("attr b = %q, want two", got)
	}
	if got := root.Text(); got != "hello" {
		t.Errorf("text = %q, want hello", got)
	}
}

func TestParsePreservesPrefixes(t *testing.T) {
	doc := mustParse(t, `<ds:Signature xmlns:ds="http://www.w3.org/2000/09/xmldsig#"><ds:SignedInfo/></ds:Signature>`)
	root := doc.Root()
	if root.Prefix != "ds" || root.Local != "Signature" {
		t.Fatalf("root = %s:%s", root.Prefix, root.Local)
	}
	if got := root.NamespaceURI(); got != "http://www.w3.org/2000/09/xmldsig#" {
		t.Errorf("namespace = %q", got)
	}
	child := root.FirstChildElement("SignedInfo")
	if child == nil || child.Prefix != "ds" {
		t.Fatalf("child = %+v", child)
	}
	if got := child.NamespaceURI(); got != "http://www.w3.org/2000/09/xmldsig#" {
		t.Errorf("child namespace = %q", got)
	}
}

func TestParseEntitiesAndCDATA(t *testing.T) {
	doc := mustParse(t, `<r>a &lt; b &amp; c<![CDATA[ <raw> ]]>&#65;</r>`)
	want := "a < b & c <raw> A"
	if got := doc.Root().Text(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
	// Adjacent char data merges into a single node.
	if n := len(doc.Root().Children); n != 1 {
		t.Errorf("children = %d, want 1 merged text node", n)
	}
}

func TestParseCommentsAndPIs(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><!-- top --><?app do-it?><r><!-- in --><?pi data?></r>`)
	if len(doc.Children) != 3 {
		t.Fatalf("top-level children = %d, want 3", len(doc.Children))
	}
	if c, ok := doc.Children[0].(*Comment); !ok || c.Data != " top " {
		t.Errorf("first child = %#v", doc.Children[0])
	}
	if pi, ok := doc.Children[1].(*ProcInst); !ok || pi.Target != "app" {
		t.Errorf("second child = %#v", doc.Children[1])
	}
	r := doc.Root()
	if len(r.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(r.Children))
	}
}

func TestParseRejectsDoctype(t *testing.T) {
	_, err := ParseString(`<!DOCTYPE r [<!ENTITY x "y">]><r>&x;</r>`)
	if !errors.Is(err, ErrDoctype) {
		t.Fatalf("err = %v, want ErrDoctype", err)
	}
}

// TestParseAllowDoctype: there is no way to allow a doctype any more;
// even a bare declaration through Parse is ErrDoctype.
func TestParseAllowDoctype(t *testing.T) {
	_, err := Parse(strings.NewReader(`<!DOCTYPE r><r/>`))
	if !errors.Is(err, ErrDoctype) {
		t.Fatalf("err = %v, want ErrDoctype", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"mismatched end tag", `<a><b></a></b>`},
		{"unclosed", `<a><b>`},
		{"multiple roots", `<a/><b/>`},
		{"text outside root", `<a/>stray`},
		{"duplicate attribute", `<a x="1" x="2"/>`},
		{"empty", ``},
		{"stray end", `</a>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.in); err == nil {
				t.Errorf("ParseString(%q) succeeded, want error", tc.in)
			}
		})
	}
}

// TestParseDepthLimit: every entry point that parses a whole document
// holds the tokenizer's default depth limit of 512 nested elements.
func TestParseDepthLimit(t *testing.T) {
	nested := func(depth int) string {
		return strings.Repeat("<a>", depth) + strings.Repeat("</a>", depth)
	}
	entries := []struct {
		name  string
		parse func(string) (*Document, error)
	}{
		{"Parse", func(s string) (*Document, error) { return Parse(strings.NewReader(s)) }},
		{"ParseString", ParseString},
		{"ParseBytes", func(s string) (*Document, error) { return ParseBytes([]byte(s)) }},
	}
	for _, e := range entries {
		doc, err := e.parse(nested(512))
		if err != nil {
			t.Errorf("%s: 512 levels: %v", e.name, err)
		} else {
			doc.Release()
		}
		if _, err := e.parse(nested(513)); err == nil || !strings.Contains(err.Error(), "depth limit 512") {
			t.Errorf("%s: 513 levels: err = %v, want the depth limit of 512", e.name, err)
		}
	}
}

func TestParseCRLFNormalization(t *testing.T) {
	doc := mustParse(t, "<r>line1\r\nline2\rline3</r>")
	want := "line1\nline2\nline3"
	if got := doc.Root().Text(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
}

// TestParseManyTextChunksLinear: a text node delivered as 100 000
// chunks (50 000 text/CDATA pairs) must cost allocation linear in the
// input, not the quadratic re-copying of appending each chunk to a
// string.
func TestParseManyTextChunksLinear(t *testing.T) {
	in := "<r>" + strings.Repeat("a<![CDATA[b]]>", 50000) + "</r>"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	doc, err := ParseString(in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doc.Root().Text(), strings.Repeat("ab", 50000); got != want {
		t.Fatalf("merged text has %d bytes, want %d", len(got), len(want))
	}
	if len(doc.Root().Children) != 1 {
		t.Fatalf("root has %d children, want one merged text node", len(doc.Root().Children))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(in)) {
		t.Errorf("parsing %d bytes allocated %d bytes; text merging is not linear", len(in), alloc)
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []string{
		`<r/>`,
		`<r a="1"/>`,
		`<a:r xmlns:a="urn:x" a:k="v"><c>text</c></a:r>`,
		`<r>&amp;&lt;&gt;</r>`,
		`<r att="a&quot;b&#x9;c"/>`,
		`<r><!-- c --><?pi d?><k/></r>`,
	}
	for _, in := range cases {
		doc := mustParse(t, in)
		out := doc.Root().String()
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse %q -> %q: %v", in, out, err)
		}
		out2 := doc2.Root().String()
		if out != out2 {
			t.Errorf("round trip unstable: %q -> %q -> %q", in, out, out2)
		}
	}
}

func TestSerializeEscaping(t *testing.T) {
	e := NewElement("r")
	e.SetAttr("a", "x\"y<z&\n\t")
	e.AddText("a<b>&c\r")
	got := e.String()
	want := `<r a="x&quot;y&lt;z&amp;&#xA;&#x9;">a&lt;b&gt;&amp;c&#xD;</r>`
	if got != want {
		t.Errorf("serialize = %q, want %q", got, want)
	}
	// The escaped form must parse back to the same data.
	doc := mustParse(t, got)
	if doc.Root().AttrValue("a") != "x\"y<z&\n\t" {
		t.Errorf("attr round trip = %q", doc.Root().AttrValue("a"))
	}
	if doc.Root().Text() != "a<b>&c\r" {
		t.Errorf("text round trip = %q", doc.Root().Text())
	}
}

func TestSerializeEmptyElement(t *testing.T) {
	e := NewElement("empty")
	if got := e.String(); got != "<empty/>" {
		t.Errorf("empty element = %q", got)
	}
	e.AddText("")
	if got := e.String(); got != "<empty></empty>" {
		t.Errorf("element with empty text node = %q", got)
	}
}

func TestDocumentSerializeHasDeclaration(t *testing.T) {
	doc := mustParse(t, `<r/>`)
	s := doc.String()
	if !strings.HasPrefix(s, `<?xml version="1.0" encoding="UTF-8"?>`) {
		t.Errorf("missing XML declaration: %q", s)
	}
}
