package c14n

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"discsec/internal/xmldom"
)

func canon(t *testing.T, xmlText string, opts Options) string {
	t.Helper()
	out, err := CanonicalizeString(xmlText, opts)
	if err != nil {
		t.Fatalf("canonicalize %q: %v", xmlText, err)
	}
	return string(out)
}

func canonElem(t *testing.T, e *xmldom.Element, opts Options) string {
	t.Helper()
	out, err := Canonicalize(e, opts)
	if err != nil {
		t.Fatalf("canonicalize element: %v", err)
	}
	return string(out)
}

func TestByURI(t *testing.T) {
	for _, uri := range []string{
		"http://www.w3.org/TR/2001/REC-xml-c14n-20010315",
		"http://www.w3.org/TR/2001/REC-xml-c14n-20010315#WithComments",
		"http://www.w3.org/2001/10/xml-exc-c14n#",
		"http://www.w3.org/2001/10/xml-exc-c14n#WithComments",
	} {
		opts, err := ByURI(uri)
		if err != nil {
			t.Errorf("ByURI(%q): %v", uri, err)
		}
		if got := opts.URI(); got != uri {
			t.Errorf("round trip %q -> %q", uri, got)
		}
	}
	if _, err := ByURI("urn:nope"); err == nil {
		t.Error("unknown URI accepted")
	}
}

func TestEmptyElementExpansion(t *testing.T) {
	got := canon(t, `<doc><e1/><e2 ></e2></doc>`, Options{})
	want := `<doc><e1></e1><e2></e2></doc>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestAttributeOrdering(t *testing.T) {
	// Namespace declarations first (sorted by prefix), then attributes
	// sorted by (namespace URI, local name); unprefixed attrs first.
	in := `<doc xmlns:b="urn:b" xmlns:a="urn:a" b:attr="b" a:attr="a" attr2="2" attr1="1"/>`
	got := canon(t, in, Options{})
	want := `<doc xmlns:a="urn:a" xmlns:b="urn:b" attr1="1" attr2="2" a:attr="a" b:attr="b"></doc>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestDefaultNamespaceBeforePrefixed(t *testing.T) {
	in := `<doc xmlns:p="urn:p" xmlns="urn:d"><p:e/></doc>`
	got := canon(t, in, Options{})
	want := `<doc xmlns="urn:d" xmlns:p="urn:p"><p:e></p:e></doc>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestSuperfluousNamespaceRemoved(t *testing.T) {
	// A child redeclaring the identical binding must not re-render it.
	in := `<a xmlns:p="urn:p"><b xmlns:p="urn:p"><p:c/></b></a>`
	got := canon(t, in, Options{})
	want := `<a xmlns:p="urn:p"><b><p:c></p:c></b></a>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestRebindingRendered(t *testing.T) {
	in := `<a xmlns:p="urn:1"><b xmlns:p="urn:2"><p:c/></b></a>`
	got := canon(t, in, Options{})
	want := `<a xmlns:p="urn:1"><b xmlns:p="urn:2"><p:c></p:c></b></a>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestEmptyDefaultNamespaceHandling(t *testing.T) {
	// xmlns="" rendered only where it cancels an inherited default.
	in := `<a xmlns="urn:d"><b xmlns=""><c/></b></a>`
	got := canon(t, in, Options{})
	want := `<a xmlns="urn:d"><b xmlns=""><c></c></b></a>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	// Gratuitous xmlns="" with no inherited default is dropped.
	in2 := `<a xmlns=""><b xmlns=""/></a>`
	got2 := canon(t, in2, Options{})
	want2 := `<a><b></b></a>`
	if got2 != want2 {
		t.Errorf("got  %q\nwant %q", got2, want2)
	}
}

func TestXMLPrefixNotRendered(t *testing.T) {
	in := `<a xml:lang="en"><b/></a>`
	got := canon(t, in, Options{})
	want := `<a xml:lang="en"><b></b></a>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestCommentStripping(t *testing.T) {
	in := `<a><!-- gone -->text<!-- gone too --></a>`
	if got := canon(t, in, Options{}); got != `<a>text</a>` {
		t.Errorf("without comments: %q", got)
	}
	if got := canon(t, in, Options{WithComments: true}); got != `<a><!-- gone -->text<!-- gone too --></a>` {
		t.Errorf("with comments: %q", got)
	}
}

func TestTopLevelPIsAndComments(t *testing.T) {
	in := "<?pi1 one?><!-- c1 --><doc/><!-- c2 --><?pi2 two?>"
	got := canon(t, in, Options{WithComments: true})
	want := "<?pi1 one?>\n<!-- c1 -->\n<doc></doc>\n<!-- c2 -->\n<?pi2 two?>"
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
	gotNC := canon(t, in, Options{})
	wantNC := "<?pi1 one?>\n<doc></doc>\n<?pi2 two?>"
	if gotNC != wantNC {
		t.Errorf("no comments: got %q want %q", gotNC, wantNC)
	}
}

func TestCharacterEscaping(t *testing.T) {
	in := "<a attr=\"x&amp;y&lt;z&quot;&#9;&#10;&#13;\">t&amp;u&lt;v&gt;w&#13;</a>"
	got := canon(t, in, Options{})
	want := `<a attr="x&amp;y&lt;z&quot;&#x9;&#xA;&#xD;">t&amp;u&lt;v&gt;w&#xD;</a>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestCDATAFlattened(t *testing.T) {
	got := canon(t, `<a><![CDATA[<x>&]]></a>`, Options{})
	want := `<a>&lt;x&gt;&amp;</a>`
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestSubtreeApexInheritsNamespaces(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xmlns:p="urn:p" xmlns="urn:d"><p:mid><inner a="1"/></p:mid></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	got := canonElem(t, mid, Options{})
	// Inclusive c14n of a subtree renders all in-scope namespaces at
	// the apex.
	want := `<p:mid xmlns="urn:d" xmlns:p="urn:p"><inner a="1"></inner></p:mid>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestSubtreeApexImportsXMLAttrs(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xml:lang="en" xml:base="http://x/"><mid xml:lang="de"><leaf/></mid></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	got := canonElem(t, mid, Options{})
	// Nearest xml:lang wins (de, on mid itself); xml:base imported.
	want := `<mid xml:base="http://x/" xml:lang="de"><leaf></leaf></mid>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestExclusiveOnlyVisiblyUtilized(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xmlns:used="urn:u" xmlns:unused="urn:x"><used:mid><used:leaf/></used:mid></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	got := canonElem(t, mid, Options{Exclusive: true})
	want := `<used:mid xmlns:used="urn:u"><used:leaf></used:leaf></used:mid>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestExclusiveNoReRender(t *testing.T) {
	in := `<a:r xmlns:a="urn:a"><a:c><a:d/></a:c></a:r>`
	got := canon(t, in, Options{Exclusive: true})
	want := `<a:r xmlns:a="urn:a"><a:c><a:d></a:d></a:c></a:r>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestExclusiveAttributePrefixUtilized(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xmlns:q="urn:q"><mid q:attr="v"/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	got := canonElem(t, mid, Options{Exclusive: true})
	want := `<mid xmlns:q="urn:q" q:attr="v"></mid>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestExclusiveInclusivePrefixList(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xmlns:extra="urn:e" xmlns:used="urn:u"><used:mid/></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	got := canonElem(t, mid, Options{Exclusive: true, InclusivePrefixes: []string{"extra"}})
	want := `<used:mid xmlns:extra="urn:e" xmlns:used="urn:u"></used:mid>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

func TestExclusiveDefaultNamespace(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xmlns="urn:d"><mid><leaf/></mid></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	got := canonElem(t, mid, Options{Exclusive: true})
	// mid and leaf use the default namespace, so it is visibly
	// utilized on each; rendered once at the apex.
	want := `<mid xmlns="urn:d"><leaf></leaf></mid>`
	if got != want {
		t.Errorf("got  %q\nwant %q", got, want)
	}
}

// The paper's §5.4 motivation: syntactic variants of the same document
// must canonicalize identically.
func TestSyntacticVariantsConverge(t *testing.T) {
	variants := []string{
		"<doc a=\"1\" b=\"2\"><e/></doc>",
		"<doc b=\"2\" a=\"1\"><e></e></doc>",
		"<doc\tb=\"2\"\n   a=\"1\"><e/></doc>",
		"<doc a=\"1\" b=\"2\"><e/></doc><!-- trailing -->",
	}
	var first string
	for i, v := range variants {
		got := canon(t, v, Options{})
		if i == 0 {
			first = got
			continue
		}
		if got != first {
			t.Errorf("variant %d diverged:\n%q\nvs\n%q", i, got, first)
		}
	}
}

// Property: canonicalization is idempotent — canonical output re-parses
// and re-canonicalizes to itself.
func TestCanonicalizationIdempotentProperty(t *testing.T) {
	seeds := []string{
		`<a xmlns:p="urn:p" p:x="1" b="2"><p:c>t&amp;</p:c><d xml:space="preserve"> </d></a>`,
		`<r xmlns="urn:d"><m xmlns=""><n/></m></r>`,
		`<r><!-- c --><?pi d?>text</r>`,
	}
	for _, mode := range []Options{{}, {WithComments: true}, {Exclusive: true}} {
		for _, s := range seeds {
			c1 := canon(t, s, mode)
			c2 := canon(t, c1, mode)
			if c1 != c2 {
				t.Errorf("mode %+v not idempotent:\n1: %q\n2: %q", mode, c1, c2)
			}
		}
	}
}

// Property: for randomly shuffled attribute orders, canonical forms are
// equal.
func TestAttributeOrderInvarianceProperty(t *testing.T) {
	f := func(perm []int) bool {
		attrs := []string{`a="1"`, `b="2"`, `c="3"`, `d="4"`, `e="5"`}
		order := make([]string, len(attrs))
		copy(order, attrs)
		for i, p := range perm {
			if len(order) < 2 {
				break
			}
			j := ((p % len(order)) + len(order)) % len(order)
			k := i % len(order)
			order[j], order[k] = order[k], order[j]
		}
		docA := "<r " + strings.Join(attrs, " ") + "/>"
		docB := "<r " + strings.Join(order, " ") + "/>"
		ca, err1 := CanonicalizeString(docA, Options{})
		cb, err2 := CanonicalizeString(docB, Options{})
		return err1 == nil && err2 == nil && bytes.Equal(ca, cb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalizeDocumentNoRoot(t *testing.T) {
	if _, err := CanonicalizeDocument(&xmldom.Document{}, Options{}); err == nil {
		t.Error("empty document accepted")
	}
}

// Differential property: the core and the reference tree walker produce
// byte-identical canonical forms on generated documents with varied
// namespace structure, for the whole document and for every element as
// a subset apex.
func TestNamespaceStrategyDifferentialProperty(t *testing.T) {
	build := func(seed uint32) *xmldom.Document {
		// Deterministic doc with nested, shadowed, and cancelled
		// namespace declarations driven by the seed.
		s := seed
		next := func(n uint32) uint32 {
			s = s*1664525 + 1013904223
			return s % n
		}
		doc := &xmldom.Document{}
		root := xmldom.NewElement("r")
		root.DeclareNamespace("", "urn:d0")
		root.DeclareNamespace("a", "urn:a0")
		doc.SetRoot(root)
		cur := root
		for i := 0; i < 12; i++ {
			var name string
			switch next(3) {
			case 0:
				name = "a:n"
			case 1:
				name = "n"
			default:
				name = "b:n"
			}
			child := cur.CreateChild(name)
			switch next(5) {
			case 0:
				child.DeclareNamespace("a", "urn:a1") // rebind
			case 1:
				child.DeclareNamespace("", "") // cancel default
			case 2:
				child.DeclareNamespace("b", "urn:b0")
			case 3:
				child.DeclareNamespace("a", "urn:a0") // superfluous
			}
			if next(2) == 0 {
				child.SetAttr("a:k", "v")
			}
			if child.NamespaceURI() == "" && name == "b:n" {
				// Unbound prefix would be unserializable context;
				// bind it locally.
				child.DeclareNamespace("b", "urn:bfix")
			}
			if next(2) == 0 {
				cur = child
			}
		}
		return doc
	}
	for seed := uint32(0); seed < 40; seed++ {
		doc := build(seed)
		for _, opts := range []Options{{}, {Exclusive: true}, {WithComments: true}} {
			got, err1 := CanonicalizeDocument(doc, opts)
			want, err2 := oracleCanonicalizeDocument(doc, opts)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: %v / %v", seed, err1, err2)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d opts %+v diverged:\ncore:   %s\noracle: %s", seed, opts, got, want)
			}
			for _, apex := range append([]*xmldom.Element{doc.Root()}, doc.Root().Descendants()...) {
				checkAgainstOracle(t, apex, nil, opts)
			}
		}
	}
}

// The same differential check on a subtree apex (inherited namespaces
// and xml:* attributes), with and without an excluded descendant.
func TestNamespaceStrategyDifferentialSubtree(t *testing.T) {
	doc, err := xmldom.ParseString(`<root xmlns="urn:d" xmlns:p="urn:p" xml:lang="en"><p:mid xmlns:q="urn:q"><leaf q:x="1"><p:deep/></leaf></p:mid></root>`)
	if err != nil {
		t.Fatal(err)
	}
	mid := doc.Root().FirstChildElement("mid")
	leaf := mid.FirstChildElement("leaf")
	for _, opts := range []Options{{}, {Exclusive: true}, {Exclusive: true, InclusivePrefixes: []string{"p", "#default"}}} {
		for _, excluded := range []*xmldom.Element{nil, leaf, leaf.FirstChildElement("deep")} {
			checkAgainstOracle(t, mid, excluded, opts)
		}
	}
}

// checkAgainstOracle fails the test unless CanonicalizeExcept and the
// reference walker agree on the subset at apex without excluded.
func checkAgainstOracle(t testing.TB, apex, excluded *xmldom.Element, opts Options) {
	t.Helper()
	got, err1 := CanonicalizeExcept(apex, excluded, opts)
	want, err2 := oracleCanonicalizeExcept(apex, excluded, opts)
	if err1 != nil || err2 != nil {
		t.Fatalf("apex <%s> opts %+v: %v / %v", apex.Name(), opts, err1, err2)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("apex <%s> opts %+v diverged:\ncore:   %q\noracle: %q", apex.Name(), opts, got, want)
	}
}

// Vectors adapted from the C14N 1.0 specification's §3 examples (DTD-
// dependent parts omitted: this stack rejects DTDs by design).
func TestSpecExampleVectors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		in   string
		want string
	}{
		{
			// §3.1 PIs, comments, and outside of document element.
			name: "spec-3.1-with-comments",
			opts: Options{WithComments: true},
			in:   "<?xml version=\"1.0\"?>\n\n<?xml-stylesheet   href=\"doc.xsl\"\n   type=\"text/xsl\"   ?>\n\n<doc>Hello, world!<!-- Comment 1 --></doc>\n\n<?pi-without-data     ?>\n\n<!-- Comment 2 -->\n\n<!-- Comment 3 -->",
			want: "<?xml-stylesheet href=\"doc.xsl\"\n   type=\"text/xsl\"   ?>\n<doc>Hello, world!<!-- Comment 1 --></doc>\n<?pi-without-data?>\n<!-- Comment 2 -->\n<!-- Comment 3 -->",
		},
		{
			name: "spec-3.1-without-comments",
			opts: Options{},
			in:   "<?xml version=\"1.0\"?>\n\n<?xml-stylesheet   href=\"doc.xsl\"\n   type=\"text/xsl\"   ?>\n\n<doc>Hello, world!<!-- Comment 1 --></doc>\n\n<?pi-without-data     ?>\n\n<!-- Comment 2 -->\n\n<!-- Comment 3 -->",
			want: "<?xml-stylesheet href=\"doc.xsl\"\n   type=\"text/xsl\"   ?>\n<doc>Hello, world!</doc>\n<?pi-without-data?>",
		},
		{
			// §3.3 start and end tags (doctype-declared attributes
			// omitted; namespace handling retained).
			name: "spec-3.3-start-end-tags",
			opts: Options{},
			in:   "<doc>\n   <e1   />\n   <e2   ></e2>\n   <e3   name = \"elem3\"   id=\"elem3\"   />\n   <e4   name=\"elem4\"   id=\"elem4\"   ></e4>\n   <e5 a:attr=\"out\" b:attr=\"sorted\" attr2=\"all\" attr=\"I'm\"\n      xmlns:b=\"http://www.ietf.org\"\n      xmlns:a=\"http://www.w3.org\"\n      xmlns=\"http://example.org\"/>\n   <e6 xmlns=\"\" xmlns:a=\"http://www.w3.org\">\n      <e7 xmlns=\"http://www.ietf.org\">\n         <e8 xmlns=\"\" xmlns:a=\"http://www.w3.org\">\n            <e9 xmlns=\"\" xmlns:a=\"http://www.ietf.org\"/>\n         </e8>\n      </e7>\n   </e6>\n</doc>",
			want: "<doc>\n   <e1></e1>\n   <e2></e2>\n   <e3 id=\"elem3\" name=\"elem3\"></e3>\n   <e4 id=\"elem4\" name=\"elem4\"></e4>\n   <e5 xmlns=\"http://example.org\" xmlns:a=\"http://www.w3.org\" xmlns:b=\"http://www.ietf.org\" attr=\"I'm\" attr2=\"all\" b:attr=\"sorted\" a:attr=\"out\"></e5>\n   <e6 xmlns:a=\"http://www.w3.org\">\n      <e7 xmlns=\"http://www.ietf.org\">\n         <e8 xmlns=\"\">\n            <e9 xmlns:a=\"http://www.ietf.org\"></e9>\n         </e8>\n      </e7>\n   </e6>\n</doc>",
		},
		{
			// §3.4 character modifications and character references
			// (the DTD-declared-attribute portions omitted).
			name: "spec-3.4-char-refs",
			opts: Options{},
			in:   "<doc>\n   <text>First line&#x0d;&#10;Second line</text>\n   <value>&#x32;</value>\n   <compute expr=\"value&gt;&quot;0&quot; &amp;&amp; value&lt;&quot;10&quot; ?&quot;valid&quot;:&quot;error&quot;\">valid</compute>\n   <norm attr=\" '&#x20;&#13;&#xa;&#9;'   \"/>\n</doc>",
			// Note: ">" is NOT escaped in attribute values per the
			// canonical form (only & < " TAB LF CR are).
			want: "<doc>\n   <text>First line&#xD;\nSecond line</text>\n   <value>2</value>\n   <compute expr=\"value>&quot;0&quot; &amp;&amp; value&lt;&quot;10&quot; ?&quot;valid&quot;:&quot;error&quot;\">valid</compute>\n   <norm attr=\" ' &#xD;&#xA;&#x9;'   \"></norm>\n</doc>",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := canon(t, tc.in, tc.opts)
			if got != tc.want {
				t.Errorf("got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}
