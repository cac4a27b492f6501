package xmldom

import (
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestTreeManipulation(t *testing.T) {
	root := NewElement("root")
	a := root.CreateChild("a")
	b := root.CreateChild("b")
	c := root.CreateChild("c")

	if got := len(root.ChildElements()); got != 3 {
		t.Fatalf("children = %d, want 3", got)
	}
	if a.ParentElement() != root {
		t.Error("a parent not root")
	}

	// Move b to front.
	root.InsertChildAt(0, b)
	if root.ChildElements()[0] != b {
		t.Error("InsertChildAt did not move b to front")
	}
	if got := len(root.ChildElements()); got != 3 {
		t.Errorf("children after move = %d, want 3", got)
	}

	// Remove.
	if !root.RemoveChild(c) {
		t.Error("RemoveChild(c) = false")
	}
	if c.ParentElement() != nil {
		t.Error("removed child still has parent")
	}
	if root.RemoveChild(c) {
		t.Error("second RemoveChild(c) = true")
	}

	// Replace.
	d := NewElement("d")
	if !root.ReplaceChild(a, d) {
		t.Error("ReplaceChild(a, d) = false")
	}
	if a.ParentElement() != nil || d.ParentElement() != root {
		t.Error("ReplaceChild parents wrong")
	}

	// AppendChild reparents.
	d.AppendChild(b)
	if b.ParentElement() != d {
		t.Error("b not reparented to d")
	}
	if root.ChildIndex(b) != -1 {
		t.Error("b still indexed under root")
	}
}

func TestCloneIsDeepAndDetached(t *testing.T) {
	doc := mustParse(t, `<r a="1"><c><!-- x -->t</c></r>`)
	root := doc.Root()
	clone := root.Clone()
	if clone.ParentElement() != nil {
		t.Error("clone has parent")
	}
	clone.SetAttr("a", "2")
	clone.FirstChildElement("c").SetText("changed")
	if root.AttrValue("a") != "1" {
		t.Error("clone mutation leaked into original attr")
	}
	if root.FirstChildElement("c").Text() != "t" {
		t.Error("clone mutation leaked into original text")
	}
	if clone.String() == root.String() {
		t.Error("clone should differ after mutation")
	}
}

func TestAttrHelpers(t *testing.T) {
	e := NewElement("e")
	e.SetAttr("k", "v1")
	e.SetAttr("k", "v2")
	if len(e.Attrs) != 1 || e.AttrValue("k") != "v2" {
		t.Errorf("SetAttr replace failed: %+v", e.Attrs)
	}
	if !e.RemoveAttr("k") {
		t.Error("RemoveAttr = false")
	}
	if _, ok := e.Attr("k"); ok {
		t.Error("attr still present after removal")
	}
	if e.RemoveAttr("k") {
		t.Error("second RemoveAttr = true")
	}
}

func TestNamespaceResolution(t *testing.T) {
	doc := mustParse(t, `<a xmlns="urn:def" xmlns:p="urn:p"><p:b><c/><d xmlns="" xmlns:p="urn:p2"><p:e/></d></p:b></a>`)
	a := doc.Root()
	b := a.FirstChildElement("b")
	c := b.FirstChildElement("c")
	d := b.FirstChildElement("d")
	e := d.FirstChildElement("e")

	if got := a.NamespaceURI(); got != "urn:def" {
		t.Errorf("a ns = %q", got)
	}
	if got := b.NamespaceURI(); got != "urn:p" {
		t.Errorf("b ns = %q", got)
	}
	if got := c.NamespaceURI(); got != "urn:def" {
		t.Errorf("c ns = %q (default inherits)", got)
	}
	if got := d.NamespaceURI(); got != "" {
		t.Errorf("d ns = %q (default unbound)", got)
	}
	if got := e.NamespaceURI(); got != "urn:p2" {
		t.Errorf("e ns = %q (rebound prefix)", got)
	}
	if got := e.ResolvePrefix("xml"); got != XMLNamespace {
		t.Errorf("xml prefix = %q", got)
	}
}

func TestLookupPrefixShadowing(t *testing.T) {
	doc := mustParse(t, `<a xmlns:p="urn:outer"><b xmlns:p="urn:inner"><c/></b></a>`)
	c := doc.Root().FirstChildElement("b").FirstChildElement("c")
	if p, ok := c.LookupPrefix("urn:inner"); !ok || p != "p" {
		t.Errorf("LookupPrefix(inner) = %q, %v", p, ok)
	}
	// urn:outer is shadowed by the inner rebinding of p.
	if p, ok := c.LookupPrefix("urn:outer"); ok {
		t.Errorf("LookupPrefix(outer) = %q, want unusable", p)
	}
}

func TestInScopeNamespaces(t *testing.T) {
	doc := mustParse(t, `<a xmlns="urn:d" xmlns:p="urn:p"><b xmlns:q="urn:q" xmlns=""><c/></b></a>`)
	c := doc.Root().FirstChildElement("b").FirstChildElement("c")
	in := c.InScopeNamespaces()
	if in["p"] != "urn:p" || in["q"] != "urn:q" {
		t.Errorf("in-scope = %v", in)
	}
	if _, ok := in[""]; ok {
		t.Errorf("default ns should be unbound at c: %v", in)
	}
	if in["xml"] != XMLNamespace {
		t.Errorf("xml binding missing: %v", in)
	}
}

func TestEnsurePrefix(t *testing.T) {
	e := NewElement("r")
	p := e.EnsurePrefix("urn:x", "x")
	if p != "x" {
		t.Errorf("EnsurePrefix = %q", p)
	}
	if got := e.ResolvePrefix("x"); got != "urn:x" {
		t.Errorf("declared ns = %q", got)
	}
	// Second call reuses the declaration.
	if p2 := e.EnsurePrefix("urn:x", "x"); p2 != "x" {
		t.Errorf("second EnsurePrefix = %q", p2)
	}
	if n := len(e.Attrs); n != 1 {
		t.Errorf("attrs = %d, want 1", n)
	}
	// Conflicting preferred prefix gets a variant.
	e2 := NewElement("r")
	e2.DeclareNamespace("x", "urn:taken")
	p3 := e2.EnsurePrefix("urn:other", "x")
	if p3 == "x" {
		t.Error("EnsurePrefix reused conflicting prefix")
	}
	if got := e2.ResolvePrefix(p3); got != "urn:other" {
		t.Errorf("variant prefix resolves to %q", got)
	}
}

func TestElementByID(t *testing.T) {
	doc := mustParse(t, `<r><a Id="one"/><b><c ID="two"/><d id="three"/></b></r>`)
	for _, id := range []string{"one", "two", "three"} {
		if doc.ElementByID(id) == nil {
			t.Errorf("ElementByID(%q) = nil", id)
		}
	}
	if doc.ElementByID("missing") != nil {
		t.Error("ElementByID(missing) != nil")
	}
	if el := doc.ElementByID("two"); el.Local != "c" {
		t.Errorf("ElementByID(two) = %s", el.Local)
	}
}

func TestFindPaths(t *testing.T) {
	doc := mustParse(t, `<r><a k="1"><b/><b x="y"/></a><a k="2"><c><b deep="yes"/></c></a></r>`)
	r := doc.Root()

	all, err := r.FindAll("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Errorf("a/b = %d matches, want 2", len(all))
	}

	all, err = r.FindAll("//b")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("//b = %d matches, want 3", len(all))
	}

	el, err := r.Find("a[@k='2']/c/b")
	if err != nil {
		t.Fatal(err)
	}
	if el == nil || el.AttrValue("deep") != "yes" {
		t.Errorf("predicate path = %+v", el)
	}

	el, err = r.Find("a[2]")
	if err != nil {
		t.Fatal(err)
	}
	if el == nil || el.AttrValue("k") != "2" {
		t.Errorf("positional = %+v", el)
	}

	el, err = r.Find("a/b[@x]")
	if err != nil {
		t.Fatal(err)
	}
	if el == nil || el.AttrValue("x") != "y" {
		t.Errorf("attr-presence = %+v", el)
	}

	if el, _ := r.Find("zzz"); el != nil {
		t.Error("Find(zzz) != nil")
	}
	if _, err := r.Find("a[bad]"); err == nil {
		t.Error("malformed predicate accepted")
	}
	if _, err := r.Find(""); err == nil {
		t.Error("empty path accepted")
	}
}

func TestWalkSkipsSubtree(t *testing.T) {
	doc := mustParse(t, `<r><skip><inner/></skip><keep/></r>`)
	var visited []string
	doc.Root().Walk(func(n Node) bool {
		e, ok := n.(*Element)
		if !ok {
			return true
		}
		visited = append(visited, e.Local)
		return e.Local != "skip"
	})
	want := []string{"r", "skip", "keep"}
	if len(visited) != len(want) {
		t.Fatalf("visited = %v, want %v", visited, want)
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("visited = %v, want %v", visited, want)
		}
	}
}

// Property: serializing any generated text content and parsing it back
// yields the original string.
func TestTextSerializationRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !validXMLChars(s) {
			return true // skip strings XML cannot carry
		}
		e := NewElement("r")
		e.AddText(s)
		doc, err := ParseString(e.String())
		if err != nil {
			return false
		}
		return doc.Root().Text() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: attribute values round-trip through serialization.
func TestAttrSerializationRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !validXMLChars(s) {
			return true
		}
		e := NewElement("r")
		e.SetAttr("a", s)
		doc, err := ParseString(e.String())
		if err != nil {
			return false
		}
		return doc.Root().AttrValue("a") == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// validXMLChars reports whether every rune is a legal XML 1.0 character
// and survives parser line-ending normalization (no bare CR).
func validXMLChars(s string) bool {
	for _, r := range s {
		switch {
		case r == '\t' || r == '\n':
		case r == '\r':
			return false // normalized to \n by the parser
		case r >= 0x20 && r <= 0xD7FF:
		case r >= 0xE000 && r <= 0xFFFD:
		case r >= 0x10000 && r <= 0x10FFFF:
		default:
			return false
		}
	}
	return true
}

func TestSplitQName(t *testing.T) {
	if p, l := SplitQName("ds:Sig"); p != "ds" || l != "Sig" {
		t.Errorf("SplitQName = %q %q", p, l)
	}
	if p, l := SplitQName("Sig"); p != "" || l != "Sig" {
		t.Errorf("SplitQName = %q %q", p, l)
	}
}

func TestDocumentSetRoot(t *testing.T) {
	doc := mustParse(t, `<!-- hdr --><old/>`)
	repl := NewElement("new")
	doc.SetRoot(repl)
	if doc.Root() != repl {
		t.Error("SetRoot did not replace")
	}
	if len(doc.Children) != 2 {
		t.Errorf("children = %d, want comment + root", len(doc.Children))
	}
	empty := &Document{}
	empty.SetRoot(NewElement("r"))
	if empty.Root() == nil {
		t.Error("SetRoot on empty doc failed")
	}
}

func TestSerializeRejectsMalformedCommentsAndPIs(t *testing.T) {
	e := NewElement("r")
	e.AppendChild(&Comment{Data: "a -- b"})
	if _, err := e.WriteTo(io.Discard); err == nil {
		t.Error("comment containing -- serialized")
	}
	e2 := NewElement("r")
	e2.AppendChild(&ProcInst{Target: "pi", Data: "bad ?> data"})
	if _, err := e2.WriteTo(io.Discard); err == nil {
		t.Error("PI containing ?> serialized")
	}
	e3 := NewElement("r")
	e3.AppendChild(&ProcInst{Target: "pi"})
	if got := e3.String(); got != "<r><?pi?></r>" {
		t.Errorf("data-less PI = %q", got)
	}
}

func TestMustFindPanicsOnBadPath(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFind did not panic on malformed path")
		}
	}()
	NewElement("r").MustFind("a[bad")
}

func TestMustFindReturnsNilOnNoMatch(t *testing.T) {
	if got := NewElement("r").MustFind("missing"); got != nil {
		t.Errorf("MustFind = %v", got)
	}
}

func TestInsertChildAtClamping(t *testing.T) {
	r := NewElement("r")
	a := NewElement("a")
	b := NewElement("b")
	r.InsertChildAt(-5, a) // clamps to 0
	r.InsertChildAt(99, b) // clamps to end
	kids := r.ChildElements()
	if len(kids) != 2 || kids[0] != a || kids[1] != b {
		t.Errorf("children = %v", kids)
	}
}

func TestDocumentCloneNode(t *testing.T) {
	doc := mustParse(t, `<!-- c --><r a="1"/>`)
	clone := doc.CloneNode().(*Document)
	clone.Root().SetAttr("a", "2")
	if doc.Root().AttrValue("a") != "1" {
		t.Error("document clone aliased")
	}
	if len(clone.Children) != 2 {
		t.Errorf("clone children = %d", len(clone.Children))
	}
}

func TestTextNodeParentTracking(t *testing.T) {
	r := NewElement("r")
	txt := &Text{Data: "x"}
	r.AppendChild(txt)
	if txt.ParentElement() != r {
		t.Error("text parent not set")
	}
	r.RemoveChild(txt)
	if txt.ParentElement() != nil {
		t.Error("text parent not cleared")
	}
	c := &Comment{Data: "c"}
	pi := &ProcInst{Target: "t"}
	r.AppendChild(c)
	r.AppendChild(pi)
	if c.ParentElement() != r || pi.ParentElement() != r {
		t.Error("comment/PI parent not set")
	}
}

func TestNodeTypeStrings(t *testing.T) {
	want := map[NodeType]string{
		DocumentNode: "document",
		ElementNode:  "element",
		TextNode:     "text",
		CommentNode:  "comment",
		ProcInstNode: "processing-instruction",
		NodeType(99): "NodeType(99)",
	}
	for nt, s := range want {
		if nt.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(nt), nt.String(), s)
		}
	}
	doc := mustParse(t, `<r><!-- c --><?pi d?>t</r>`)
	if doc.Type() != DocumentNode || doc.Root().Type() != ElementNode {
		t.Error("types wrong")
	}
	for _, n := range doc.Root().Children {
		switch n.(type) {
		case *Comment:
			if n.Type() != CommentNode {
				t.Error("comment type wrong")
			}
		case *ProcInst:
			if n.Type() != ProcInstNode {
				t.Error("PI type wrong")
			}
		case *Text:
			if n.Type() != TextNode {
				t.Error("text type wrong")
			}
		}
	}
}

func TestAttrNamespaceURI(t *testing.T) {
	doc := mustParse(t, `<r xmlns:p="urn:p" p:a="1" b="2" xml:lang="en"/>`)
	r := doc.Root()
	for _, a := range r.Attrs {
		switch a.Name() {
		case "p:a":
			if got := r.AttrNamespaceURI(a); got != "urn:p" {
				t.Errorf("p:a ns = %q", got)
			}
		case "b":
			if got := r.AttrNamespaceURI(a); got != "" {
				t.Errorf("b ns = %q (unprefixed attrs have no namespace)", got)
			}
		case "xml:lang":
			if got := r.AttrNamespaceURI(a); got != XMLNamespace {
				t.Errorf("xml:lang ns = %q", got)
			}
		}
	}
}

func TestNamedChildLookups(t *testing.T) {
	doc := mustParse(t, `<r xmlns:a="urn:a" xmlns:b="urn:b"><a:k/><b:k/><k/></r>`)
	r := doc.Root()
	if got := len(r.AppendChildElementsNamed(nil, "urn:a", "k")); got != 1 {
		t.Errorf("urn:a k count = %d", got)
	}
	if got := len(r.AppendChildElementsNamed(nil, "", "k")); got != 3 {
		t.Errorf("any-ns k count = %d", got)
	}
	// Matches are appended after what dst already holds.
	buf := append(make([]*Element, 0, 4), r)
	if got := r.AppendChildElementsNamed(buf, "urn:b", "k"); len(got) != 2 || got[0] != r || got[1].Prefix != "b" {
		t.Errorf("append after an existing entry = %+v", got)
	}
	if el := r.FirstChildNamed("urn:b", "k"); el == nil || el.Prefix != "b" {
		t.Errorf("FirstChildNamed(urn:b) = %+v", el)
	}
	if el := r.FirstChildNamed("urn:zzz", "k"); el != nil {
		t.Error("unknown namespace matched")
	}
}

func TestTextMatchesConcatenation(t *testing.T) {
	for _, tc := range []struct{ name, xml string }{
		{"no-children", `<r/>`},
		{"lone-text", `<r>only text</r>`},
		{"lone-empty-cdata", `<r><![CDATA[]]></r>`},
		{"several-text-nodes", `<r>a<![CDATA[b]]>c</r>`},
		{"text-around-element", `<r>a<e>inner</e>b</r>`},
		{"text-and-comment", `<r><!-- c -->a<!-- d --></r>`},
		{"element-only", `<r><e>inner</e></r>`},
		{"mixed", `<r>a<?pi x?><e/>b<!-- c -->c<e>d</e></r>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc, err := ParseString(tc.xml)
			if err != nil {
				t.Fatal(err)
			}
			root := doc.Root()
			var want strings.Builder
			for _, c := range root.Children {
				if tx, ok := c.(*Text); ok {
					want.WriteString(tx.Data)
				}
			}
			if got := root.Text(); got != want.String() {
				t.Errorf("Text() = %q, want %q", got, want.String())
			}
		})
	}
	// Built trees hold adjacent text nodes the parser would merge.
	e := NewElement("r").AddText("x").AddText("").AddText("y")
	if got := e.Text(); got != "xy" {
		t.Errorf("Text() over built text nodes = %q, want %q", got, "xy")
	}
}
