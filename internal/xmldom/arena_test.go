package xmldom

import (
	"strings"
	"testing"
)

// TestReleaseIdempotentAndNoopOnClone: a second Release does nothing,
// and so does releasing a Clone, which owns no arena: the clone keeps
// its tree, and releasing the parsed document leaves the clone intact.
func TestReleaseIdempotentAndNoopOnClone(t *testing.T) {
	const src = `<r a="1"><x>one</x><y b="2">two</y></r>`
	doc := mustParse(t, src)
	clone := doc.Clone()
	clone.Release()
	if got := clone.Root().String(); got != src {
		t.Fatalf("released clone = %q, want it untouched", got)
	}
	doc.Release()
	if doc.Children != nil || doc.Root() != nil {
		t.Fatalf("released document still has children: %v", doc.Children)
	}
	doc.Release()
	if got := clone.Root().String(); got != src {
		t.Fatalf("clone after the original's release = %q, want %q", got, src)
	}
	hand := &Document{}
	hand.SetRoot(NewElement("r").SetAttr("a", "1"))
	hand.Release()
	if got := hand.Root().String(); got != `<r a="1"/>` {
		t.Fatalf("hand-built document after Release = %q", got)
	}
}

// TestReleasedArenaIsRecycled: the next parse after a Release builds
// in the same chunks. Names and attribute values the first document
// handed out survive, and so does text copied out with strings.Clone;
// text read in place views the recycled character slab.
func TestReleasedArenaIsRecycled(t *testing.T) {
	doc := mustParse(t, `<r><x k="v">text</x></r>`)
	x := doc.Root().FirstChildElement("x")
	name, val, kept, view := x.Local, x.AttrValue("k"), strings.Clone(x.Text()), x.Text()
	doc.Release()
	again := mustParse(t, `<q><z k="w">other</z></q>`)
	defer again.Release()
	if name != "x" || val != "v" || kept != "text" {
		t.Fatalf("strings copied out before the release changed: %q %q %q", name, val, kept)
	}
	if view == "text" {
		t.Fatal("text read in place survived the release; the character slab was not recycled")
	}
	if got := again.Root().String(); got != `<q><z k="w">other</z></q>` {
		t.Fatalf("parse into a recycled arena = %q", got)
	}
}

// TestHugeArenaNotPooled: an arena a huge document grew past
// maxPooledArena is dropped on Release, so the pool never hands its
// chunks to the next parse.
func TestHugeArenaNotPooled(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 20000; i++ {
		b.WriteString(`<e a="1">t</e>`)
	}
	b.WriteString("</r>")
	doc := mustParse(t, b.String())
	huge := doc.arena
	if got := huge.retained(); got <= maxPooledArena {
		t.Fatalf("huge document retains %d bytes, want more than the %d-byte cap", got, maxPooledArena)
	}
	doc.Release()
	for i := 0; i < 8; i++ {
		if a := getArena(); a == huge {
			t.Fatal("the pool handed out an arena past the byte cap")
		}
	}
}

// TestCarvedSlicesCopyOut: children and attribute slices are carved
// with cap == len from shared slabs, so growing one (InsertChildAt,
// SetAttr, a plain append) copies it out and leaves the slab
// neighbours carved around it untouched.
func TestCarvedSlicesCopyOut(t *testing.T) {
	doc := mustParse(t, `<r><p a="1"><x/></p><q b="2"><y/></q><s c="3"><z/></s></r>`)
	defer doc.Release()
	doc.Root().Walk(func(n Node) bool {
		if e, ok := n.(*Element); ok && (cap(e.Children) != len(e.Children) || cap(e.Attrs) != len(e.Attrs)) {
			t.Fatalf("<%s> carved with spare capacity: children %d/%d attrs %d/%d",
				e.Local, len(e.Children), cap(e.Children), len(e.Attrs), cap(e.Attrs))
		}
		return true
	})
	q := doc.Root().FirstChildElement("q")

	q.InsertChildAt(1, NewElement("ins"))
	q.SetAttr("extra", "3")
	q.Children = append(q.Children, &Text{Data: "tail"})
	q.Attrs = append(q.Attrs, Attr{Local: "more", Value: "4"})

	if got := q.String(); got != `<q b="2" extra="3" more="4"><y/><ins/>tail</q>` {
		t.Fatalf("grown q = %s", got)
	}
	if got := doc.Root().String(); got != `<r><p a="1"><x/></p><q b="2" extra="3" more="4"><y/><ins/>tail</q><s c="3"><z/></s></r>` {
		t.Fatalf("neighbours after growing q = %s", got)
	}
}

// TestParseFragmentIntoOwner: a fragment's nodes come detached and are
// carved from the owner's arena; a document without an arena still
// gets a working fragment.
func TestParseFragmentIntoOwner(t *testing.T) {
	doc := mustParse(t, `<r><slot/></r>`)
	defer doc.Release()
	used := doc.arena.elems.chunks[0]
	nodes, err := doc.ParseFragment([]byte(`<a>1</a>text<b/>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("fragment yielded %d nodes, want 3", len(nodes))
	}
	for _, n := range nodes {
		if n.ParentElement() != nil {
			t.Fatalf("fragment node %v is not detached", n)
		}
	}
	if got := len(doc.arena.elems.chunks[0]); got <= len(used) {
		t.Fatalf("fragment elements not carved from the owner's arena (%d slots before, %d after)", len(used), got)
	}
	if _, err := doc.ParseFragment([]byte(`<a>`)); err == nil {
		t.Fatal("malformed fragment parsed")
	}
	root := doc.Root()
	for i, n := range nodes {
		root.InsertChildAt(i, n)
	}
	if got := root.String(); got != `<r><a>1</a>text<b/><slot/></r>` {
		t.Fatalf("document with the fragment = %s", got)
	}

	hand := &Document{}
	nodes, err = hand.ParseFragment([]byte(`<a/><b/>`))
	if err != nil || len(nodes) != 2 {
		t.Fatalf("fragment into a hand-built document: %d nodes, %v", len(nodes), err)
	}
}
