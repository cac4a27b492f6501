//go:build domPoison

package xmldom

import "testing"

// TestReleasePoisons: under the domPoison build, a node, an attribute
// slice and a child slice kept past their document's Release read the
// sentinel, which is how that build's runs of the library, player and
// decode tests would catch a model that kept part of a released tree.
func TestReleasePoisons(t *testing.T) {
	doc := mustParse(t, `<r a="1"><x>text</x></r>`)
	root := doc.Root()
	attrs, kids := root.Attrs, root.Children
	x := root.FirstChildElement("x")
	text := x.Children[0].(*Text)
	doc.Release()
	if root.Local != poisoned || x.Local != poisoned {
		t.Errorf("released elements read %q, %q", root.Local, x.Local)
	}
	if attrs[0].Value != poisoned {
		t.Errorf("released attribute reads %q", attrs[0].Value)
	}
	if kids[0] != Node(poisonText) {
		t.Errorf("released child slot reads %v", kids[0])
	}
	if text.Data != poisoned {
		t.Errorf("released text reads %q", text.Data)
	}
}
