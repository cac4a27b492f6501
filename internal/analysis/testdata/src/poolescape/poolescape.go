// Fixture for the poolescape analyzer: values from sync.Pool.Get, and
// parsed documents with the nodes read out of them, must not be used,
// aliased, or returned after their Put (a document's Release), and
// never Put twice on any path.
package fixture

import (
	"sync"

	"discsec/internal/xmldom"
)

type item struct {
	n   int
	buf []byte
}

var pool = sync.Pool{New: func() any { return new(item) }}

// longLived models a longer-lived location a released value must not
// be aliased into.
var longLived struct {
	p *item
}

func use(p *item) {}

// putItem releases its parameter; the flow summaries make every call
// site a release without the rule knowing this helper by name.
func putItem(p *item) {
	p.n = 0
	pool.Put(p)
}

// getItem returns a pool-owned value (returnsPooled in the summary).
func getItem() *item {
	return pool.Get().(*item)
}

// Use after an explicit Put.
func useAfterPut() {
	p := pool.Get().(*item)
	use(p)
	pool.Put(p)
	p.n++ // want poolescape
}

// Put twice on the same straight-line path.
func doublePut() {
	p := pool.Get().(*item)
	use(p)
	pool.Put(p)
	pool.Put(p) // want poolescape
}

// Returned after its Put: the caller receives an object the pool may
// already have handed elsewhere.
func returnAfterPut() *item {
	p := pool.Get().(*item)
	use(p)
	pool.Put(p)
	return p // want poolescape
}

// An alias does not launder the release: Put through one name kills
// every name bound to the same register.
func aliasedUse() {
	p := pool.Get().(*item)
	q := p
	pool.Put(p)
	use(q) // want poolescape
}

// Aliased into a longer-lived location after the Put.
func escapeAfterPut() {
	p := pool.Get().(*item)
	pool.Put(p)
	longLived.p = p // want poolescape
}

// The release happens inside a module helper; the interprocedural
// summary carries it back to this call site.
func helperRelease() {
	p := getItem()
	use(p)
	putItem(p)
	use(p) // want poolescape
}

// A body Put plus a deferred Put is a double release at exit.
func deferDoublePut() {
	p := pool.Get().(*item)
	defer pool.Put(p) // want poolescape
	use(p)
	pool.Put(p)
}

// Released on one branch only: any path reaching the use may hold a
// recycled object.
func mayUseAfterPut(cond bool) {
	p := pool.Get().(*item)
	if cond {
		pool.Put(p)
	}
	use(p) // want poolescape
}

// Clean twin: get, use, single Put at the end.
func straightLine() {
	p := pool.Get().(*item)
	use(p)
	pool.Put(p)
}

// Clean twin: the idiomatic deferred Put runs after every use.
func deferredPut() {
	p := pool.Get().(*item)
	defer pool.Put(p)
	use(p)
	p.n++
}

// Clean twin: the releasing branch returns, so no released value
// reaches the use (this is what branch sensitivity buys).
func putAndBailOut(cond bool) {
	p := pool.Get().(*item)
	if cond {
		pool.Put(p)
		return
	}
	use(p)
	pool.Put(p)
}

// Clean twin: re-acquiring after the Put starts a fresh lifetime.
func reacquire() {
	p := pool.Get().(*item)
	pool.Put(p)
	p = pool.Get().(*item)
	use(p)
	pool.Put(p)
}

// A parsed document is pool-owned: Release hands its arena back, so the
// document is dead afterwards.
func docUseAfterRelease(b []byte) {
	doc, err := xmldom.ParseBytes(b)
	if err != nil {
		return
	}
	doc.Release()
	_ = doc.Root() // want poolescape
}

// A node read out of the document before its Release dies with it.
func nodeUseAfterRelease(b []byte) *xmldom.Element {
	doc, err := xmldom.ParseBytes(b)
	if err != nil {
		return nil
	}
	root := doc.Root()
	kids := root.Children
	doc.Release()
	_ = kids[0] // want poolescape
	return root // want poolescape
}

// Releasing twice is a double Put.
func doubleRelease(b []byte) {
	doc, err := xmldom.ParseBytes(b)
	if err != nil {
		return
	}
	doc.Release()
	doc.Release() // want poolescape
}

// Clean twin: the model is read out of the tree (as strings, which
// the arena does not own) and the release comes last.
func releaseLast(b []byte) string {
	doc, err := xmldom.ParseBytes(b)
	if err != nil {
		return ""
	}
	root := doc.Root()
	name := root.Local
	doc.Release()
	return name
}

// Clean twin: a clone owns its nodes, so it outlives the release.
func cloneOutlivesRelease(b []byte) *xmldom.Element {
	doc, err := xmldom.ParseBytes(b)
	if err != nil {
		return nil
	}
	keep := doc.Root().Clone()
	doc.Release()
	return keep
}

// A document the function did not parse itself is dead from its
// release on, too.
func releasedParam(doc *xmldom.Document) {
	doc.Release()
	_ = doc.Root() // want poolescape
}
