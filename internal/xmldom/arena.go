package xmldom

import (
	"sync"
	"unsafe" // Sizeof only, for the retained-bytes cap
)

// Slab chunk lengths. A chunk holds one kind of parsed node storage;
// a document of lib-cold's mean size (about 6 KiB) fits each kind in
// one or two chunks, so a recycled arena builds it without allocating
// node storage at all.
const (
	elemChunk = 64
	textChunk = 128
	attrChunk = 64
	nodeChunk = 256
)

// maxPooledArena caps the bytes an arena may retain and still go back
// to the pool on Release: its slab chunks plus its scratch buffers. An
// arena that one huge document grew past it is dropped for the GC, so
// the pool never pins the memory of the largest document it served.
const maxPooledArena = 512 << 10

// arena owns the storage of one parsed document: the element, text,
// attribute and child-slice slabs the StreamBuilder carves, and the
// builder's own scratch. Document.Release hands it back to arenaPool.
// Strings are never arena memory: the builder copies every one out of
// the input, so a model that kept a string survives a release.
type arena struct {
	elems slab[Element]
	texts slab[Text]
	attrs slab[Attr]
	nodes slab[Node]

	builder StreamBuilder
	// stack holds the open elements; pending collects the children of
	// every open element (and the document's top level) in order, and
	// marks[i] is where stack[i]'s children start in pending.
	stack   []*Element
	pending []Node
	marks   []int
	// merged gathers a text node that arrives in several chunks.
	merged []byte
	// wrap holds a fragment wrapped in its synthetic root while
	// ParseFragment scans it.
	wrap []byte
}

var arenaPool = sync.Pool{New: newArena}

// newArena is the pool's first-touch factory: a declared function so a
// parse never builds a closure.
func newArena() any {
	return &arena{
		elems: slab[Element]{size: elemChunk},
		texts: slab[Text]{size: textChunk},
		attrs: slab[Attr]{size: attrChunk},
		nodes: slab[Node]{size: nodeChunk},
	}
}

func getArena() *arena { return arenaPool.Get().(*arena) }

// begin empties the builder scratch for a parse. A parse that failed
// part-way into this arena (a malformed fragment) leaves it dirty.
func (a *arena) begin() {
	a.stack, a.pending, a.marks = a.stack[:0], a.pending[:0], a.marks[:0]
	a.merged = a.merged[:0]
}

// retained is the memory the arena keeps across a release.
func (a *arena) retained() int {
	return len(a.elems.chunks)*elemChunk*int(unsafe.Sizeof(Element{})) +
		len(a.texts.chunks)*textChunk*int(unsafe.Sizeof(Text{})) +
		len(a.attrs.chunks)*attrChunk*int(unsafe.Sizeof(Attr{})) +
		len(a.nodes.chunks)*nodeChunk*int(unsafe.Sizeof(Node(nil))) +
		cap(a.stack)*int(unsafe.Sizeof((*Element)(nil))) +
		cap(a.pending)*int(unsafe.Sizeof(Node(nil))) +
		cap(a.marks)*int(unsafe.Sizeof(0)) +
		cap(a.merged) + cap(a.wrap)
}

// release scrubs every used slot (see scrubElements) and pools the
// arena unless it retains more than maxPooledArena.
func (a *arena) release() {
	a.elems.reset(scrubElements)
	a.texts.reset(scrubTexts)
	a.attrs.reset(scrubAttrs)
	a.nodes.reset(scrubNodes)
	clear(a.stack[:cap(a.stack)])
	clear(a.pending[:cap(a.pending)])
	a.builder = StreamBuilder{}
	a.begin()
	a.wrap = a.wrap[:0]
	if a.retained() <= maxPooledArena {
		arenaPool.Put(a)
	}
}

// carveAttrs copies a start tag's attributes into the attribute slab.
func (a *arena) carveAttrs(src []Attr) []Attr {
	if len(src) == 0 {
		return nil
	}
	dst := a.attrs.carve(len(src))
	copy(dst, src)
	return dst
}

// carveNodes copies a finished child list into the child-slice slab.
func (a *arena) carveNodes(src []Node) []Node {
	if len(src) == 0 {
		return nil
	}
	dst := a.nodes.carve(len(src))
	copy(dst, src)
	return dst
}

// slab hands out T storage from fixed-size chunks it keeps across
// releases. Each chunk's length is the part in use.
type slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	size   int // chunk length
}

// carve returns n contiguous slots with cap == len, so an append to
// the result copies out instead of writing into the next carve. The
// slots are zero unless the poison build scrubbed them; callers
// overwrite them whole. A request larger than a chunk is a plain
// allocation the arena does not keep.
func (s *slab[T]) carve(n int) []T {
	if n > s.size {
		return make([]T, n)
	}
	for ; s.cur < len(s.chunks); s.cur++ {
		c := s.chunks[s.cur]
		if l := len(c); cap(c)-l >= n {
			s.chunks[s.cur] = c[:l+n]
			return c[l : l+n : l+n]
		}
	}
	c := make([]T, n, s.size)
	s.chunks = append(s.chunks, c)
	return c[:n:n]
}

// one returns a single slot.
func (s *slab[T]) one() *T { return &s.carve(1)[0] }

// reset scrubs the used part of every chunk and empties it.
func (s *slab[T]) reset(scrub func([]T)) {
	for i, c := range s.chunks {
		scrub(c)
		s.chunks[i] = c[:0]
	}
	s.cur = 0
}

// Release hands the document's node storage back for the next parse.
// Every node of the document, including those a ParseFragment added,
// is invalid afterwards, and the document itself is left empty; strings
// read out of the tree stay valid. Release is a no-op on a document
// that owns no arena (a Clone, or a tree built by hand) and on a second
// call.
func (d *Document) Release() {
	a := d.arena
	if a == nil {
		return
	}
	d.arena, d.Children = nil, nil
	a.release()
}
