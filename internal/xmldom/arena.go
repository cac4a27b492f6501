package xmldom

import (
	"sync"
	"unsafe"
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
	// charChunk bytes hold the character data of a lib-cold mean
	// document, its decrypted regions included. A new character chunk is
	// only as large as the input being parsed, whose text cannot be
	// longer, so a small document that is never released does not pay
	// for a full chunk.
	charChunk = 16 << 10
)

// maxPooledArena caps the bytes an arena may retain and still go back
// to the pool on Release: its slab chunks, the character slab's
// included, plus its scratch buffers. An arena that one huge document
// grew past it is dropped for the GC, so the pool never pins the memory
// of the largest document it served.
const maxPooledArena = 512 << 10

// arena owns the storage of one parsed document: the element, text,
// attribute and child-slice slabs the StreamBuilder carves, the
// character slab every Text.Data views, and the builder's own scratch.
// Document.Release hands it back to arenaPool. Names, attribute values,
// comments and processing instructions are heap strings that survive a
// release; text is arena memory, so a string read out of a Text (or
// Element.Text) dies with its document, and whatever keeps one past the
// release copies it out with strings.Clone.
type arena struct {
	elems slab[Element]
	texts slab[Text]
	attrs slab[Attr]
	nodes slab[Node]
	chars slab[byte]

	builder StreamBuilder
	// stack holds the open elements; pending collects the children of
	// every open element (and the document's top level) in order, and
	// marks[i] is where stack[i]'s children start in pending.
	stack   []*Element
	pending []Node
	marks   []int
	// merged gathers a text node that arrives in several chunks.
	merged []byte
	// wrap holds the input Parse read, or a fragment wrapped in its
	// synthetic root while ParseFragment scans it.
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
		chars: slab[byte]{size: charChunk},
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
	return a.elems.bytes() + a.texts.bytes() + a.attrs.bytes() + a.nodes.bytes() +
		a.chars.bytes() +
		cap(a.stack)*int(unsafe.Sizeof((*Element)(nil))) +
		cap(a.pending)*int(unsafe.Sizeof(Node(nil))) +
		cap(a.marks)*int(unsafe.Sizeof(0)) +
		cap(a.merged) + cap(a.wrap)
}

// release scrubs every used slot (see scrubElements) and pools the
// arena unless it retains more than maxPooledArena. The character slab
// is zeroed in every build: a released document's text, decrypted
// plaintext included, does not linger in pooled memory, and a string
// that outlived its document reads NULs until the next parse
// overwrites them.
func (a *arena) release() {
	a.elems.reset(scrubElements)
	a.texts.reset(scrubTexts)
	a.attrs.reset(scrubAttrs)
	a.nodes.reset(scrubNodes)
	a.chars.reset(scrubChars)
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

// scrubChars zeroes released character data.
func scrubChars(s []byte) { clear(s) }

// carveString copies b into the character slab and returns the copy
// as a string that views it: valid until the arena's release.
func (a *arena) carveString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	dst := a.chars.carve(len(b))
	copy(dst, b)
	return unsafe.String(&dst[0], len(dst))
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

// slab hands out T storage from chunks it keeps across releases. Each
// chunk's length is the part in use.
type slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	size   int // chunk capacity
	// want, when set, is the capacity of a new chunk, at most size.
	want int
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
	want := s.size
	if s.want > 0 {
		want = s.want
	}
	c := make([]T, n, max(n, want))
	s.chunks = append(s.chunks, c)
	return c[:n:n]
}

// bytes is the memory the slab's chunks hold.
func (s *slab[T]) bytes() int {
	n := 0
	for _, c := range s.chunks {
		n += cap(c)
	}
	var zero T
	return n * int(unsafe.Sizeof(zero))
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
// is invalid afterwards, and the document itself is left empty. So is
// its text: a string read from a Text's Data or an Element's Text views
// the arena, and one that must outlive the release is copied out first
// with strings.Clone (a Clone of the tree copies its text). Names,
// attribute values, comments and processing instructions are heap
// strings and stay valid. Release is a no-op on a document that owns no
// arena (a Clone, or a tree built by hand) and on a second call.
func (d *Document) Release() {
	a := d.arena
	if a == nil {
		return
	}
	d.arena, d.Children = nil, nil
	a.release()
}
