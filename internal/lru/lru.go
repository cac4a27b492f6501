// Package lru provides a byte-budgeted cache with W-TinyLFU admission.
// Unlike memo, which forgets everything when full, a Cache gives up
// values one at a time, and unlike a plain least-recently-used cache it
// does not let a scan of values read once flush the ones read often.
//
// The budget is split in two LRU lists. The window holds about 1 % of
// it (windowShare); main holds the rest. A count-min sketch estimates
// how often each key was read lately.
//
//   - A value no bigger than the window's share enters the window at its
//     most recent end, and is always admitted there. The window's least
//     recent values are then offered to main until the window is back
//     within its share.
//   - A bigger value is offered to main directly.
//   - An offered value is admitted if main has room for it, or if its
//     estimated frequency is strictly above that of every value it would
//     displace, taken from main's least recent end. Otherwise it is
//     dropped, and the drop counts as one eviction.
//   - A value bigger than main's whole share displaces every resident
//     value, the window's too, so it is admitted only into an empty cache
//     or when it is read more often than everything resident, and then
//     it is resident alone. Resident bytes exceed the budget only then.
//
// Only Get counts an access. Peek reads without counting and without
// touching recency, so a caller that looks a key up twice for one
// request counts it once. Put counts nothing: a value is as frequent as
// the reads of its key, hits and misses alike.
//
// The sketch keeps four 4-bit counters per entry (2 bytes), in a
// power-of-two table sized by the most entries ever resident, and never
// below 512 bytes. An access raises only the key's least counters
// (conservative update), and every agingFactor accesses per entry the
// table holds, every counter is halved, so old popularity fades. When
// the table grows it starts over, except that each resident key keeps
// its estimate. Keys are strings, hashed with maphash under a seed
// drawn per cache, so whoever picks the keys cannot choose which counters they
// share.
//
// A working set read more often than the traffic around it therefore
// stays resident while a scan passes through, where LRU would keep the
// scan and lose the working set. Admission only decides which values
// stay resident; a caller that must not serve a stale value still
// checks it (CompareAndDelete).
package lru

import (
	"hash/maphash"
	"sync"
)

const (
	// windowShare is the window's part of the budget, in hundredths.
	windowShare = 1
	// agingFactor sets the sketch's period: it is halved after this
	// many accesses per entry it was sized for.
	agingFactor = 10
)

// Cache maps string keys K to V under a byte budget. All methods are
// safe for concurrent use.
type Cache[K ~string, V comparable] struct {
	budget       int64
	windowBudget int64
	mainBudget   int64
	seed         maphash.Seed

	mu     sync.Mutex
	items  map[K]*node[K, V]
	window list[K, V]
	main   list[K, V]
	sketch sketch
}

type node[K ~string, V comparable] struct {
	key        K
	val        V
	size       int64
	hash       uint64
	prev, next *node[K, V]
	inMain     bool
}

// list is a circular doubly linked list through a sentinel: root.next
// is the most recent value, root.prev the least recent.
type list[K ~string, V comparable] struct {
	root  node[K, V]
	bytes int64
	n     int
}

func (l *list[K, V]) init() { l.root.next, l.root.prev = &l.root, &l.root }

func (l *list[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
	l.bytes += n.size
	l.n++
}

func (l *list[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
	l.bytes -= n.size
	l.n--
}

func (l *list[K, V]) moveToFront(n *node[K, V]) {
	if l.root.next == n {
		return
	}
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = &l.root, l.root.next
	n.prev.next, n.next.prev = n, n
}

// New returns an empty Cache whose values may total budget bytes. A
// budget below one byte is raised to one.
func New[K ~string, V comparable](budget int64) *Cache[K, V] {
	budget = max(budget, 1)
	c := &Cache[K, V]{
		budget:       budget,
		windowBudget: budget * windowShare / 100,
		seed:         maphash.MakeSeed(),
		items:        make(map[K]*node[K, V]),
	}
	c.mainBudget = budget - c.windowBudget
	c.window.init()
	c.main.init()
	c.sketch.resize(1)
	return c
}

func (c *Cache[K, V]) listOf(n *node[K, V]) *list[K, V] {
	if n.inMain {
		return &c.main
	}
	return &c.window
}

// Get returns the value under k, marks it most recently used in its
// list, and counts the access, hit or miss.
//
//discvet:hotpath one map probe, a sketch increment and a list splice per lookup
func (c *Cache[K, V]) Get(k K) (V, bool) {
	h := maphash.String(c.seed, string(k))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sketch.increment(h)
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.listOf(n).moveToFront(n)
	return n.val, true
}

// Peek returns the value under k without counting the access or
// touching its recency.
//
//discvet:hotpath one map probe per lookup
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Put stores v under k, charged size bytes, and places it by the
// admission rules of the package doc. A value already under k is
// replaced first, so a dropped replacement leaves k absent, never
// stale. Put reports how many values left the cache or never entered
// it, and whether v is resident when it returns.
func (c *Cache[K, V]) Put(k K, v V, size int64) (evicted int, admitted bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if ok {
		c.listOf(n).unlink(n)
		n.val, n.size, n.inMain = v, size, false
	} else {
		n = &node[K, V]{key: k, val: v, size: size, hash: maphash.String(c.seed, string(k))}
		c.items[k] = n
	}
	if size <= c.windowBudget {
		c.window.pushFront(n)
	} else {
		evicted += c.offer(n)
	}
	// The window sheds its least recent values to main. It also sheds
	// while a value bigger than main's share is resident, which may be
	// resident only alone.
	for c.window.n > 0 && (c.window.bytes > c.windowBudget || c.window.bytes+c.main.bytes > c.budget) {
		cand := c.window.root.prev
		c.window.unlink(cand)
		evicted += c.offer(cand)
	}
	if c.sketch.grows(len(c.items)) {
		c.growSketch()
	}
	return evicted, c.items[k] == n
}

// growSketch resizes the sketch for the resident count. The new table
// starts over but for the resident keys, which keep their estimates, so
// a working set does not lose its history while the cache fills.
func (c *Cache[K, V]) growSketch() {
	old := c.sketch
	c.sketch.resize(len(c.items))
	for _, l := range []*list[K, V]{&c.window, &c.main} {
		for n := l.root.next; n != &l.root; n = n.next {
			c.sketch.raise(n.hash, old.estimate(n.hash))
		}
	}
}

// offer admits cand, which is in neither list, to main, or drops it.
// It returns how many values left or never entered the cache.
func (c *Cache[K, V]) offer(cand *node[K, V]) (evicted int) {
	// Victims run from main's least recent end; a candidate bigger than
	// main's share also displaces the whole window.
	if need := c.main.bytes + cand.size - c.mainBudget; need > 0 {
		freq := c.sketch.estimate(cand.hash)
		victims, freed := 0, int64(0)
		for v := c.main.root.prev; v != &c.main.root && freed < need; v = v.prev {
			if c.sketch.estimate(v.hash) >= freq {
				return c.drop(cand)
			}
			victims++
			freed += v.size
		}
		if freed < need {
			for v := c.window.root.prev; v != &c.window.root; v = v.prev {
				if c.sketch.estimate(v.hash) >= freq {
					return c.drop(cand)
				}
			}
			evicted += c.evictBack(&c.window, c.window.n)
		}
		evicted += c.evictBack(&c.main, victims)
	}
	cand.inMain = true
	c.main.pushFront(cand)
	return evicted
}

// drop forgets cand, which is in neither list.
func (c *Cache[K, V]) drop(cand *node[K, V]) int {
	delete(c.items, cand.key)
	return 1
}

// evictBack removes the k least recent values of l.
func (c *Cache[K, V]) evictBack(l *list[K, V], k int) int {
	for i := 0; i < k; i++ {
		v := l.root.prev
		l.unlink(v)
		delete(c.items, v.key)
	}
	return k
}

// CompareAndDelete removes the value under k only if it is still old,
// so a caller dropping a value it read never removes a newer one stored
// since. It reports whether it removed anything.
func (c *Cache[K, V]) CompareAndDelete(k K, old V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.items[k]
	if !ok || n.val != old {
		return false
	}
	c.listOf(n).unlink(n)
	delete(c.items, k)
	return true
}

// Values returns the resident values without touching their recency:
// the window's, then main's, each most recent first.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, len(c.items))
	for _, l := range []*list[K, V]{&c.window, &c.main} {
		for n := l.root.next; n != &l.root; n = n.next {
			out = append(out, n.val)
		}
	}
	return out
}

// Len reports how many values are resident.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes reports the resident values' total charge.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window.bytes + c.main.bytes
}
