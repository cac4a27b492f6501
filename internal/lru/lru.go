// Package lru provides a byte-budgeted least-recently-used cache. Unlike
// memo, which forgets everything when full, a Cache evicts from its cold
// end one value at a time, so a working set that fits the budget stays
// resident however much cold traffic passes through.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps K to V under a byte budget. All methods are safe for
// concurrent use.
type Cache[K comparable, V comparable] struct {
	budget int64
	mu     sync.Mutex
	bytes  int64
	items  map[K]*list.Element // value is *item[K, V]
	order  *list.List          // front = most recent
}

type item[K comparable, V comparable] struct {
	key  K
	val  V
	size int64
}

// New returns an empty Cache whose values may total budget bytes. A
// budget below one byte is raised to one.
func New[K comparable, V comparable](budget int64) *Cache[K, V] {
	return &Cache[K, V]{
		budget: max(budget, 1),
		items:  make(map[K]*list.Element),
		order:  list.New(),
	}
}

// Get returns the value under k and marks it most recently used.
//
//discvet:hotpath one map probe and a list splice per lookup
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*item[K, V]).val, true
}

// Put stores v under k, charged size bytes, replacing any value there,
// and evicts from the cold end until the cache is back under budget.
// It returns how many values were evicted. A single value larger than
// the whole budget is still admitted alone: a cache must not refuse the
// content it exists for.
func (c *Cache[K, V]) Put(k K, v V, size int64) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		it := el.Value.(*item[K, V])
		c.bytes += size - it.size
		it.val, it.size = v, size
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&item[K, V]{key: k, val: v, size: size})
		c.bytes += size
	}
	for c.bytes > c.budget && c.order.Len() > 1 {
		c.remove(c.order.Back())
		evicted++
	}
	return evicted
}

// CompareAndDelete removes the value under k only if it is still old,
// so a caller dropping a value it read never removes a newer one stored
// since. It reports whether it removed anything.
func (c *Cache[K, V]) CompareAndDelete(k K, old V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok || el.Value.(*item[K, V]).val != old {
		return false
	}
	c.remove(el)
	return true
}

func (c *Cache[K, V]) remove(el *list.Element) {
	it := c.order.Remove(el).(*item[K, V])
	delete(c.items, it.key)
	c.bytes -= it.size
}

// Values returns the resident values, most recent first, without
// touching their recency.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*item[K, V]).val)
	}
	return out
}

// Len reports how many values are resident.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes reports the resident values' total charge.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
