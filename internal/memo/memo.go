// Package memo provides a bounded memo for pure functions: a mutex and
// a map that is cleared outright when it reaches its cap.
//
// Clearing instead of evicting keeps a memo free of recency
// bookkeeping; a value it forgets is only recomputed. The cap makes the
// memory bound independent of traffic. The xmldsig chain-validation
// memo and the library's canonical-key memo are built from it.
package memo

import "sync"

// Map memoizes values of K. All methods are safe for concurrent use.
type Map[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]V
	limit int
}

// New returns an empty Map holding at most limit entries.
func New[K comparable, V any](limit int) *Map[K, V] {
	return &Map[K, V]{limit: limit}
}

// Get returns the value stored under k.
//
//discvet:hotpath a memo hit is one lock and one typed lookup
func (m *Map[K, V]) Get(k K) (V, bool) {
	m.mu.Lock()
	v, ok := m.m[k]
	m.mu.Unlock()
	return v, ok
}

// Put stores v under k. A full Map is cleared first.
func (m *Map[K, V]) Put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[K]V)
	} else if _, ok := m.m[k]; !ok && len(m.m) >= m.limit {
		clear(m.m)
	}
	m.m[k] = v
}

// Len reports how many entries the Map holds.
func (m *Map[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Reset forgets every entry.
func (m *Map[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.m)
}
